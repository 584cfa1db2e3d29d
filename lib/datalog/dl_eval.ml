(* The naive oracle: the seed's scan-based, left-to-right,
   naive-iteration evaluator, kept verbatim (modulo the scan helper) as
   the reference for differential tests of the semi-naive engine
   (Dl_semi over Dl_vm). *)

(* Argument positions of [a] already fixed by [env] (or by constants). *)
let bound_positions (a : Cq.atom) env =
  let bound = ref [] in
  List.iteri
    (fun i t ->
      match t with
      | Cq.Cst c -> bound := (i, c) :: !bound
      | Cq.Var v -> (
          match Smap.find_opt v env with
          | Some c -> bound := (i, c) :: !bound
          | None -> ()))
    a.args;
  !bound

(* Extend [env] by matching atom [a] against tuple [tup]; [None] on clash.
   A tuple whose arity disagrees with the atom is a schema violation — the
   program constructors validate arity, so this is loud, not silent. *)
let extend_env (a : Cq.atom) tup env =
  if Array.length tup <> List.length a.args then
    invalid_arg
      (Printf.sprintf "Dl_eval: %s has a fact of arity %d but an atom of arity %d"
         a.rel (Array.length tup) (List.length a.args));
  let env' = ref env and ok = ref true in
  List.iteri
    (fun i t ->
      if !ok then
        match t with
        | Cq.Cst c -> if not (Const.equal c tup.(i)) then ok := false
        | Cq.Var v -> (
            match Smap.find_opt v !env' with
            | Some c -> if not (Const.equal c tup.(i)) then ok := false
            | None -> env' := Smap.add v tup.(i) !env'))
    a.args;
  if !ok then Some !env' else None

let head_fact (r : Datalog.rule) env =
  let args =
    List.map
      (function
        | Cq.Var v -> Smap.find v env
        | Cq.Cst _ -> assert false (* ruled out by Datalog.rule *))
      r.head.Cq.args
  in
  Fact.make r.head.Cq.rel args

let scan_tuples_with inst rel cs =
  let ok tup =
    List.for_all
      (fun (p, c) -> p < Array.length tup && Const.equal tup.(p) c)
      cs
  in
  List.filter ok (Instance.tuples inst rel)

let match_atom_scan inst (a : Cq.atom) env yield =
  let candidates = scan_tuples_with inst a.rel (bound_positions a env) in
  let rec go = function
    | [] -> true
    | tup :: rest ->
        if Array.length tup <> List.length a.args then go rest
        else (
          match extend_env a tup env with
          | Some env' -> if yield env' then go rest else false
          | None -> go rest)
  in
  ignore (go candidates)

let rec match_all_scan inst atoms env yield =
  match atoms with
  | [] -> yield env
  | a :: rest ->
      let continue_ = ref true in
      match_atom_scan inst a env (fun env' ->
          let c = match_all_scan inst rest env' yield in
          continue_ := c;
          c);
      !continue_

let fixpoint_naive ?(cancel = Dl_cancel.none) p inst =
  let fire full =
    let fresh = ref Instance.empty in
    List.iter
      (fun (r : Datalog.rule) ->
        ignore
          (match_all_scan full r.body Smap.empty (fun env ->
               let f = head_fact r env in
               if not (Instance.mem f full) then fresh := Instance.add f !fresh;
               true)))
      p;
    !fresh
  in
  let rec loop full =
    Dl_cancel.check cancel;
    let fresh = Instance.diff (fire full) full in
    if Instance.is_empty fresh then full else loop (Instance.union full fresh)
  in
  loop inst

let eval_naive ?cancel (q : Datalog.query) inst =
  Instance.tuples (fixpoint_naive ?cancel q.program inst) q.goal
