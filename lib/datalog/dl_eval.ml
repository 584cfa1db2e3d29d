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

(* ------------------------------------------------------------------ *)
(* Slot-compiled rules: the fixpoint's inner loop.  Variables are numbered
   into slots of a mutable binding array, so matching a tuple is array
   reads/writes (undone via a trail on backtracking) instead of string-map
   operations.  Slot compilation and the selectivity primitives live in
   {!Dl_plan} (layer 1 of the compile pipeline, shared with the {!Dl_vm}
   bytecode backend); this matcher keeps the {e dynamic} discipline: atom
   order is re-chosen per firing from live index statistics. *)

open Dl_plan

let compile = Dl_plan.compile

(* Match [tup] against [a], binding fresh slots; returns the number of
   slots pushed on [trail] (to undo), or [-1] on mismatch (already
   undone). *)
let match_tuple (a : catom) tup env trail tp =
  let nt = Array.length a.cterms in
  if Array.length tup <> nt then
    invalid_arg
      (Printf.sprintf "Dl_eval: %s has a fact of arity %d but an atom of arity %d"
         a.crel (Array.length tup) nt);
  let rec go i pushed =
    if i = nt then pushed
    else
      let fail () =
        for k = tp to tp + pushed - 1 do
          env.(trail.(k)) <- None
        done;
        -1
      in
      match a.cterms.(i) with
      | Cconst c -> if Const.equal c tup.(i) then go (i + 1) pushed else fail ()
      | Cslot s -> (
          match env.(s) with
          | Some c -> if Const.equal c tup.(i) then go (i + 1) pushed else fail ()
          | None ->
              env.(s) <- Some tup.(i);
              trail.(tp + pushed) <- s;
              go (i + 1) (pushed + 1))
  in
  go 0 0

(* Enumerate matches of [cr.cbody] extending the bindings already in
   [env], where atom [i] draws its candidates from [sources.(i)]; atoms are
   matched most-constrained-first.  [on_match] returns [false] to stop.
   Only slots bound here are undone, so [env] comes back as given. *)
let run_env (cr : crule) env trail (sources : Instance.t array) on_match =
  let nb = Array.length cr.cbody in
  let order = Array.init nb Fun.id in
  let rec solve k tp =
    if k = nb then on_match env
    else begin
      let best = ref k and best_cost = ref max_int in
      (* the last atom needs no estimate: it goes next regardless *)
      if k < nb - 1 then
        for j = k to nb - 1 do
          if !best_cost > 0 then begin
            let i = order.(j) in
            let c = estimate_atom cr.cbody.(i) env sources.(i) in
            if c < !best_cost then begin
              best := j;
              best_cost := c
            end
          end
        done;
      let tmp = order.(k) in
      order.(k) <- order.(!best);
      order.(!best) <- tmp;
      let i = order.(k) in
      let a = cr.cbody.(i) in
      let rec go = function
        | [] -> true
        | tup :: rest -> (
            match match_tuple a tup env trail tp with
            | -1 -> go rest
            | pushed ->
                let cont = solve (k + 1) (tp + pushed) in
                for t = tp to tp + pushed - 1 do
                  env.(trail.(t)) <- None
                done;
                if cont then go rest else false)
      in
      let cont = go (select_candidates a env sources.(i)) in
      let tmp = order.(k) in
      order.(k) <- order.(!best);
      order.(!best) <- tmp;
      cont
    end
  in
  ignore (solve 0 0)

let run_compiled (cr : crule) sources on_match =
  let n = max cr.nvars 1 in
  run_env cr (Array.make n None) (Array.make n (-1)) sources on_match

(* Pre-bind the slots of [a] (the head or a body atom of [cr]) to [tup];
   a clash (constant or repeated slot) means no match at all.  Matching
   only undoes the slots it bound itself, so the seed bindings stay. *)
let run_seeded (cr : crule) (a : catom) tup sources on_match =
  let n = max cr.nvars 1 in
  let env = Array.make n None and trail = Array.make n (-1) in
  if match_tuple a tup env trail 0 >= 0 then run_env cr env trail sources on_match

(* The firing path builds the atom's argument array directly and hands it
   to the interned array constructor: one allocation, no list, no symbol
   lookup — the relation id was cached at compile time. *)
let catom_fact (a : catom) env =
  Fact.of_interned a.crid
    (Array.map
       (function
         | Cslot s -> ( match env.(s) with Some c -> c | None -> assert false)
         | Cconst c -> c)
       a.cterms)

let chead_fact (cr : crule) env = catom_fact cr.chead env

(* The slots matcher: one unit of the semi-naive round loop, the unit's
   delta atom reading [delta], atoms left of it [old], the rest [full]. *)
let slots (cr : crule) pos ~old ~delta ~full emit =
  let sources = Array.make (Array.length cr.cbody) full in
  Array.fill sources 0 pos old;
  sources.(pos) <- delta;
  run_compiled cr sources (fun env -> emit (chead_fact cr env))

let engine =
  {
    Dl_semi.prepare = (fun _ p -> (compile p, slots));
    shape = Fun.id;
  }

let fixpoint ?cancel p inst = Dl_semi.fixpoint engine ?cancel p inst

let fixpoint_delta ?cancel p ~old ~delta =
  Dl_semi.fixpoint_delta engine ?cancel p ~old ~delta

let eval ?cancel q inst = Dl_semi.eval engine ?cancel q inst
let holds ?cancel q inst tup = Dl_semi.holds engine ?cancel q inst tup
let holds_boolean ?cancel q inst = Dl_semi.holds_boolean engine ?cancel q inst

let contained_cq_in ?cancel (cq : Cq.t) q =
  let db = Cq.canonical_db cq in
  let tup = Array.of_list (Cq.head_consts cq) in
  holds ?cancel q db tup

let equivalent_on q1 q2 insts =
  let norm ts = List.sort compare (List.map Array.to_list ts) in
  List.for_all (fun i -> norm (eval q1 i) = norm (eval q2 i)) insts

(* ------------------------------------------------------------------ *)
(* Reference implementation: the seed's scan-based, left-to-right,
   naive-iteration evaluator.  Kept verbatim (modulo the scan helper) as
   the oracle for differential tests of the indexed engine above. *)

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
