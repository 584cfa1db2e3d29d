type t = { name : string; program : Datalog.query }
type collection = t list

let cq name q = { name; program = Datalog.of_cq ~goal:name q }
let ucq name u = { name; program = Datalog.of_ucq ~goal:name u }

let datalog name q =
  {
    name;
    program =
      Datalog.rename_idbs
        (fun g -> if String.equal g q.Datalog.goal then name else name ^ "$" ^ g)
        q;
  }

let atomic name rel n =
  let vars = List.init n (fun i -> Printf.sprintf "x%d" i) in
  cq name
    (Cq.make ~head:vars [ Cq.atom rel (List.map (fun v -> Cq.Var v) vars) ])

let arity v = Datalog.goal_arity v.program

let as_cq v =
  match v.program.Datalog.program with
  | [ { Datalog.head; body } ]
    when String.equal head.Cq.rel v.program.goal
         && not (List.exists (fun (a : Cq.atom) -> String.equal a.rel head.rel) body)
    ->
      (* Datalog.rule admits only variables in heads *)
      let var = function Cq.Var x -> x | Cq.Cst _ -> assert false in
      Some { Cq.head = List.map var head.args; body }
  | _ -> None

let combined_program (vs : collection) =
  List.concat_map (fun v -> v.program.Datalog.program) vs

(* Fingerprint of a collection: an order-sensitive fold of the views'
   names and the structural fingerprints of their programs.  Memoized
   under physical equality of the collection — sessions reuse the stored
   list across requests, so warm cache-key construction is O(1). *)
let fp_cache : (collection * string) list ref = ref []

let fingerprint_hex vs =
  match List.find_opt (fun (vs', _) -> vs' == vs) !fp_cache with
  | Some (_, v) -> v
  | None ->
      let h1, h2 =
        List.fold_left
          (fun (h1, h2) v ->
            let f1, f2 = Datalog.fingerprint v.program in
            let n = Fp.string_hash v.name in
            (Fp.step (Fp.step h1 n) f1, Fp.step (Fp.step h2 n) f2))
          (Fp.mix Fp.seed1, Fp.mix Fp.seed2)
          vs
      in
      let hex = Fp.hex h1 h2 in
      let keep = if List.length !fp_cache >= 32 then [] else !fp_cache in
      fp_cache := (vs, hex) :: keep;
      hex

let approximations ?max_depth ?max_count vs =
  let p = combined_program vs in
  List.map
    (fun v ->
      (v.name, Dl_approx.approximations_of_pred ?max_depth ?max_count p v.name))
    vs

let view_schema (vs : collection) =
  List.fold_left (fun s v -> Schema.add v.name (arity v) s) Schema.empty vs

let base_schema vs = Datalog.edb_schema (combined_program vs)

let image vs =
  let p = combined_program vs and s = view_schema vs in
  fun inst -> Instance.restrict_schema s (Dl_engine.fixpoint p inst)

let is_cq_collection vs = List.for_all (fun v -> as_cq v <> None) vs

let max_radius vs =
  List.fold_left
    (fun acc v ->
      match (acc, as_cq v) with
      | Some r, Some q -> (
          match Cq.radius q with Some r' -> Some (max r r') | None -> None)
      | _ -> None)
    (Some 0) vs

let all_connected_cqs vs =
  List.for_all
    (fun v -> match as_cq v with Some q -> Cq.connected q | None -> false)
    vs

let split_disconnected v =
  match as_cq v with
  | Some q when not (Cq.connected q) ->
      let g = Gaifman.of_instance (Cq.canonical_db q) in
      let comps = Gaifman.components g in
      let var_of_const c =
        (* inverse of Cq.const_of_var *)
        match Const.name c with
        | Some s when String.length s > 0 && s.[0] = '?' ->
            Some (String.sub s 1 (String.length s - 1))
        | _ -> None
      in
      let comp_vars =
        List.map
          (fun comp -> List.filter_map var_of_const (Const.Set.elements comp))
          comps
      in
      (* only keep components that either export head variables or are the
         sole component; pure-existential components are still needed as
         Boolean guards, so keep them as 0-ary views *)
      List.mapi
        (fun i vars ->
          let head = List.filter (fun v -> List.mem v vars) q.Cq.head in
          cq (Printf.sprintf "%s|%d" v.name i) { q with Cq.head })
        comp_vars
  | _ -> [ v ]

(* the goal is the name, so the rules say it all *)
let pp ppf v =
  Fmt.pf ppf "@[<hov 2>%s :=@ %a@]" v.name Datalog.pp_program v.program.Datalog.program
let pp_collection ppf vs = Fmt.(list ~sep:(any "@\n") pp) ppf vs
