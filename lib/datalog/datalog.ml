type rule = { head : Cq.atom; body : Cq.atom list }
type program = rule list
type query = { program : program; goal : string }

let atom_vars (a : Cq.atom) =
  List.filter_map (function Cq.Var v -> Some v | Cq.Cst _ -> None) a.args

let atom_schema (a : Cq.atom) s = Schema.add a.rel (List.length a.args) s

(* Arity consistency.  This runs on every rule/program construction, so it
   must stay cheap: an association list for the handful of relations in one
   rule, a hashtable for whole programs. *)
let arity_clash rel m n =
  invalid_arg
    (Printf.sprintf "Datalog: relation %s used with arities %d and %d" rel m n)

let check_rule_arities atoms =
  let rec go seen = function
    | [] -> ()
    | (a : Cq.atom) :: rest -> (
        let n = List.length a.args in
        match List.assoc_opt a.rel seen with
        | Some m -> if m <> n then arity_clash a.rel m n else go seen rest
        | None -> go ((a.rel, n) :: seen) rest)
  in
  go [] atoms

let check_arities tbl atoms =
  List.iter
    (fun (a : Cq.atom) ->
      let n = List.length a.args in
      match Hashtbl.find_opt tbl a.rel with
      | Some m -> if m <> n then arity_clash a.rel m n
      | None -> Hashtbl.add tbl a.rel n)
    atoms

let rule head body =
  List.iter
    (function
      | Cq.Cst _ -> invalid_arg "Datalog.rule: constant in head"
      | Cq.Var _ -> ())
    head.Cq.args;
  let bv = List.concat_map atom_vars body in
  List.iter
    (fun v ->
      if not (List.mem v bv) then
        invalid_arg ("Datalog.rule: head variable " ^ v ^ " not in body"))
    (atom_vars head);
  check_rule_arities (head :: body);
  { head; body }

let validate p =
  (* every relation used with a single arity across the whole program *)
  let tbl = Hashtbl.create 16 in
  List.iter (fun r -> check_arities tbl (r.head :: r.body)) p

let make program goal =
  validate program;
  { program; goal }

let query = make

let idbs p =
  List.map (fun r -> r.head.Cq.rel) p |> List.sort_uniq String.compare

let is_idb p name = List.exists (fun r -> String.equal r.head.Cq.rel name) p

let edbs p =
  let i = idbs p in
  List.concat_map (fun r -> List.map (fun (a : Cq.atom) -> a.rel) r.body) p
  |> List.sort_uniq String.compare
  |> List.filter (fun n -> not (List.mem n i))

let schema p =
  List.fold_left
    (fun s r -> List.fold_left (fun s a -> atom_schema a s) (atom_schema r.head s) r.body)
    Schema.empty p

let edb_schema p =
  let i = idbs p in
  Schema.restrict (fun n -> not (List.mem n i)) (schema p)

let idb_schema p =
  let i = idbs p in
  Schema.restrict (fun n -> List.mem n i) (schema p)

let goal_arity q =
  match Schema.arity (schema q.program) q.goal with
  | Some n -> n
  | None -> invalid_arg ("Datalog.goal_arity: goal " ^ q.goal ^ " not in program")

let rules_for p name =
  List.filter (fun r -> String.equal r.head.Cq.rel name) p

let head_vars r = atom_vars r.head

let body_vars r =
  List.concat_map atom_vars r.body |> List.sort_uniq String.compare

(* shared by every domain: a fresh name is never handed out twice *)
let fresh_counter = Atomic.make 0

let rename_rule_apart r =
  let tbl = Hashtbl.create 8 in
  let f v =
    match Hashtbl.find_opt tbl v with
    | Some v' -> v'
    | None ->
        let n = 1 + Atomic.fetch_and_add fresh_counter 1 in
        let v' = Printf.sprintf "%s!%d" v n in
        Hashtbl.add tbl v v';
        v'
  in
  let tm = function Cq.Var v -> Cq.Var (f v) | Cq.Cst c -> Cq.Cst c in
  let ren (a : Cq.atom) = { a with args = List.map tm a.args } in
  { head = ren r.head; body = List.map ren r.body }

(* direct dependency: a's rules mention b in their bodies *)
let direct_deps p a =
  List.concat_map
    (fun r ->
      if String.equal r.head.Cq.rel a then
        List.map (fun (at : Cq.atom) -> at.rel) r.body
      else [])
    p
  |> List.sort_uniq String.compare

let depends_on p a b =
  let seen = Hashtbl.create 8 in
  let rec go x =
    if Hashtbl.mem seen x then false
    else (
      Hashtbl.add seen x ();
      let ds = direct_deps p x in
      List.mem b ds || List.exists go ds)
  in
  go a

let is_recursive_rule p r =
  let h = r.head.Cq.rel in
  List.exists
    (fun (a : Cq.atom) ->
      is_idb p a.rel && (String.equal a.rel h || depends_on p a.rel h))
    r.body

let rename_idbs f q =
  let i = idbs q.program in
  let rn name = if List.mem name i then f name else name in
  let ra (a : Cq.atom) = { a with rel = rn a.rel } in
  {
    program =
      List.map (fun r -> { head = ra r.head; body = List.map ra r.body }) q.program;
    goal = rn q.goal;
  }

let max_body_vars p =
  List.fold_left (fun m r -> max m (List.length (body_vars r))) 0 p

let of_cq ~goal (q : Cq.t) =
  let head = Cq.atom goal (List.map (fun v -> Cq.Var v) q.head) in
  { program = [ rule head q.body ]; goal }

let of_ucq ~goal (u : Ucq.t) =
  let rules =
    List.map
      (fun (q : Cq.t) ->
        let head = Cq.atom goal (List.map (fun v -> Cq.Var v) q.head) in
        rule head q.body)
      u.Ucq.disjuncts
  in
  { program = rules; goal }

let union q1 q2 g =
  let a1 = goal_arity q1 and a2 = goal_arity q2 in
  if a1 <> a2 then invalid_arg "Datalog.union: arity mismatch";
  let vars = List.init a1 (fun i -> Cq.Var (Printf.sprintf "u%d" i)) in
  let h = Cq.atom g vars in
  make
    (q1.program @ q2.program
    @ [
        rule h [ Cq.atom q1.goal vars ];
        rule h [ Cq.atom q2.goal vars ];
      ])
    g

(* Structural fingerprint of a query: two independently seeded
   position-sensitive folds over the goal, the rules in order, and every
   atom's relation, arity and terms.  Structurally equal queries always
   fingerprint equal; named constants hash by interned id, so the value
   is process-local (same contract as Instance fingerprints). *)
let fp_stream_program seed chash (p : program) =
  let h = ref (Fp.mix seed) in
  let term t =
    h :=
      match t with
      | Cq.Var v -> Fp.step !h (Fp.string_hash v)
      | Cq.Cst c -> Fp.step (Fp.step !h 1) (chash c)
  in
  let atom (a : Cq.atom) =
    h := Fp.step !h (Fp.string_hash a.rel);
    h := Fp.step !h (List.length a.args);
    List.iter term a.args
  in
  List.iter
    (fun r ->
      h := Fp.step !h (List.length r.body);
      atom r.head;
      List.iter atom r.body)
    p;
  !h

let fp_stream seed chash (q : query) =
  fp_stream_program (seed lxor Fp.string_hash q.goal) chash q.program

(* Memoized under physical equality: sessions hand the same query value
   to every request, so warm cache-key construction never re-traverses
   the program (the first lookup of Dl_vm's compile cache follows the
   same pattern).  One memo per domain, so no lock. *)
let fp_cache : (query * (int * int)) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let fingerprint q =
  let fp_cache = Domain.DLS.get fp_cache in
  match List.find_opt (fun (q', _) -> q' == q) !fp_cache with
  | Some (_, v) -> v
  | None ->
      let v =
        (fp_stream Fp.seed1 Const.hash q, fp_stream Fp.seed2 Const.hash2 q)
      in
      let keep = if List.length !fp_cache >= 32 then [] else !fp_cache in
      fp_cache := (q, v) :: keep;
      v

let fingerprint_hex q =
  let h1, h2 = fingerprint q in
  Fp.hex h1 h2

(* Goal-less fingerprint of a bare program, for caches keyed on the rule
   set alone.  Unmemoized, so pure and safe from any domain: its callers,
   Dl_vm.compile and Dl_magic.transform, look a program up by physical
   equality first and fingerprint it only on a miss (a program built
   afresh). *)
let program_fingerprint (p : program) =
  ( fp_stream_program Fp.seed1 Const.hash p,
    fp_stream_program Fp.seed2 Const.hash2 p )

let pp_rule ppf r =
  Fmt.pf ppf "%a ← %a" Cq.pp_atom r.head
    Fmt.(list ~sep:comma Cq.pp_atom)
    r.body

let pp_program ppf p = Fmt.(list ~sep:(any ".@\n") pp_rule) ppf p

let pp_query ppf q =
  Fmt.pf ppf "@[<v>goal: %s@,%a@]" q.goal pp_program q.program
