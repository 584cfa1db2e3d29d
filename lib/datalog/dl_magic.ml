(* Magic-sets transformation: goal-directed (demand-driven) specialization
   of a Datalog query for bottom-up evaluation.

   Given a goal adornment (which goal positions are bound to constants at
   call time), the transformation produces, for every reachable
   (predicate, adornment) pair:

   - an *adorned* predicate [P#a] with P's rules, each gated by a magic
     atom, so P#a-facts are derived only under demand;
   - a *magic* predicate [m#P#a] over the bound positions of [a], holding
     the tuples of bound arguments for which P-facts are actually needed;
     magic rules propagate demand sideways through rule bodies in textual
     order (left-to-right SIP);
   - a *copy* rule [P#a(x̄) ← m#P#a(x̄|bound), P(x̄)], so facts of an
     intensional predicate already present in the input instance (the
     engine's fixpoints extend instances that may pre-populate IDBs)
     remain visible under the adorned name.

   Evaluating the transformed query on [inst + seed] computes exactly the
   original goal facts matching the seed's bound arguments, while deriving
   only facts reachable from that demand — the bottom-up engine then never
   explores rule firings that cannot contribute to the goal.

   Bound positions are only ever *variables*: a constant argument of a
   body atom is adorned free (rule heads cannot carry constants), which
   loses a little pruning but no correctness — the adorned atom still
   filters on the constant.  The goal's own bound positions are an
   exception: their constants live in the seed *fact*, not in a rule. *)

module SS = Set.Make (String)

type pattern = bool array

let all_free n = Array.make n false
let all_bound n = Array.make n true

let pattern_string a =
  String.init (Array.length a) (fun i -> if a.(i) then 'b' else 'f')

(* '#' cannot occur in parsed relation names, so the generated names never
   collide with user relations *)
let adorned_name rel a = rel ^ "#" ^ pattern_string a
let magic_name rel a = "m#" ^ rel ^ "#" ^ pattern_string a

type t = {
  query : Datalog.query;  (** transformed program; goal = adorned goal *)
  source_goal : string;  (** the original query's goal predicate *)
  pattern : pattern;
  magic_goal : string;  (** name of the goal's magic predicate *)
}

let bound_args a terms = List.filteri (fun i _ -> a.(i)) terms

let seed m (tup : Const.t array) =
  if Array.length tup <> Array.length m.pattern then
    invalid_arg "Dl_magic.seed: tuple arity does not match the goal pattern";
  Fact.make m.magic_goal (bound_args m.pattern (Array.to_list tup))

(* seed for a pattern with no bound position (Boolean / all-free goals) *)
let seed_free m =
  if Array.exists Fun.id m.pattern then
    invalid_arg "Dl_magic.seed_free: the goal pattern has bound positions";
  Fact.make m.magic_goal []

let add_vars terms s =
  List.fold_left
    (fun s t -> match t with Cq.Var v -> SS.add v s | Cq.Cst _ -> s)
    s terms

let transform_uncached (q : Datalog.query) (pattern : pattern) : t =
  let p = q.Datalog.program in
  let idb = Datalog.idbs p in
  let is_idb r = List.mem r idb in
  if Array.length pattern <> Datalog.goal_arity q then
    invalid_arg "Dl_magic.transform: pattern length differs from goal arity";
  if not (is_idb q.Datalog.goal) then
    invalid_arg "Dl_magic.transform: the goal has no rules";
  let out = ref [] in
  let seen = Hashtbl.create 16 in
  let queue = Queue.create () in
  let demand rel a =
    let key = adorned_name rel a in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Queue.push (rel, a) queue
    end
  in
  demand q.Datalog.goal pattern;
  while not (Queue.is_empty queue) do
    let rel, a = Queue.pop queue in
    let aname = adorned_name rel a and mname = magic_name rel a in
    (* copy rule: demanded instance facts of [rel] flow into [rel#a] *)
    let gvars = List.init (Array.length a) (fun i -> Cq.Var (Printf.sprintf "m%d" i)) in
    out :=
      Datalog.rule (Cq.atom aname gvars)
        [ Cq.atom mname (bound_args a gvars); Cq.atom rel gvars ]
      :: !out;
    List.iter
      (fun (r : Datalog.rule) ->
        if String.equal r.Datalog.head.Cq.rel rel then begin
          let hargs = r.Datalog.head.Cq.args in
          let magic_atom = Cq.atom mname (bound_args a hargs) in
          let bound = ref (add_vars (bound_args a hargs) SS.empty) in
          let prefix = ref [ magic_atom ] in
          List.iter
            (fun (atm : Cq.atom) ->
              (if is_idb atm.Cq.rel then begin
                 let a' =
                   Array.of_list
                     (List.map
                        (function
                          | Cq.Cst _ -> false
                          | Cq.Var v -> SS.mem v !bound)
                        atm.Cq.args)
                 in
                 demand atm.Cq.rel a';
                 out :=
                   Datalog.rule
                     (Cq.atom (magic_name atm.Cq.rel a')
                        (bound_args a' atm.Cq.args))
                     (List.rev !prefix)
                   :: !out;
                 prefix :=
                   { atm with Cq.rel = adorned_name atm.Cq.rel a' } :: !prefix
               end
               else prefix := atm :: !prefix);
              bound := add_vars atm.Cq.args !bound)
            r.Datalog.body;
          out := Datalog.rule (Cq.atom aname hargs) (List.rev !prefix) :: !out
        end)
      p
  done;
  {
    query = Datalog.make (List.rev !out) (adorned_name q.Datalog.goal pattern);
    source_goal = q.Datalog.goal;
    pattern;
    magic_goal = magic_name q.Datalog.goal pattern;
  }

(* Transformed queries are cached under physical equality of the source
   program (the constructors upstream memoize their programs), so repeated
   goal checks over the same query transform — and hence compile — once.
   The cache is mutex-guarded, so any domain may transform; the
   transformation itself runs outside the lock. *)
let cache_mutex = Mutex.create ()
let cache : (Datalog.program * string * string * t) list ref = ref []

let transform q pattern =
  let key = pattern_string pattern in
  let hit (p, g, k, _) =
    p == q.Datalog.program && String.equal g q.Datalog.goal && String.equal k key
  in
  match Mutex.protect cache_mutex (fun () -> List.find_opt hit !cache) with
  | Some (_, _, _, t) -> t
  | None ->
      let t = transform_uncached q pattern in
      Mutex.protect cache_mutex (fun () ->
          let keep = if List.length !cache >= 32 then [] else !cache in
          cache := (q.Datalog.program, q.Datalog.goal, key, t) :: keep);
      t

let applicable (q : Datalog.query) = Datalog.is_idb q.Datalog.program q.Datalog.goal

(* every head of the transformed program is [rel#pat] (2 parts) or
   [m#rel#pat] (3 parts); source relation names cannot contain '#' *)
let adornments m =
  List.filter_map
    (fun r ->
      match String.split_on_char '#' r.Datalog.head.Cq.rel with
      | [ rel; pat ] -> Some (rel, pat)
      | _ -> None)
    m.query.Datalog.program
  |> List.sort_uniq compare
