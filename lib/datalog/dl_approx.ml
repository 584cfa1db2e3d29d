let formal_head p name =
  let n =
    match Schema.arity (Datalog.schema p) name with
    | Some n -> n
    | None -> invalid_arg ("Dl_approx: unknown predicate " ^ name)
  in
  List.init n (fun i -> Printf.sprintf "%s#%d" name i)

(* canonical renaming: variables numbered by first occurrence; iterate
   (rename, sort atoms) twice to make the key mostly order-insensitive. *)
let canonical_string (q : Cq.t) =
  let rename (q : Cq.t) =
    let tbl = Hashtbl.create 16 and n = ref 0 in
    let var v =
      match Hashtbl.find_opt tbl v with
      | Some v' -> v'
      | None ->
          let v' = Printf.sprintf "v%d" !n in
          incr n;
          Hashtbl.add tbl v v';
          v'
    in
    let tm = function Cq.Var v -> Cq.Var (var v) | Cq.Cst c -> Cq.Cst c in
    let head = List.map var q.head in
    let body =
      List.map (fun (a : Cq.atom) -> { a with args = List.map tm a.args }) q.body
    in
    { Cq.head; body }
  in
  let sort_body (q : Cq.t) =
    { q with body = List.sort compare q.body }
  in
  let q = sort_body (rename (sort_body (rename q))) in
  Fmt.str "%a" Cq.pp q

let subst_term m = function
  | Cq.Cst c -> Cq.Cst c
  | Cq.Var v -> ( match Smap.find_opt v m with Some t -> t | None -> Cq.Var v)

let subst_atom m (a : Cq.atom) = { a with args = List.map (subst_term m) a.args }

(* Substitutions are triangular: a bound variable's image may itself be
   bound, and [resolve] follows the chain. *)
let rec resolve s = function
  | Cq.Var v as t -> (
      match Smap.find_opt v s with Some t' -> resolve s t' | None -> t)
  | t -> t

let resolve_atom s (a : Cq.atom) = { a with args = List.map (resolve s) a.args }

(* Extend [s] to unify [t1] and [t2]; [None] if two distinct constants
   meet.  A formal head variable ([formal]) is bound only to another
   formal variable or to a constant, so the approximation's head stays
   made of formal variables whenever it can. *)
let unify ~formal s (t1, t2) =
  match s with
  | None -> None
  | Some s -> (
      match (resolve s t1, resolve s t2) with
      | Cq.Cst a, Cq.Cst b -> if Const.equal a b then Some s else None
      | Cq.Var x, Cq.Var y when String.equal x y -> Some s
      | Cq.Var x, t when not (formal x) -> Some (Smap.add x t s)
      | t, Cq.Var y -> Some (Smap.add y t s)
      | Cq.Var x, t -> Some (Smap.add x t s))

let approximations_of_pred_uncached ~max_depth ~max_count p name =
  let idb = Datalog.is_idb p in
  (* memo.(pred) at depth d: approximations with derivation depth ≤ d,
     heads = formal vars. *)
  let memo : (string * int, Cq.t list) Hashtbl.t = Hashtbl.create 16 in
  let dedup qs =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun q ->
        let key = canonical_string q in
        if Hashtbl.mem seen key then false
        else (
          Hashtbl.add seen key ();
          true))
      qs
  in
  let take n l =
    let rec go n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: go (n - 1) rest
    in
    go n l
  in
  let rec approx pred depth =
    match Hashtbl.find_opt memo (pred, depth) with
    | Some r -> r
    | None ->
        let result =
          if depth = 0 then []
          else
            let per_rule (r : Datalog.rule) =
              (* rename the rule apart, then map its head vars to the
                 formal variables of [pred]; a repeated head variable
                 takes the formal variable of its first position *)
              let r = Datalog.rename_rule_apart r in
              let m =
                List.fold_left2
                  (fun m hv fv ->
                    if Smap.mem hv m then m else Smap.add hv (Cq.Var fv) m)
                  Smap.empty (Datalog.head_vars r) (formal_head p pred)
              in
              let head = List.map (fun hv -> Smap.find hv m) (Datalog.head_vars r) in
              let formal v = List.mem (Cq.Var v) head in
              let body = List.map (subst_atom m) r.body in
              let intensional, extensional =
                List.partition (fun (a : Cq.atom) -> idb a.rel) body
              in
              (* choices: for each intensional atom, an approximation of
                 depth ≤ depth-1, plugged in by mapping its head onto the
                 atom's arguments; positions its head repeats unify *)
              let rec expand s acc = function
                | [] -> [ (s, acc) ]
                | (a : Cq.atom) :: rest ->
                    List.concat_map
                      (fun q ->
                        let q = Cq.freshen q in
                        let m, eqs =
                          List.fold_left2
                            (fun (m, eqs) h t ->
                              match Smap.find_opt h m with
                              | Some t' -> (m, (t, t') :: eqs)
                              | None -> (Smap.add h t m, eqs))
                            (Smap.empty, []) q.head a.args
                        in
                        match List.fold_left (unify ~formal) (Some s) eqs with
                        | None -> []
                        | Some s ->
                            expand s (acc @ List.map (subst_atom m) q.body) rest)
                      (take max_count (approx a.rel (depth - 1)))
              in
              List.map
                (fun (s, body) ->
                  let head =
                    List.map
                      (fun t ->
                        match resolve s t with
                        | Cq.Var v -> v
                        | Cq.Cst _ ->
                            Unsupported.fail
                              "Dl_approx: unfolding %s binds a head variable \
                               to a constant"
                              pred)
                      head
                  in
                  { Cq.head; body = List.map (resolve_atom s) body })
                (take max_count (expand Smap.empty extensional intensional))
            in
            let qs =
              List.filter
                (fun (q : Cq.t) ->
                  (* every head var must occur in the body *)
                  let bv =
                    List.concat_map
                      (fun (a : Cq.atom) ->
                        List.filter_map
                          (function Cq.Var v -> Some v | Cq.Cst _ -> None)
                          a.args)
                      q.body
                  in
                  List.for_all (fun v -> List.mem v bv) q.head)
                (List.concat_map per_rule (Datalog.rules_for p pred))
            in
            take max_count (dedup qs)
        in
        Hashtbl.add memo (pred, depth) result;
        result
  in
  approx name max_depth

(* Approximation sets are requested repeatedly for the same few programs
   (the query under test and each view definition, once per chase round):
   cache them.  Keys are structural, values immutable. *)
let approx_tbl : (Datalog.program * string * int * int, Cq.t list) Hashtbl.t =
  Hashtbl.create 16

let approximations_of_pred ?(max_depth = 4) ?(max_count = 2000) p name =
  match Hashtbl.find_opt approx_tbl (p, name, max_depth, max_count) with
  | Some r -> r
  | None ->
      let r = approximations_of_pred_uncached ~max_depth ~max_count p name in
      if Hashtbl.length approx_tbl >= 256 then Hashtbl.reset approx_tbl;
      Hashtbl.add approx_tbl (p, name, max_depth, max_count) r;
      r

let approximations ?max_depth ?max_count (q : Datalog.query) =
  approximations_of_pred ?max_depth ?max_count q.program q.goal

let is_nonrecursive p =
  List.for_all (fun name -> not (Datalog.depends_on p name name)) (Datalog.idbs p)

let complete_unfolding ?(max_count = 2000) (q : Datalog.query) =
  if not (is_nonrecursive q.program) then None
  else
    let depth = List.length (Datalog.idbs q.program) + 1 in
    let qs = approximations ~max_depth:depth ~max_count:(max_count + 1) q in
    if List.length qs > max_count then None else Some qs
