(* Reference implementation of the CQ-satisfaction automaton: states are
   sorted lists of (matched atoms, variable -> position assoc) pairs,
   compared structurally and pruned only once a state is finished.  Kept
   as the oracle that test_automata.ml compares [Cq_dta] against.  Only
   [pairs_on_code] is new; the rest is the list implementation [Cq_dta]
   replaced. *)

(* a pair (S, f): S = sorted list of matched atom indices, f = sorted assoc
   var index -> bag position *)
type pair = { s : int list; f : (int * int) list }

let pair_compare (a : pair) b = compare (a.s, a.f) (b.s, b.f)

module Make (Q : sig
  val cq : Cq.t
  val prune : bool
end) =
struct
  type dstate = pair list (* sorted, deduplicated *)

  let atoms =
    Array.of_list
      (List.map
         (fun (a : Cq.atom) ->
           ( a.Cq.rel,
             List.map
               (function
                 | Cq.Var v -> v
                 | Cq.Cst _ -> Unsupported.fail "Cq_dta: constants in the CQ")
               a.Cq.args ))
         Q.cq.Cq.body)

  let n_atoms = Array.length atoms

  let all_vars =
    Array.to_list atoms
    |> List.concat_map snd
    |> List.sort_uniq String.compare
    |> Array.of_list

  let var_index v =
    let rec idx i = if String.equal all_vars.(i) v then i else idx (i + 1) in
    idx 0

  let atom_vars = Array.map (fun (_, vs) -> List.map var_index vs) atoms

  (* is variable v needed once the atoms in S are matched? *)
  let needed s v =
    let rec outside j =
      if j >= n_atoms then false
      else if (not (List.mem j s)) && List.mem v atom_vars.(j) then true
      else outside (j + 1)
    in
    outside 0

  (* p1 dominates p2 when p1 has matched at least the atoms of p2 under at
     most p2's constraints: any completion of p2 also completes p1, so p2
     can be dropped.  This keeps states small (in particular, a full match
     collapses the state to a single pair). *)
  let subset_int a b = List.for_all (fun x -> List.mem x b) a

  let dominates p1 p2 =
    subset_int p2.s p1.s
    && List.for_all (fun (v, pos) -> List.assoc_opt v p2.f = Some pos) p1.f

  let normalize (ps : pair list) : dstate =
    let ps = List.sort_uniq pair_compare ps in
    if not Q.prune then ps
    else
      List.filter
        (fun p ->
          not
            (List.exists
               (fun p' -> pair_compare p p' <> 0 && dominates p' p)
               ps))
        ps

  (* restrict f to needed variables *)
  let restrict p = { p with f = List.filter (fun (v, _) -> needed p.s v) p.f }

  (* extend pairs by matching atoms against the node label, to fixpoint *)
  let close_in_label (label : Code.label) (ps : pair list) : pair list =
    let result = Hashtbl.create 32 in
    let queue = Queue.create () in
    let push p =
      let key = (p.s, p.f) in
      if not (Hashtbl.mem result key) then (
        Hashtbl.add result key p;
        Queue.add p queue)
    in
    List.iter push ps;
    while not (Queue.is_empty queue) do
      let p = Queue.pop queue in
      for j = 0 to n_atoms - 1 do
        if not (List.mem j p.s) then
          let rel, _ = atoms.(j) in
          let vs = atom_vars.(j) in
          List.iter
            (fun (lrel, positions) ->
              if String.equal lrel rel && List.length positions = List.length vs
              then
                (* try to bind vs to positions consistently with p.f *)
                let rec bind f = function
                  | [] -> Some f
                  | (v, pos) :: rest -> (
                      match List.assoc_opt v f with
                      | Some pos' when pos' = pos -> bind f rest
                      | Some _ -> None
                      | None -> bind ((v, pos) :: f) rest)
                in
                match bind p.f (List.combine vs positions) with
                | None -> ()
                | Some f ->
                    push
                      {
                        s = List.sort_uniq Int.compare (j :: p.s);
                        f = List.sort compare f;
                      })
            label
      done
    done;
    Hashtbl.fold (fun _ p acc -> p :: acc) result []

  (* translate a pair through an edge (parent pos -> child pos), bottom-up *)
  let translate (edge : Code.edge) (p : pair) : pair option =
    let inverse j = List.find_opt (fun (_, j') -> j' = j) edge in
    let rec go acc = function
      | [] -> Some { p with f = List.sort compare acc }
      | (v, j) :: rest -> (
          match inverse j with
          | Some (i, _) -> go ((v, i) :: acc) rest
          | None -> if needed p.s v then None else go acc rest)
    in
    go [] p.f

  (* combine two pairs (consistency on shared visible variables) *)
  let combine p1 p2 =
    let rec merge f = function
      | [] -> Some f
      | (v, pos) :: rest -> (
          match List.assoc_opt v f with
          | Some pos' when pos' = pos -> merge f rest
          | Some _ -> None
          | None -> merge ((v, pos) :: f) rest)
    in
    match merge p1.f p2.f with
    | None -> None
    | Some f ->
        Some
          {
            s = List.sort_uniq Int.compare (p1.s @ p2.s);
            f = List.sort compare f;
          }

  let step (children : dstate list) (sym : Nta.sym) : dstate =
    let translated =
      List.map2
        (fun st edge -> List.filter_map (translate edge) st)
        children sym.Nta.edges
    in
    let merged =
      List.fold_left
        (fun acc st ->
          List.concat_map
            (fun p1 -> List.filter_map (fun p2 -> combine p1 p2) st)
            acc)
        [ { s = []; f = [] } ]
        translated
    in
    let closed = close_in_label sym.Nta.label merged in
    normalize (List.map restrict closed)

  let accept (st : dstate) = List.exists (fun p -> List.length p.s = n_atoms) st

  let compare = compare

  let pp ppf (st : dstate) =
    Fmt.pf ppf "{%a}"
      Fmt.(
        list ~sep:semi (fun ppf p ->
            Fmt.pf ppf "S=%a f=%a"
              (brackets (list ~sep:comma int))
              p.s
              (brackets
                 (list ~sep:comma (fun ppf (v, j) -> Fmt.pf ppf "%d@%d" v j)))
              p.f))
      st
end

let make ?(negate = false) ?(prune = true) (cq : Cq.t) : Dta.t =
  let module M = Make (struct
    let cq = cq
    let prune = prune
  end) in
  if negate then
    (module struct
      include M

      let accept st = not (M.accept st)
    end : Dta.S)
  else (module M : Dta.S)

let holds_on_code ?(prune = true) cq code =
  let module M = Make (struct
    let cq = cq
    let prune = prune
  end) in
  let rec run (c : Code.t) =
    let kids = List.map (fun (_, ch) -> run ch) c.Code.children in
    M.step kids (Nta.sym_of_node c)
  in
  M.accept (run code)

let pairs_on_code ?(prune = true) cq code =
  let module M = Make (struct
    let cq = cq
    let prune = prune
  end) in
  let rec run (c : Code.t) =
    let kids = List.map (fun (_, ch) -> run ch) c.Code.children in
    M.step kids (Nta.sym_of_node c)
  in
  List.map (fun p -> (p.s, p.f)) (run code)
