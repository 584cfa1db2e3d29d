(* A pair (S, f): bit j of [s] is set when atom j of the CQ is matched in
   the processed subtree; [pos.(v)] is the bag position of variable v, or
   -1 when v is not visible, and bit v of [vis] is set exactly when
   [pos.(v) >= 0].  Every pair is restricted: a variable stays visible only
   while some unmatched atom still mentions it. *)
type pair = { s : int; vis : int; pos : int array }

(* bits 0 .. 61 of an OCaml int; bit 62 is the sign *)
let max_bits = Sys.int_size - 1

(* do [a] and [b] agree on the variables of [mask], counted from [v]? *)
let rec agree mask a b v =
  mask = 0
  || ((mask land 1 = 0 || a.(v) = b.(v)) && agree (mask lsr 1) a b (v + 1))

let pair_equal p q = p.s = q.s && p.vis = q.vis && agree p.vis p.pos q.pos 0

let pair_hash p =
  Array.fold_left (fun h i -> (h * 31) + i) ((p.s * 65599) lxor p.vis) p.pos

let pair_compare p q =
  let c = Int.compare p.s q.s in
  if c <> 0 then c
  else
    let c = Int.compare p.vis q.vis in
    if c <> 0 then c
    else
      let rec go v =
        if v >= Array.length p.pos then 0
        else
          let c = Int.compare p.pos.(v) q.pos.(v) in
          if c <> 0 then c else go (v + 1)
      in
      go 0

(* p dominates q when p has matched at least the atoms of q under at most
   q's constraints: any completion of q also completes p, so q can be
   dropped.  A pair dominates itself. *)
let dominates p q =
  q.s land lnot p.s = 0
  && p.vis land lnot q.vis = 0
  && agree p.vis p.pos q.pos 0

let rec dominated p = function [] -> false | q :: l -> dominates q p || dominated p l
let rec evicts p = function [] -> false | q :: l -> dominates p q || evicts p l

let rec without p = function
  | [] -> []
  | q :: l -> if dominates p q then without p l else q :: without p l

let bits mask =
  List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init max_bits Fun.id)

module Pair_tbl = Hashtbl.Make (struct
  type t = pair

  let equal = pair_equal
  let hash = pair_hash
end)

(* interned states, keyed by their sorted pair array *)
module State_tbl = Hashtbl.Make (struct
  type t = pair array

  let equal a b = Array.length a = Array.length b && Array.for_all2 pair_equal a b
  let hash a = Array.fold_left (fun h p -> (h * 65599) + pair_hash p) 0 a
end)

module Make (Q : sig
  val cq : Cq.t
  val prune : bool
end) =
struct
  type dstate = int

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

  let n_vars = Array.length all_vars

  let () =
    if n_atoms > max_bits || n_vars > max_bits then
      Unsupported.fail "Cq_dta: %d atoms and %d variables (at most %d each)"
        n_atoms n_vars max_bits

  let var_index v =
    let rec idx i = if String.equal all_vars.(i) v then i else idx (i + 1) in
    idx 0

  let atom_vars =
    Array.map (fun (_, vs) -> Array.of_list (List.map var_index vs)) atoms

  let atom_mask =
    Array.map (Array.fold_left (fun m v -> m lor (1 lsl v)) 0) atom_vars

  let full = (1 lsl n_atoms) - 1

  (* the variables of the atoms outside [s] *)
  let needed s =
    let m = ref 0 in
    for j = 0 to n_atoms - 1 do
      if s land (1 lsl j) = 0 then m := !m lor atom_mask.(j)
    done;
    !m

  (* the pair (s, pos) restricted to needed variables; [pos] is fresh and
     [vis] lists its visible entries *)
  let restricted s vis pos =
    let keep = vis land needed s in
    let drop = ref (vis land lnot keep) and v = ref 0 in
    while !drop <> 0 do
      if !drop land 1 <> 0 then pos.(!v) <- -1;
      drop := !drop lsr 1;
      incr v
    done;
    { s; vis = keep; pos }

  let empty = { s = 0; vis = 0; pos = Array.make n_vars (-1) }

  (* A growing set of pairs: with pruning an antichain under [dominates]
     (a pair is refused when a member dominates it, and evicts the members
     it dominates), otherwise duplicate-free.  [add] keeps a copy of the
     pair, so its [pos] may be a scratch buffer, and tells whether the
     pair was kept. *)
  type set = Antichain of pair list ref | Dedup of unit Pair_tbl.t

  (* the set of [ps], which must already be an antichain (with pruning) or
     duplicate-free (without) *)
  let set_of ps =
    if Q.prune then Antichain (ref ps)
    else
      let t = Pair_tbl.create 16 in
      List.iter (fun p -> Pair_tbl.replace t p ()) ps;
      Dedup t

  let add set p =
    match set with
    | Antichain l ->
        (not (dominated p !l))
        &&
        let p = { p with pos = Array.copy p.pos } in
        l := p :: (if evicts p !l then without p !l else !l);
        true
    | Dedup t ->
        (not (Pair_tbl.mem t p))
        &&
        (Pair_tbl.add t { p with pos = Array.copy p.pos } ();
         true)

  let elements = function
    | Antichain l -> !l
    | Dedup t -> Pair_tbl.fold (fun p () acc -> p :: acc) t []

  (* translate a pair through an edge, bottom-up: [inv.(j)] is the parent
     position of child position j, or -1.  A restricted pair only shows
     needed variables, so losing any of them loses the pair.  Edges are
     partial injections, so translating an antichain gives an antichain. *)
  let translate inv p =
    let pos = Array.make n_vars (-1) in
    let ok = ref true and v = ref 0 in
    while !ok && !v < n_vars do
      let j = p.pos.(!v) in
      if j >= 0 then begin
        let i = if j < Array.length inv then inv.(j) else -1 in
        if i < 0 then ok := false else pos.(!v) <- i
      end;
      incr v
    done;
    if !ok then Some { p with pos } else None

  let buf = Array.make n_vars (-1)

  (* every combination of a pair of [ps1] with a consistent pair of [ps2]
     (agreeing on their shared visible variables), each built in [buf] *)
  let cross ps1 ps2 =
    let set = set_of [] in
    List.iter
      (fun p1 ->
        List.iter
          (fun p2 ->
            if agree (p1.vis land p2.vis) p1.pos p2.pos 0 then begin
              let s = p1.s lor p2.s in
              let vis = (p1.vis lor p2.vis) land needed s in
              for v = 0 to n_vars - 1 do
                buf.(v) <-
                  (if vis land (1 lsl v) = 0 then -1
                   else if p1.pos.(v) >= 0 then p1.pos.(v)
                   else p2.pos.(v))
              done;
              ignore (add set { s; vis; pos = buf })
            end)
          ps2)
      ps1;
    elements set

  (* match atom j at the label positions [tuple], consistently with p *)
  let extend p j tuple =
    let vars = atom_vars.(j) in
    let pos = Array.copy p.pos in
    let rec bind k =
      k >= Array.length vars
      ||
      let v = vars.(k) and i = tuple.(k) in
      if pos.(v) < 0 then (
        pos.(v) <- i;
        bind (k + 1))
      else pos.(v) = i && bind (k + 1)
    in
    if bind 0 then
      Some (restricted (p.s lor (1 lsl j)) (p.vis lor atom_mask.(j)) pos)
    else None

  (* What [step] needs of a symbol: an id for the memo, each child edge as
     an array child position -> parent position, and for each atom the
     label tuples it can match. *)
  type sym_info = {
    id : int;
    invs : int array list;
    matches : int array list array;
  }

  let syms : (Nta.sym, sym_info) Hashtbl.t = Hashtbl.create 64

  let info_of (sym : Nta.sym) =
    let inv (edge : Code.edge) =
      let n = List.fold_left (fun n (_, j) -> max n (j + 1)) 0 edge in
      let a = Array.make n (-1) in
      List.iter (fun (i, j) -> if a.(j) < 0 then a.(j) <- i) edge;
      a
    in
    let matches j =
      let rel, _ = atoms.(j) and arity = Array.length atom_vars.(j) in
      List.filter_map
        (fun (lrel, positions) ->
          if String.equal lrel rel && List.length positions = arity then
            Some (Array.of_list positions)
          else None)
        sym.Nta.label
    in
    {
      id = Hashtbl.length syms;
      invs = List.map inv sym.Nta.edges;
      matches = Array.init n_atoms matches;
    }

  let sym_info sym =
    match Hashtbl.find_opt syms sym with
    | Some info -> info
    | None ->
        let info = info_of sym in
        Hashtbl.add syms sym info;
        info

  (* interned states: [ids] maps sorted pairs to an id, [states] an id to
     its pairs and acceptance *)
  let ids : int State_tbl.t = State_tbl.create 64
  let states = ref [||]

  let intern ps =
    let pairs = Array.of_list ps in
    Array.sort pair_compare pairs;
    match State_tbl.find_opt ids pairs with
    | Some d -> d
    | None ->
        let d = State_tbl.length ids in
        if d = Array.length !states then
          states := Array.append !states (Array.make (max 16 d) ([||], false));
        State_tbl.add ids pairs d;
        !states.(d) <- (pairs, Array.exists (fun p -> p.s = full) pairs);
        d

  let pairs d = fst !states.(d)

  (* translate each child's pairs, then combine them across children *)
  let merge info children =
    let translated (child, inv) =
      Array.fold_left
        (fun l p -> match translate inv p with Some q -> q :: l | None -> l)
        [] (pairs child)
    in
    match List.combine children info.invs with
    | [] -> [ empty ]
    | first :: rest ->
        List.fold_left
          (fun acc c -> cross acc (translated c))
          (translated first) rest

  (* extend pairs by matching atoms against the node label, to fixpoint *)
  let close info merged =
    let set = set_of merged in
    let queue = Queue.of_seq (List.to_seq merged) in
    let push p = if add set p then Queue.add p queue in
    while not (Queue.is_empty queue) do
      let p = Queue.pop queue in
      for j = 0 to n_atoms - 1 do
        if p.s land (1 lsl j) = 0 then
          List.iter (fun t -> Option.iter push (extend p j t)) info.matches.(j)
      done
    done;
    elements set

  (* keyed by the symbol's id and the children's ids *)
  let memo : (int list, int) Hashtbl.t = Hashtbl.create 64

  let step (children : dstate list) (sym : Nta.sym) : dstate =
    let info = sym_info sym in
    let key = info.id :: children in
    match Hashtbl.find_opt memo key with
    | Some d -> d
    | None ->
        let d = intern (close info (merge info children)) in
        Hashtbl.add memo key d;
        d

  let accept d = snd !states.(d)
  let compare = Int.compare

  let pp ppf d =
    Fmt.pf ppf "{%a}"
      Fmt.(
        array ~sep:semi (fun ppf p ->
            Fmt.pf ppf "S=%a f=%a"
              (brackets (list ~sep:comma int))
              (bits p.s)
              (brackets
                 (list ~sep:comma (fun ppf v -> Fmt.pf ppf "%d@%d" v p.pos.(v))))
              (bits p.vis)))
      (pairs d)

  let rec run_code (c : Code.t) =
    step (List.map (fun (_, ch) -> run_code ch) c.Code.children) (Nta.sym_of_node c)
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
  M.accept (M.run_code code)

let pairs_on_code ?(prune = true) cq code =
  let module M = Make (struct
    let cq = cq
    let prune = prune
  end) in
  Array.to_list (M.pairs (M.run_code code))
  |> List.map (fun p ->
         (bits p.s, List.map (fun v -> (v, p.pos.(v))) (bits p.vis)))
