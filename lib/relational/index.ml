(* Buckets hang off a hashtable specialized to interned constants: the
   hash is an integer mix of the id, never a generic structural hash. *)
module H = Hashtbl.Make (struct
  type t = Const.t

  let equal = Const.equal
  let hash = Const.hash
end)

type bucket = { mutable n : int; mutable tups : Const.t array list }

(* [all] is the tuple list handed to [build] (or grown by [extend]); a
   shrunk index drops it and re-derives it on demand from the position-0
   buckets, which partition every tuple of positive arity — only the
   nullary tuple needs the separate flag.  The lazy fill is a single
   pointer write of an immutable list, so racing domains at worst both
   compute it. *)
type t = {
  mutable size : int;
  mutable all : Const.t array list option;
  mutable nullary : bool; (* the empty tuple is indexed *)
  mutable tables : bucket H.t array; (* one table per position *)
}

let add_tuples tables size tuples =
  List.fold_left
    (fun k tup ->
      Array.iteri
        (fun p c ->
          let tbl = tables.(p) in
          match H.find_opt tbl c with
          | Some b ->
              b.n <- b.n + 1;
              b.tups <- tup :: b.tups
          | None -> H.add tbl c { n = 1; tups = [ tup ] })
        tup;
      k + 1)
    size tuples

let build tuples =
  let arity = List.fold_left (fun m t -> max m (Array.length t)) 0 tuples in
  let tables = Array.init arity (fun _ -> H.create 16) in
  let size = add_tuples tables 0 tuples in
  {
    size;
    all = Some tuples;
    nullary = List.exists (fun t -> Array.length t = 0) tuples;
    tables;
  }

(* Derived indexes share the bucket tuple lists with the old index (lists
   are immutable), so only the bucket records and the position tables
   themselves are copied.  The old index stays valid: nothing reachable
   from it is mutated. *)
let copy_tables idx arity =
  Array.init arity (fun p ->
      if p < Array.length idx.tables then begin
        let old = idx.tables.(p) in
        let tbl = H.create (max 16 (H.length old)) in
        H.iter (fun c b -> H.add tbl c { n = b.n; tups = b.tups }) old;
        tbl
      end
      else H.create 16)

let extend idx tuples =
  match tuples with
  | [] -> idx
  | _ ->
      let arity =
        List.fold_left
          (fun m t -> max m (Array.length t))
          (Array.length idx.tables) tuples
      in
      let tables = copy_tables idx arity in
      {
        size = add_tuples tables idx.size tuples;
        all = Option.map (List.rev_append tuples) idx.all;
        nullary = idx.nullary || List.exists (fun t -> Array.length t = 0) tuples;
        tables;
      }

(* In place: only the index's owner may hold it (an index reached
   through an [Instance] is shared).  Each new tuple is consed onto the
   front of its buckets, so the newest tuples lead every bucket. *)
let append idx tuples =
  match tuples with
  | [] -> ()
  | _ ->
      let arity =
        List.fold_left (fun m t -> max m (Array.length t)) 0 tuples
      in
      let k = Array.length idx.tables in
      if arity > k then
        idx.tables <-
          Array.init arity (fun p ->
              if p < k then idx.tables.(p) else H.create 16);
      idx.size <- add_tuples idx.tables idx.size tuples;
      idx.all <- None;
      if List.exists (fun t -> Array.length t = 0) tuples then
        idx.nullary <- true

(* Tuple-keyed tables, hashed and compared by top-level loops that
   allocate nothing. *)
let rec tuple_equal_from (a : Const.t array) b i n =
  i = n
  || Const.equal (Array.unsafe_get a i) (Array.unsafe_get b i)
     && tuple_equal_from a b (i + 1) n

let rec tuple_hash_from (t : Const.t array) h i n =
  if i = n then h
  else tuple_hash_from t ((h * 31) + Const.hash (Array.unsafe_get t i)) (i + 1) n

module TH = Hashtbl.Make (struct
  type t = Const.t array

  let equal a b =
    let n = Array.length a in
    n = Array.length b && tuple_equal_from a b 0 n

  let hash (t : t) = tuple_hash_from t 0 0 (Array.length t)
end)

(* Drop the [r] tuples of [l] that are in [gone], sharing the tail after
   the last of them. *)
let remove_from gone l r =
  let rec go acc l r =
    if r = 0 then List.rev_append acc l
    else
      match l with
      | [] -> List.rev acc
      | t :: rest ->
          if TH.mem gone t then go acc rest (r - 1) else go (t :: acc) rest r
  in
  go [] l r

(* The dual of [extend]: only the buckets holding a removed tuple change,
   each walked once up to its last removed tuple — or dropped unwalked
   when every tuple in it goes. *)
let shrink idx tuples =
  match tuples with
  | [] -> idx
  | _ ->
      let gone = TH.create 64 in
      List.iter (fun tup -> TH.replace gone tup ()) tuples;
      let tables = copy_tables idx (Array.length idx.tables) in
      let hits = Array.map (fun _ -> H.create 16) tables in
      TH.iter
        (fun tup () ->
          Array.iteri
            (fun p c ->
              match H.find_opt hits.(p) c with
              | Some r -> incr r
              | None -> H.add hits.(p) c (ref 1))
            tup)
        gone;
      Array.iteri
        (fun p h ->
          H.iter
            (fun c r ->
              match H.find_opt tables.(p) c with
              | None -> ()
              | Some b ->
                  if !r >= b.n then H.remove tables.(p) c
                  else begin
                    b.n <- b.n - !r;
                    b.tups <- remove_from gone b.tups !r
                  end)
            h)
        hits;
      {
        size = idx.size - TH.length gone;
        all = None;
        nullary = idx.nullary && not (TH.mem gone [||]);
        tables;
      }

let size idx = idx.size

let all idx =
  match idx.all with
  | Some l -> l
  | None ->
      let l =
        if Array.length idx.tables = 0 then []
        else H.fold (fun _ b acc -> List.rev_append b.tups acc) idx.tables.(0) []
      in
      let l = if idx.nullary then [||] :: l else l in
      idx.all <- Some l;
      l

let count idx p c =
  if p < 0 || p >= Array.length idx.tables then 0
  else match H.find_opt idx.tables.(p) c with None -> 0 | Some b -> b.n

let lookup idx p c =
  if p < 0 || p >= Array.length idx.tables then []
  else
    match H.find_opt idx.tables.(p) c with None -> [] | Some b -> b.tups
