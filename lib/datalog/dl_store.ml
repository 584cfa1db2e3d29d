(* The per-call, append-only store of derived tuples behind Dl_semi's
   round loop.  Nothing here is shared with another call: a cancelled
   evaluation drops its store whole, and only the base instance's index
   caches (which any reader may fill) outlive it. *)

module H = Hashtbl.Make (struct
  type t = Const.t

  let equal = Const.equal
  let hash = Const.hash
end)

type part = Full | Old | Delta

type rel = {
  rid : Symtab.sym;
  in_base : bool; (* the relation has facts in the base *)
  seen : unit Index.TH.t; (* every tail tuple *)
  mutable rows : Const.t array list; (* the tail, newest first *)
  mutable n : int;
  mutable batch : Const.t array list; (* the current batch, rows' prefix *)
  mutable nbatch : int;
  mutable kept : Const.t array list; (* derived this round, not yet rows *)
  mutable nkept : int;
  mutable buckets : Index.t option; (* over [rows], once probed *)
  mutable fresh : int H.t array;
      (* per position: current-batch tuples per constant, with [buckets] *)
}

type t = {
  rids : Symtab.sym array;
  base : Instance.t;
  base_ns : int array;
      (* per relation: its facts in the base, counted on first use (-1
         before): a short evaluation asks about few relations *)
  rels : rel option array;
      (* per relation: its tail, made when a unit first derives it *)
  mutable first : (Instance.t * Instance.t) option;
}

let create ~rids ~base ~old ~delta =
  {
    rids;
    base;
    base_ns = Array.make (Array.length rids) (-1);
    rels = Array.make (Array.length rids) None;
    first = Some (old, delta);
  }

let first st = st.first
let base st = st.base

let base_n st k =
  let n = st.base_ns.(k) in
  if n >= 0 then n
  else
    let n = Instance.cardinal_id st.base st.rids.(k) in
    st.base_ns.(k) <- n;
    n

(* After the first round a relation reads its base facts as [old] and
   [full], its tail's earlier batches as [old], its current batch as
   [delta]. *)
let has st part k =
  match st.first with
  | Some (old, delta) -> (
      match part with
      | Full -> base_n st k > 0
      | Old -> Instance.cardinal_id old st.rids.(k) > 0
      | Delta -> Instance.cardinal_id delta st.rids.(k) > 0)
  | None -> (
      match (part, st.rels.(k)) with
      | Delta, None -> false
      | Delta, Some e -> e.nbatch > 0
      | Old, Some e when e.n > e.nbatch -> true
      | Full, Some e when e.n > 0 -> true
      | (Old | Full), _ -> base_n st k > 0)

let tail st k =
  match st.first with
  | Some _ -> None
  | None -> (
      match st.rels.(k) with Some e when e.n > 0 -> Some e | _ -> None)

let rec drop k l =
  if k = 0 then l else match l with [] -> [] | _ :: l -> drop (k - 1) l

let rec take k l =
  if k = 0 then [] else match l with [] -> [] | x :: l -> x :: take (k - 1) l

let rows e = function
  | Full -> e.rows
  | Old -> drop e.nbatch e.rows
  | Delta -> e.batch

(* the current batch's tuples per position and constant *)
let count_fresh e =
  Array.iteri
    (fun p tbl ->
      H.reset tbl;
      List.iter
        (fun tup ->
          let c = tup.(p) in
          H.replace tbl c (1 + Option.value ~default:0 (H.find_opt tbl c)))
        e.batch)
    e.fresh

let buckets e =
  match e.buckets with
  | Some idx -> idx
  | None ->
      (* built oldest first, so the newest lead every bucket *)
      let idx = Index.build (List.rev e.rows) in
      let arity = match e.rows with t :: _ -> Array.length t | [] -> 0 in
      e.buckets <- Some idx;
      e.fresh <- Array.init arity (fun _ -> H.create 16);
      count_fresh e;
      idx

let fresh e p c =
  if p >= Array.length e.fresh then 0
  else match H.find_opt e.fresh.(p) c with Some k -> k | None -> 0

let count e part p c =
  let idx = buckets e in
  match part with
  | Full -> Index.count idx p c
  | Old -> Index.count idx p c - fresh e p c
  | Delta -> fresh e p c

(* a bucket lists its current-batch tuples first (Index.append) *)
let lookup e part p c =
  let idx = buckets e in
  match part with
  | Full -> Index.lookup idx p c
  | Old -> drop (fresh e p c) (Index.lookup idx p c)
  | Delta -> take (fresh e p c) (Index.lookup idx p c)

(* A tail is made when its relation first derives a tuple. *)
let add st k tup =
  let e =
    match st.rels.(k) with
    | Some e -> e
    | None ->
        let e =
          {
            rid = st.rids.(k);
            in_base = base_n st k > 0;
            seen = Index.TH.create 16;
            rows = [];
            n = 0;
            batch = [];
            nbatch = 0;
            kept = [];
            nkept = 0;
            buckets = None;
            fresh = [||];
          }
        in
        st.rels.(k) <- Some e;
        e
  in
  if
    (e.in_base && Instance.mem_tuple_id st.base e.rid tup)
    || Index.TH.mem e.seen tup
  then false
  else begin
    Index.TH.add e.seen tup ();
    e.kept <- tup :: e.kept;
    e.nkept <- e.nkept + 1;
    true
  end

let commit st =
  st.first <- None;
  let next = ref false in
  Array.iter
    (function
      | None -> ()
      | Some e ->
          let had = e.nbatch > 0 in
          e.batch <- e.kept;
          e.nbatch <- e.nkept;
          if e.nkept > 0 then begin
            next := true;
            e.rows <- e.kept @ e.rows;
            e.n <- e.n + e.nkept;
            Option.iter (fun idx -> Index.append idx e.kept) e.buckets;
            e.kept <- [];
            e.nkept <- 0
          end;
          if had || e.nbatch > 0 then count_fresh e)
    st.rels;
  !next

let tuples st rid =
  let base = Instance.tuples st.base (Symtab.name rid) in
  Array.fold_left
    (fun acc -> function
      | Some e when e.rid = rid ->
          List.merge Fact.compare_args acc (List.sort Fact.compare_args e.rows)
      | _ -> acc)
    base st.rels

let derived st =
  Instance.of_tuples
    (Array.fold_left
       (fun acc -> function Some e -> (e.rid, e.rows) :: acc | None -> acc)
       [] st.rels)
