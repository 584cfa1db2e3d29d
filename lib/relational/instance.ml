module Tuple = struct
  type t = Const.t array

  let compare = Fact.compare_args
end

module TS = Set.Make (Tuple)
module M = Map.Make (Int)

(* Relations are keyed by their interned {!Symtab} id, so the per-fact map
   lookups of [add]/[mem]/[union] are integer comparisons; the name is
   recovered with [Symtab.name] on the cold paths that need it (printing,
   schema, restriction by predicate).

   Each relation carries its tuple set, the running fingerprint sums of
   that set, and a cache filled on demand: the set's elements as a
   list, which is all a scan reads, or a secondary index, which a probe
   needs and whose [Index.all] is that list.  The cache is derived data
   over the immutable [ts], so the mutable field is sound: any operation
   producing a different tuple set allocates a new [rel] with its own
   cache, while unchanged relations keep sharing theirs.

   Invariant: every [rel] stored in the map has a non-empty tuple set, so
   [M.is_empty] ⇔ no facts and [M.bindings] lists exactly the non-empty
   relations. *)

(* [Grown (base, added)] is the cache of [union_disjoint]'s result:
   nothing is cached yet, but its index is [base]'s extended by
   [added]'s tuples if [base] is indexed by the time it is asked for. *)
type cache =
  | Cold
  | Listed of Const.t array list
  | Indexed of Index.t
  | Grown of rel * rel

and rel = {
  ts : TS.t;
  n : int; (* cached [TS.cardinal ts] — [Set.cardinal] walks the whole
              tree, and the per-round unions of a delta fixpoint were
              paying that O(n) walk just to pick the bigger operand *)
  s1 : int; (* sum over tuples of Fact.tuple_hash, first stream *)
  s2 : int; (* second stream; native addition wraps, order-independent *)
  mutable cache : cache;
}

(* The instance-level fingerprint [f1]/[f2] is the sum of the relation
   sums: structurally equal instances always carry equal pairs (the sums
   range over the same fact multiset), whatever sequence of adds, unions
   and diffs produced them. *)
type t = { rels : rel M.t; f1 : int; f2 : int }

let sums_of rid ts =
  let s1 = ref 0 and s2 = ref 0 in
  TS.iter
    (fun tup ->
      let h1, h2 = Fact.tuple_hash rid tup in
      s1 := !s1 + h1;
      s2 := !s2 + h2)
    ts;
  (!s1, !s2)

let mk rid ts =
  let s1, s2 = sums_of rid ts in
  { ts; n = TS.cardinal ts; s1; s2; cache = Cold }

(* recompute the instance sums from the relation sums: O(#relations) *)
let wrap rels =
  let f1, f2 =
    M.fold (fun _ r (f1, f2) -> (f1 + r.s1, f2 + r.s2)) rels (0, 0)
  in
  { rels; f1; f2 }

let elements r =
  match r.cache with
  | Indexed i -> Index.all i
  | Listed l -> l
  | Grown _ -> TS.elements r.ts (* the pending extension stays *)
  | Cold ->
      let l = TS.elements r.ts in
      r.cache <- Listed l;
      l

let index_of r =
  match r.cache with
  | Indexed i -> i
  | Grown ({ cache = Indexed base; _ }, added) ->
      let i = Index.extend base (elements added) in
      r.cache <- Indexed i;
      i
  | Grown _ | Listed _ | Cold ->
      let i = Index.build (elements r) in
      r.cache <- Indexed i;
      i

let empty = { rels = M.empty; f1 = 0; f2 = 0 }

let add (f : Fact.t) t =
  match M.find_opt f.rid t.rels with
  | None ->
      {
        rels =
          M.add f.rid
            { ts = TS.singleton f.args; n = 1; s1 = f.h1; s2 = f.h2; cache = Cold }
            t.rels;
        f1 = t.f1 + f.h1;
        f2 = t.f2 + f.h2;
      }
  | Some r ->
      if TS.mem f.args r.ts then t
      else
        {
          rels =
            M.add f.rid
              {
                ts = TS.add f.args r.ts;
                n = r.n + 1;
                s1 = r.s1 + f.h1;
                s2 = r.s2 + f.h2;
                cache = Cold;
              }
              t.rels;
          f1 = t.f1 + f.h1;
          f2 = t.f2 + f.h2;
        }

let remove (f : Fact.t) t =
  match M.find_opt f.rid t.rels with
  | None -> t
  | Some r ->
      if not (TS.mem f.args r.ts) then t
      else
        let ts = TS.remove f.args r.ts in
        let rels =
          if TS.is_empty ts then M.remove f.rid t.rels
          else
            M.add f.rid
              { ts; n = r.n - 1; s1 = r.s1 - f.h1; s2 = r.s2 - f.h2; cache = Cold }
              t.rels
        in
        { rels; f1 = t.f1 - f.h1; f2 = t.f2 - f.h2 }

(* The bulk constructor: one pass groups the facts by relation id,
   summing their cached hashes, then each relation is built with one
   [TS.of_list].  Only a relation whose list held duplicates (its set is
   smaller than the facts grouped) re-sums over the set. *)
type group = {
  mutable tups : Const.t array list;
  mutable k : int;
  mutable g1 : int;
  mutable g2 : int;
}

let of_list fs =
  let groups =
    List.fold_left
      (fun gs (f : Fact.t) ->
        match M.find f.rid gs with
        | g ->
            g.tups <- f.args :: g.tups;
            g.k <- g.k + 1;
            g.g1 <- g.g1 + f.h1;
            g.g2 <- g.g2 + f.h2;
            gs
        | exception Not_found ->
            M.add f.rid { tups = [ f.args ]; k = 1; g1 = f.h1; g2 = f.h2 } gs)
      M.empty fs
  in
  wrap
    (M.mapi
       (fun rid g ->
         let ts = TS.of_list g.tups in
         let n = TS.cardinal ts in
         if n = g.k then { ts; n; s1 = g.g1; s2 = g.g2; cache = Cold }
         else mk rid ts)
       groups)

let of_facts fs = of_list (Fact.Set.elements fs)
let singleton f = add f empty

(* iteration in relation-name order (as before interning), so [facts] and
   [pp] stay deterministic and independent of intern order *)
let sorted_rels t =
  M.bindings t.rels
  |> List.map (fun (rid, r) -> (Symtab.name rid, rid, r))
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let fold g t acc =
  List.fold_left
    (fun acc (_, rid, r) ->
      TS.fold (fun args acc -> g (Fact.of_interned rid args) acc) r.ts acc)
    acc (sorted_rels t)

let iter g t = fold (fun f () -> g f) t ()
let facts t = List.rev (fold (fun f acc -> f :: acc) t [])
let fact_set t = fold Fact.Set.add t Fact.Set.empty

let mem (f : Fact.t) t =
  match M.find_opt f.rid t.rels with
  | None -> false
  | Some r -> TS.mem f.args r.ts

let mem_tuple_id t rid tup =
  match M.find_opt rid t.rels with None -> false | Some r -> TS.mem tup r.ts

let size t = M.fold (fun _ r n -> n + r.n) t.rels 0
let is_empty t = M.is_empty t.rels

(* Incremental union: when one side subsumes the other, its whole [rel]
   record — index cache and fingerprint sums included — is shared.
   Otherwise the result reuses the larger operand's record extended with
   the smaller side's novel tuples: the cached index grows by
   [Index.extend] and the fingerprint sums by the novel tuples' hashes,
   so a growing instance keeps warm buckets and an up-to-date
   fingerprint instead of rebuilding either. *)
let union a b =
  wrap
    (M.union
       (fun rid x y ->
         if x.n >= y.n && TS.subset y.ts x.ts then Some x
         else if y.n >= x.n && TS.subset x.ts y.ts then Some y
         else
           let big, small = if x.n >= y.n then (x, y) else (y, x) in
           let novel = TS.elements (TS.diff small.ts big.ts) in
           let s1, s2 =
             List.fold_left
               (fun (s1, s2) tup ->
                 let h1, h2 = Fact.tuple_hash rid tup in
                 (s1 + h1, s2 + h2))
               (big.s1, big.s2) novel
           in
           let r =
             {
               ts = TS.union big.ts small.ts;
               n = big.n + List.length novel;
               s1;
               s2;
               cache = Cold;
             }
           in
           (match big.cache with
           | Indexed idx -> r.cache <- Indexed (Index.extend idx novel)
           | Grown _ | Listed _ | Cold -> ());
           Some r)
       a.rels b.rels)

(* [union] without the subset and difference work: the caller
   guarantees that no fact is in both operands, so sizes and sums add
   up.  A grown relation extends the larger side's index by the smaller
   side's tuples: at once if that index exists, else on its own first
   probe if the larger side is indexed by then.  That case is the
   semi-naive round's: [full = old ∪ delta] is built before the round's
   units first probe [old], and the next round probes that [full] as its
   [old].  A pending extension is resolved at the next union if its base
   got indexed, and dropped otherwise, so a relation never keeps more
   than the version before it alive. *)
let union_disjoint a b =
  if is_empty b then a
  else if is_empty a then b
  else
    {
      rels =
        M.union
          (fun _ x y ->
            let big, small = if x.n >= y.n then (x, y) else (y, x) in
            let cache =
              match big.cache with
              | Indexed _ | Grown ({ cache = Indexed _; _ }, _) ->
                  Indexed (Index.extend (index_of big) (elements small))
              | Grown _ -> Cold
              | Listed _ | Cold -> Grown (big, small)
            in
            Some
              {
                ts = TS.union big.ts small.ts;
                n = x.n + y.n;
                s1 = x.s1 + y.s1;
                s2 = x.s2 + y.s2;
                cache;
              })
          a.rels b.rels;
      f1 = a.f1 + b.f1;
      f2 = a.f2 + b.f2;
    }

(* Decremental difference, the dual of [union]: a relation that loses
   tuples subtracts their hashes from its fingerprint sums, and a cached
   index shrinks by the removed tuples (see {!Index.shrink}) instead of
   being rebuilt on next use — unless over a quarter of the relation
   goes, where shrinking stops beating a lazy rebuild of the survivors. *)
let diff a b =
  wrap
    (M.merge
       (fun rid x y ->
         match (x, y) with
         | None, _ -> None
         | Some x, None -> Some x
         | Some x, Some y ->
             let gone = TS.inter x.ts y.ts in
             if TS.is_empty gone then Some x
             else
               let k, s1, s2 =
                 TS.fold
                   (fun tup (k, s1, s2) ->
                     let h1, h2 = Fact.tuple_hash rid tup in
                     (k + 1, s1 - h1, s2 - h2))
                   gone (0, x.s1, x.s2)
               in
               if k = x.n then None
               else
                 let cache =
                   match x.cache with
                   | Indexed idx when 4 * k <= x.n ->
                       Indexed (Index.shrink idx (TS.elements gone))
                   | _ -> Cold
                 in
                 Some { ts = TS.diff x.ts gone; n = x.n - k; s1; s2; cache })
       a.rels b.rels)

let inter a b =
  wrap
    (M.merge
       (fun rid x y ->
         match (x, y) with
         | Some x, Some y ->
             let i = TS.inter x.ts y.ts in
             if TS.is_empty i then None else Some (mk rid i)
         | _ -> None)
       a.rels b.rels)

let subset a b =
  M.for_all
    (fun rid r ->
      match M.find_opt rid b.rels with
      | None -> false
      | Some r' -> TS.subset r.ts r'.ts)
    a.rels

let compare a b =
  if a == b then 0
  else M.compare (fun a b -> TS.compare a.ts b.ts) a.rels b.rels

(* fingerprints are a sound fast negative: unequal pairs ⇒ unequal
   instances (equal instances always carry equal sums) *)
let equal a b = a.f1 = b.f1 && a.f2 = b.f2 && compare a b = 0

let fingerprint t = (t.f1, t.f2)
let fingerprint_hex t = Fp.hex t.f1 t.f2

(* the no-empty-relation invariant makes a defensive filter unnecessary *)
let relations t =
  M.fold (fun rid _ acc -> Symtab.name rid :: acc) t.rels []
  |> List.sort String.compare

let find_rel t rel =
  match Symtab.find_opt rel with
  | None -> None
  | Some rid -> M.find_opt rid t.rels

let tuples t rel =
  match find_rel t rel with None -> [] | Some r -> TS.elements r.ts

let cardinal_id t rid =
  match M.find_opt rid t.rels with None -> 0 | Some r -> r.n

let cardinal t rel =
  match find_rel t rel with None -> 0 | Some r -> r.n

let index_id t rid =
  match M.find_opt rid t.rels with None -> None | Some r -> Some (index_of r)

let scan_id t rid =
  match M.find_opt rid t.rels with None -> [] | Some r -> elements r

let index t rel =
  match find_rel t rel with None -> None | Some r -> Some (index_of r)

(* Pick the most selective bound position via the index, scan only its
   bucket, and filter the remaining bound positions. *)
let tuples_with_rel r cs =
  match cs with
  | [] -> TS.elements r.ts
  | [ (p, c) ] -> Index.lookup (index_of r) p c
  | _ ->
      let idx = index_of r in
      let (bp, bc), _ =
        List.fold_left
          (fun ((_, bn) as best) (p, c) ->
            let n = Index.count idx p c in
            if n < bn then ((p, c), n) else best)
          (List.hd cs, max_int)
          cs
      in
      let rest =
        List.filter (fun (p, c) -> p <> bp || not (Const.equal c bc)) cs
      in
      let ok tup =
        List.for_all
          (fun (p, c) -> p < Array.length tup && Const.equal tup.(p) c)
          rest
      in
      List.filter ok (Index.lookup idx bp bc)

let tuples_with t rel cs =
  match find_rel t rel with None -> [] | Some r -> tuples_with_rel r cs

let tuples_with_id t rid cs =
  match M.find_opt rid t.rels with None -> [] | Some r -> tuples_with_rel r cs

let estimate_with_rel r cs =
  let idx = index_of r in
  List.fold_left
    (fun acc (p, c) -> min acc (Index.count idx p c))
    (Index.size idx) cs

let estimate_with t rel cs =
  match find_rel t rel with None -> 0 | Some r -> estimate_with_rel r cs

let estimate_with_id t rid cs =
  match M.find_opt rid t.rels with None -> 0 | Some r -> estimate_with_rel r cs

let adom t =
  M.fold
    (fun _ r s ->
      TS.fold
        (fun tup s -> Array.fold_left (fun s c -> Const.Set.add c s) s tup)
        r.ts s)
    t.rels Const.Set.empty

let map h t = fold (fun f acc -> add (Fact.map h f) acc) t empty

let restrict p t = wrap (M.filter (fun rid _ -> p (Symtab.name rid)) t.rels)
let restrict_schema s t = restrict (Schema.mem s) t

let filter p t = fold (fun f acc -> if p f then add f acc else acc) t empty

let schema t =
  M.fold
    (fun rid r s ->
      match TS.choose_opt r.ts with
      | None -> s
      | Some tup -> Schema.add (Symtab.name rid) (Array.length tup) s)
    t.rels Schema.empty

let rename_apart t =
  let tbl = Hashtbl.create 16 in
  let rename c =
    match Hashtbl.find_opt tbl c with
    | Some c' -> c'
    | None ->
        let c' = Const.fresh () in
        Hashtbl.add tbl c c';
        c'
  in
  map rename t

let pp ppf t = Fmt.pf ppf "{%a}" Fmt.(list ~sep:semi Fact.pp) (facts t)
