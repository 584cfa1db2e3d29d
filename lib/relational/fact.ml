(* Ground facts.  The relation name is interned ([rid]) and a structural
   hash pair is computed once at construction, so set membership and
   fingerprint maintenance never re-hash and never compare strings. *)

type t = {
  rel : string;
  rid : Symtab.sym;
  args : Const.t array;
  h1 : int;
  h2 : int;
}

(* The per-fact hash pair: two independently seeded position-sensitive
   folds over the relation id and the argument ids.  [Instance] uses the
   same function on raw tuples, so a fact's cached pair and a tuple's
   recomputed pair always agree. *)
let tuple_hash rid (args : Const.t array) =
  let h1 = ref (Fp.mix (Fp.seed1 lxor rid))
  and h2 = ref (Fp.mix (Fp.seed2 lxor rid)) in
  for i = 0 to Array.length args - 1 do
    let c = Array.unsafe_get args i in
    h1 := Fp.step !h1 (Const.hash c);
    h2 := Fp.step !h2 (Const.hash2 c)
  done;
  (!h1, !h2)

let of_interned rid args =
  let h1, h2 = tuple_hash rid args in
  { rel = Symtab.name rid; rid; args; h1; h2 }

(* Callers hand over ownership of [args]: the array must not be mutated
   afterwards (the cached hashes would go stale). *)
let of_array rel args =
  let rid = Symtab.intern rel in
  let h1, h2 = tuple_hash rid args in
  { rel; rid; args; h1; h2 }

let make_arr = of_array
let make rel args = of_array rel (Array.of_list args)

(* Top-level loops, not a local closure: tuple comparison runs in every
   set probe of a fixpoint round and must allocate nothing. *)
let rec compare_from (a : Const.t array) b i n =
  if i = n then 0
  else
    let c = Const.compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
    if c <> 0 then c else compare_from a b (i + 1) n

let compare_args (a : Const.t array) b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else compare_from a b 0 la

let compare a b =
  let c = Int.compare a.rid b.rid in
  if c <> 0 then c else compare_args a.args b.args

(* the cached hash rejects unequal facts without looking at the arrays *)
let equal a b = a.h1 = b.h1 && a.h2 = b.h2 && compare a b = 0

let hash f = f.h1
let hash_pair f = (f.h1, f.h2)
let arity f = Array.length f.args
let map h f = of_interned f.rid (Array.map h f.args)

let consts f = Array.fold_left (fun s c -> Const.Set.add c s) Const.Set.empty f.args

let pp ppf f =
  if Array.length f.args = 0 then Fmt.string ppf f.rel
  else Fmt.pf ppf "%s(%a)" f.rel Fmt.(array ~sep:comma Const.pp) f.args

let to_string f = Fmt.str "%a" pp f

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
