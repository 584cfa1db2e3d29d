(* Domain elements, interned to ints.

   A constant is a tagged symbol id: named constants are even
   ([Symtab] id shifted left), fresh nulls are odd (counter shifted left,
   low bit set).  Comparison, equality and hashing are therefore pure
   integer arithmetic — no string is ever touched on the hot paths of
   joins, homomorphism search, or set union.  The order is intern order
   for named constants (deterministic per process for a fixed input
   sequence), not lexicographic. *)

type t = int

let compare : t -> t -> int = Int.compare
let equal : t -> t -> bool = Int.equal
let hash (c : t) = Fp.mix c
let hash2 (c : t) = Fp.mix (c lxor Fp.seed2)

let named s = Symtab.intern s lsl 1

(* fresh-null generation must be race-free: decision procedures serving
   requests on different domains (chase steps, rename_apart) may
   allocate nulls concurrently *)
let counter = Atomic.make 0

let fresh () =
  let i = 1 + Atomic.fetch_and_add counter 1 in
  (i lsl 1) lor 1

let fresh_reset () = Atomic.set counter 0

let is_fresh c = c land 1 = 1

let name c = if is_fresh c then None else Some (Symtab.name (c asr 1))

let to_string c =
  if is_fresh c then "_" ^ string_of_int (c asr 1) else Symtab.name (c asr 1)

let pp ppf c = Fmt.string ppf (to_string c)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
