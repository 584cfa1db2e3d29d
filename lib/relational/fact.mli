(** Ground facts [R(c1,...,cn)].

    A fact carries its interned relation id and a cached structural hash
    pair, both fixed at construction; {!compare} orders by relation id
    (intern order, not alphabetical), and {!equal} rejects unequal facts
    by hash before touching the argument arrays. *)

type t = private {
  rel : string;
  rid : Symtab.sym;  (** interned [rel] *)
  args : Const.t array;
  h1 : int;  (** cached structural hash, first stream *)
  h2 : int;  (** second stream, for 126-bit fingerprints *)
}

val make : string -> Const.t list -> t

val of_array : string -> Const.t array -> t
(** Array-based constructor for hot paths: no intermediate list.  The
    caller hands over ownership of the array — it must not be mutated
    afterwards, or the cached hashes go stale. *)

val make_arr : string -> Const.t array -> t
(** Alias of {!of_array}. *)

val of_interned : Symtab.sym -> Const.t array -> t
(** Like {!of_array} with the relation already interned (the id must come
    from {!Symtab.intern}); skips the symbol-table lookup. *)

val tuple_hash : Symtab.sym -> Const.t array -> int * int
(** The structural hash pair of the fact [rid(args)], without building
    the fact — {!Instance} fingerprints raw tuples with this. *)

val compare_args : Const.t array -> Const.t array -> int
(** The tuple order: by length, then position by position in
    {!Const.compare} order.  Allocates nothing. *)

val compare : t -> t -> int
(** By relation id, then {!compare_args} on the arguments. *)

val equal : t -> t -> bool
val hash : t -> int
val hash_pair : t -> int * int
val arity : t -> int

val map : (Const.t -> Const.t) -> t -> t
(** [map h f] applies [h] to every argument of [f]. *)

val consts : t -> Const.Set.t
val pp : t Fmt.t
val to_string : t -> string

module Set : Set.S with type elt = t
