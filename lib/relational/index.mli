(** Secondary hash indexes over one relation's tuples.

    An index maps [(position, constant)] to the tuples holding that constant
    at that position, with O(1) bucket counts so join planners can pick the
    most selective bound position before materializing anything.  Indexes
    are derived data: they are built once from an immutable tuple list and
    cached by {!Instance} alongside the tuple set they describe.  The one
    mutator, {!append}, serves an index that is not cached anywhere: the
    semi-naive round loop's store of derived tuples ([Dl_store]). *)

type t

val build : Const.t array list -> t
(** Build position indexes for the given tuples.  Positions up to the
    maximum arity present are indexed; tuples shorter than a position are
    simply absent from that position's table. *)

val extend : t -> Const.t array list -> t
(** [extend idx tups] is a fresh index over the old tuples plus [tups].
    [tups] must be disjoint from the indexed tuples (counts would be wrong
    otherwise).  Bucket tuple lists are shared with [idx], so the cost is
    O(distinct keys of [idx]) + O(|tups| · arity) — cheaper than a rebuild
    when [tups] is a small delta — and [idx] itself is left untouched. *)

val append : t -> Const.t array list -> unit
(** [append idx tups] adds [tups] to [idx] in place, in
    O(|tups| · arity): each tuple goes to the front of its buckets, so
    every bucket lists the tuples appended last first.  [tups] must be
    disjoint from the indexed tuples.  Only for an index that its owner
    alone holds, such as one built with {!build} by the caller: an
    index cached by {!Instance} is shared by every instance version
    that reaches it. *)

val shrink : t -> Const.t array list -> t
(** [shrink idx tups] is a fresh index over the old tuples minus [tups],
    the dual of {!extend}.  [tups] must be a subset of the indexed tuples
    (counts would be wrong otherwise).  Bucket records are copied and only
    the buckets holding a removed tuple change — each walked up to its
    last removed tuple, sharing the rest, or dropped unwalked when it
    empties — so the cost is O(distinct keys of [idx]) + O(touched bucket
    prefixes); [idx] itself is left untouched.  The shrunk index's {!all}
    is re-derived from its buckets on first request. *)

module TH : Hashtbl.S with type key = Const.t array
(** Hash tables keyed by tuples, with a hash and an equality that
    allocate nothing. *)

val size : t -> int
(** Number of tuples indexed. *)

val all : t -> Const.t array list
(** The indexed tuples, in no particular order. *)

val count : t -> int -> Const.t -> int
(** [count idx p c] is the number of tuples holding [c] at position [p],
    in O(1). *)

val lookup : t -> int -> Const.t -> Const.t array list
(** [lookup idx p c] is the tuples holding [c] at position [p]. *)
