(* Structurally-hashed LRU result cache.

   Keys are fingerprint compositions built by Svc_service; values are
   the response bodies of successful requests.  A doubly-linked list over
   the hash table's nodes keeps recency order so both lookup and insert
   are O(1).

   Domain-safe: every operation holds the cache's own mutex, so the
   concurrent TCP workers can share one cache.  Critical sections are a
   handful of pointer swaps — nothing evaluates under the lock, so
   contention stays negligible next to request handling. *)

type node = {
  nkey : string;
  nvalue : string;
  mutable prev : node option; (* towards most-recent *)
  mutable next : node option; (* towards least-recent *)
}

type t = {
  capacity : int;
  mu : Mutex.t;
  tbl : (string, node) Hashtbl.t;
  mutable head : node option; (* most recently used *)
  mutable tail : node option; (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create capacity =
  if capacity < 1 then invalid_arg "Svc_cache.create: capacity < 1";
  {
    capacity;
    mu = Mutex.create ();
    tbl = Hashtbl.create 64;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f = Mutex.protect t.mu f

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | Some n ->
          t.hits <- t.hits + 1;
          unlink t n;
          push_front t n;
          Some n.nvalue
      | None ->
          t.misses <- t.misses + 1;
          None)

let add t k v =
  locked t (fun () ->
      (match Hashtbl.find_opt t.tbl k with
      | Some n ->
          unlink t n;
          Hashtbl.remove t.tbl k
      | None -> ());
      let n = { nkey = k; nvalue = v; prev = None; next = None } in
      Hashtbl.replace t.tbl k n;
      push_front t n;
      if Hashtbl.length t.tbl > t.capacity then
        match t.tail with
        | Some last ->
            unlink t last;
            Hashtbl.remove t.tbl last.nkey;
            t.evictions <- t.evictions + 1
        | None -> ())

(* least-recent first, so replaying the fold through [add] reproduces
   both contents and recency order — the snapshot format relies on it *)
let fold_lru t f acc =
  locked t (fun () ->
      let rec go acc = function
        | None -> acc
        | Some n -> go (f n.nkey n.nvalue acc) n.prev
      in
      go acc t.tail)

let mem t k = locked t (fun () -> Hashtbl.mem t.tbl k)
let entries t = locked t (fun () -> Hashtbl.length t.tbl)
let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let evictions t = locked t (fun () -> t.evictions)
