(* Cooperative cancellation tokens.

   A token is either the shared never-cancelled [none] (so every fixpoint
   entry point can take a [?cancel] parameter without paying an
   allocation), or a real token carrying an atomic flag and an optional
   wall-clock deadline.  Evaluators probe [check] at safe boundaries —
   semi-naive round starts, chase steps, each DTA step of the automata
   emptiness search ([Run.find]) — so an abort never leaves shared state
   (compiled-rule caches, instance indexes, memoized chase prefixes, DTA
   memo tables) half-written: everything those caches hold at abort time
   was completed before the probe fired. *)

type t = {
  never : bool;  (* the shared [none]: [cancel] is a no-op on it *)
  flag : bool Atomic.t;
  deadline : float option;  (* absolute, Unix.gettimeofday seconds *)
}

exception Cancelled

let none = { never = true; flag = Atomic.make false; deadline = None }

let token () = { never = false; flag = Atomic.make false; deadline = None }

let with_deadline t = { never = false; flag = Atomic.make false; deadline = Some t }

let with_deadline_ms ms =
  with_deadline (Unix.gettimeofday () +. (float_of_int ms /. 1000.))

let cancel t = if not t.never then Atomic.set t.flag true

let cancelled t =
  (not t.never)
  && (Atomic.get t.flag
     ||
     match t.deadline with
     | None -> false
     | Some d -> Unix.gettimeofday () >= d)

let check t = if cancelled t then raise Cancelled

let protect t f = try Ok (f ()) with Cancelled -> cancel t; Error `Cancelled
