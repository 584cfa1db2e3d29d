(* Parallel semi-naive fixpoint: shard each round's (rule × delta-position
   × delta-chunk) firing set across a persistent pool of domains.

   Safety argument, in one place:

   - the shared round instances ([old], [full], the delta chunks) are
     persistent maps; the only mutable field reachable from them is the
     per-relation index cache, which [pooled] fills on the coordinating
     thread before dispatch, so workers are pure readers;
   - each worker derives into a private accumulator instance;
   - the pool's mutex hand-off publishes everything the coordinator wrote
     before the round to every worker, and everything the workers wrote
     back to the coordinator at the barrier;
   - the early-stop flag is an [Atomic.t].

   Determinism argument: the chunks partition the delta, so the units of a
   round cover exactly the matches the sequential scheduler's round
   ([Dl_semi.sequential]) enumerates, each exactly once across units; the
   barrier merge is a set union; hence every round's delta — and
   therefore the fixpoint — is identical for every domain count and
   schedule. *)

(* ------------------------------------------------------------------ *)
(* Domain-count configuration: --domains > MONDET_DOMAINS > recommended. *)

let clamp n = max 1 (min n 64)

let env_domains =
  lazy
    (match Sys.getenv_opt "MONDET_DOMAINS" with
    | None -> None
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n -> Some (clamp n)
        | None ->
            Printf.eprintf
              "mondet: ignoring MONDET_DOMAINS=%S (expected an integer)\n%!" s;
            None))

let requested : int option ref = ref None

let set_domains n = requested := Some (clamp n)

let domains () =
  match !requested with
  | Some n -> n
  | None -> (
      match Lazy.force env_domains with
      | Some n -> n
      | None -> clamp (Domain.recommended_domain_count ()))

(* ------------------------------------------------------------------ *)
(* A persistent pool of [size - 1] spawned domains plus the caller.  One
   batch at a time: [run] publishes a task, bumps the epoch, works as
   worker 0 itself, then blocks until every spawned worker has finished.
   Workers park on [start] between batches, so an idle pool costs
   nothing. *)

type pool = {
  size : int;
  mutex : Mutex.t;
  start : Condition.t;
  finished : Condition.t;
  mutable epoch : int;
  mutable task : (int -> unit) option;
  mutable pending : int;
  mutable closing : bool;
  mutable errors : exn list;
  mutable handles : unit Domain.t list;
}

let rec worker_loop pool i seen =
  Mutex.lock pool.mutex;
  while pool.epoch = seen && not pool.closing do
    Condition.wait pool.start pool.mutex
  done;
  if pool.closing then Mutex.unlock pool.mutex
  else begin
    let epoch = pool.epoch in
    let task = match pool.task with Some t -> t | None -> assert false in
    Mutex.unlock pool.mutex;
    let err = try task i; None with exn -> Some exn in
    Mutex.lock pool.mutex;
    (match err with Some e -> pool.errors <- e :: pool.errors | None -> ());
    pool.pending <- pool.pending - 1;
    if pool.pending = 0 then Condition.signal pool.finished;
    Mutex.unlock pool.mutex;
    worker_loop pool i epoch
  end

let make_pool size =
  let pool =
    {
      size;
      mutex = Mutex.create ();
      start = Condition.create ();
      finished = Condition.create ();
      epoch = 0;
      task = None;
      pending = 0;
      closing = false;
      errors = [];
      handles = [];
    }
  in
  pool.handles <-
    List.init (size - 1) (fun k ->
        Domain.spawn (fun () -> worker_loop pool (k + 1) 0));
  pool

let shutdown_pool pool =
  Mutex.lock pool.mutex;
  pool.closing <- true;
  Condition.broadcast pool.start;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.handles;
  pool.handles <- []

let the_pool : pool option ref = ref None
let at_exit_registered = ref false

(* Even parked domains cost: every minor collection is a stop-the-world
   synchronization across all live domains, so a single-threaded phase
   that runs while the pool idles pays a per-GC tax.  [shutdown] joins
   the pool so that tax disappears; the next parallel call respawns. *)
let shutdown () =
  match !the_pool with
  | Some p ->
      the_pool := None;
      shutdown_pool p
  | None -> ()

let get_pool size =
  match !the_pool with
  | Some p when p.size = size -> p
  | _ ->
      shutdown ();
      let p = make_pool size in
      the_pool := Some p;
      if not !at_exit_registered then begin
        at_exit_registered := true;
        (* parked domains must be woken and joined before the runtime
           tears down, or exit can block on them *)
        at_exit shutdown
      end;
      p

(* Run one batch: every worker (the caller included) executes [task] with
   its worker index; returns once all have finished, re-raising the first
   exception any of them recorded. *)
let run pool task =
  if pool.size = 1 then task 0
  else begin
    Mutex.lock pool.mutex;
    pool.task <- Some task;
    pool.pending <- pool.size - 1;
    pool.errors <- [];
    pool.epoch <- pool.epoch + 1;
    Condition.broadcast pool.start;
    Mutex.unlock pool.mutex;
    let main_err = try task 0; None with exn -> Some exn in
    Mutex.lock pool.mutex;
    while pool.pending > 0 do
      Condition.wait pool.finished pool.mutex
    done;
    pool.task <- None;
    let errors = pool.errors in
    Mutex.unlock pool.mutex;
    match main_err with
    | Some e -> raise e
    | None -> ( match errors with e :: _ -> raise e | [] -> ())
  end

(* ------------------------------------------------------------------ *)
(* Long-lived workers: a handle over [Domain.spawn]/[Domain.join] for
   callers that need domains running their own loops for the life of a
   server rather than sharing the epoch pool's batch discipline (the TCP
   front-end's connection workers).  Kept here so every domain the
   process ever spawns goes through one module — the count shares the
   same clamp, and the pool/worker split stays visible in one place. *)

type workers = { wdomains : unit Domain.t array }

let spawn_workers n body =
  let n = clamp n in
  { wdomains = Array.init n (fun i -> Domain.spawn (fun () -> body i)) }

let worker_count w = Array.length w.wdomains

let join_workers w =
  let err = ref None in
  Array.iter
    (fun d ->
      try Domain.join d
      with e -> if !err = None then err := Some e)
    w.wdomains;
  match !err with Some e -> raise e | None -> ()

(* ------------------------------------------------------------------ *)
(* The pool scheduler. *)

(* Split [delta] round-robin into [k] chunks of at least two facts each.
   Tiny deltas are not worth the per-chunk planner overhead. *)
let split_delta k delta =
  if k <= 1 || Instance.size delta < 2 * k then [| delta |]
  else begin
    let parts = Array.make k Instance.empty in
    let i = ref 0 in
    Instance.iter
      (fun f ->
        let j = !i mod k in
        parts.(j) <- Instance.add f parts.(j);
        incr i)
      delta;
    parts
  end

(* The pool scheduler of the {!Dl_semi} round loop.  Per fixpoint: the
   pool and the body relations to prewarm.  Per round: the delta split
   into chunks, the units collected into an array and drained off an
   atomic counter by every worker into a private accumulator, and the
   accumulators merged at the barrier.  A one-worker pool is the
   sequential scheduler.  A [Cancelled] raised by a unit's cancel probe
   goes through the pool's error list and re-raises at the barrier. *)
let pooled shape rules (m : _ Dl_semi.matcher) =
  let n = domains () in
  if n = 1 then Dl_semi.sequential shape rules m
  else begin
    let pool = get_pool n in
    let body_rels =
      List.sort_uniq Int.compare
        (List.concat_map (fun r -> (shape r : Dl_plan.crule).crels) rules)
    in
    fun (r : Dl_semi.round) ->
      let chunks = split_delta (2 * n) r.delta in
      (* build every index a worker could touch here, on the coordinating
         thread, so the parallel phase never writes a shared cache *)
      List.iter
        (fun inst ->
          List.iter (fun rid -> ignore (Instance.index_id inst rid)) body_rels)
        (r.full :: r.old :: Array.to_list chunks);
      let units = ref [] in
      Dl_semi.iter_units shape rules ~old:r.old ~delta:r.delta chunks
        (fun rule pos chunk ->
          units := (rule, pos, chunk) :: !units;
          true);
      let units = Array.of_list !units in
      let next = Atomic.make 0 and accs = Array.make n Instance.empty in
      run pool (fun w ->
          let acc = ref Instance.empty in
          let emit = r.emit_into acc in
          let rec grab () =
            let u = Atomic.fetch_and_add next 1 in
            if u < Array.length units && not (Atomic.get r.stopped) then begin
              let rule, pos, chunk = units.(u) in
              m rule pos ~old:r.old ~delta:chunk ~full:r.full emit;
              grab ()
            end
          in
          grab ();
          accs.(w) <- !acc);
      Array.fold_left Instance.union Instance.empty accs
  end

let engine = { Dl_vm.engine with Dl_semi.schedule = pooled }
let fixpoint ?stop ?cancel p inst = Dl_semi.fixpoint engine ?stop ?cancel p inst

let fixpoint_delta ?cancel p ~old ~delta =
  Dl_semi.fixpoint_delta engine ?cancel p ~old ~delta

let eval ?cancel q inst = Dl_semi.eval engine ?cancel q inst
let holds ?cancel q inst tup = Dl_semi.holds engine ?cancel q inst tup
let holds_boolean ?cancel q inst = Dl_semi.holds_boolean engine ?cancel q inst

(* ------------------------------------------------------------------ *)
(* Generic batch dispatch over the same pool, for callers with
   independent coarse-grained tasks (the request service's read-only
   batches).  Tasks are drained off an atomic counter by every worker
   (the caller included); each task must confine its effects to its own
   data — see the safety contract in the mli. *)

let run_tasks tasks =
  match tasks with
  | [] -> ()
  | [ t ] -> t ()
  | _ ->
      let pool = get_pool (domains ()) in
      let arr = Array.of_list tasks in
      let n = Array.length arr in
      let next = Atomic.make 0 in
      run pool (fun _ ->
          let rec grab () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              arr.(i) ();
              grab ()
            end
          in
          grab ())
