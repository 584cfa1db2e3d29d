(* The process's domains, in one module: the epoch pool that drains a
   batch of independent tasks (the service's [batch] misses) and the
   long-lived workers of a server's socket loop.  Both share one
   domain-count clamp; nothing here evaluates Datalog.

   Safety rests on the callers: a pool task must confine its writes to
   data it owns (see [run_tasks] in the mli), and the pool's mutex
   hand-off publishes what the caller wrote before a batch to every
   worker, and what the workers wrote back to the caller at the end. *)

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
   batch at a time: [run] publishes a task, bumps the epoch, works on it
   itself, then blocks until every spawned worker has finished.  Workers
   park on [start] between batches, so an idle pool costs nothing.  A
   task must not raise: [run_tasks] catches for its tasks. *)

type pool = {
  size : int;
  mutex : Mutex.t;
  start : Condition.t;
  finished : Condition.t;
  mutable epoch : int;
  mutable task : (unit -> unit) option;
  mutable pending : int;
  mutable closing : bool;
  mutable handles : unit Domain.t list;
}

let rec worker_loop pool seen =
  Mutex.lock pool.mutex;
  while pool.epoch = seen && not pool.closing do
    Condition.wait pool.start pool.mutex
  done;
  if pool.closing then Mutex.unlock pool.mutex
  else begin
    let epoch = pool.epoch in
    let task = match pool.task with Some t -> t | None -> assert false in
    Mutex.unlock pool.mutex;
    task ();
    Mutex.lock pool.mutex;
    pool.pending <- pool.pending - 1;
    if pool.pending = 0 then Condition.signal pool.finished;
    Mutex.unlock pool.mutex;
    worker_loop pool epoch
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
      handles = [];
    }
  in
  pool.handles <-
    List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool 0));
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
   the pool so that tax disappears; the next batch respawns it. *)
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

(* Run one batch: every worker, the caller included, runs [task] once;
   returns once all have finished. *)
let run pool task =
  if pool.size = 1 then task ()
  else begin
    Mutex.lock pool.mutex;
    pool.task <- Some task;
    pool.pending <- pool.size - 1;
    pool.epoch <- pool.epoch + 1;
    Condition.broadcast pool.start;
    Mutex.unlock pool.mutex;
    task ();
    Mutex.lock pool.mutex;
    while pool.pending > 0 do
      Condition.wait pool.finished pool.mutex
    done;
    pool.task <- None;
    Mutex.unlock pool.mutex
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
(* Batch dispatch, for callers with independent coarse-grained tasks (the
   request service's read-only batches).  Tasks are drained off an atomic
   counter by every worker, the caller included; each task must confine
   its effects to its own data — see the safety contract in the mli.  A
   raising task does not stop the batch: its exception is kept, and the
   first one kept re-raises once every task has run. *)

let run_tasks tasks =
  match tasks with
  | [] -> ()
  | [ t ] -> t ()
  | _ ->
      let pool = get_pool (domains ()) in
      let arr = Array.of_list tasks in
      let n = Array.length arr in
      let next = Atomic.make 0 and failed = Atomic.make None in
      run pool (fun () ->
          let rec grab () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              (try arr.(i) ()
               with e -> ignore (Atomic.compare_and_set failed None (Some e)));
              grab ()
            end
          in
          grab ());
      Option.iter raise (Atomic.get failed)
