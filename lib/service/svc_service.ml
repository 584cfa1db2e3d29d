(* Request dispatch: sessions + cache + deadlines + the domain pool.

   Every request runs the same steps: check the deadline, resolve the
   session, run the verb.  Stats and the state-changing verbs (load,
   rpq-load, assert, retract) run in place; a query verb is planned
   (resolve the session objects into a cache key and a compute thunk),
   looked up in the cache, computed on a miss and stored.  Only
   successful bodies are cached, so a timeout or error never poisons
   the cache.

   [dispatch] serves one request under a regime that decides locking;
   [handle] and [handle_concurrent] are its two regimes.
   [handle_batch] shares the steps up to the cache probe and keeps its
   own tail: it runs them for every request in order (so a load
   followed by an eval of the loaded name works within one batch),
   deduplicates the cache misses by key, runs the [eval]/[holds]/[rpq-*]
   misses — the verbs whose evaluation allocates no fresh constants and
   is therefore safe off the coordinating thread — on the {!Dl_parallel}
   pool grouped by instance (so no two domains race to build one
   instance's lazy indexes), runs the remaining misses on the
   coordinator after the barrier, and stores every success there. *)

open Svc_proto

type t = {
  sessions : (string, Svc_session.t) Hashtbl.t;
  mu : Mutex.t; (* guards [sessions]; held for table ops only *)
  heavy : Mutex.t;
      (* serializes non-worker-safe verbs across socket workers: their
         decision procedures share coordinator-only memo caches *)
  cache : Svc_cache.t;
  parallel : bool; (* batch misses may use the domain pool *)
  quota : (int * float) option; (* per-session (limit, window seconds) *)
  requests : int Atomic.t;
  timeouts : int Atomic.t;
}

let create ?(cache_capacity = 512) ?(parallel = true) ?quota
    ?(quota_window = 1.0) () =
  {
    sessions = Hashtbl.create 8;
    mu = Mutex.create ();
    heavy = Mutex.create ();
    cache = Svc_cache.create cache_capacity;
    parallel;
    quota = Option.map (fun limit -> (limit, quota_window)) quota;
    requests = Atomic.make 0;
    timeouts = Atomic.make 0;
  }

exception Reject of string

(* the session is over its quota: answered [busy], nothing evaluated *)
exception Shed

let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt
let locked t f = Mutex.protect t.mu f

let session t n =
  match locked t (fun () -> Hashtbl.find_opt t.sessions n) with
  | Some s -> s
  | None -> reject "unknown session %S" n

let session_or_create t n =
  locked t (fun () ->
      match Hashtbl.find_opt t.sessions n with
      | Some s -> s
      | None ->
          let s = Svc_session.create n in
          Hashtbl.add t.sessions n s;
          s)

(* A load's payload, parsed into the write it makes to its session; [None]
   for the other verbs. *)
let parse_load = function
  | Load { kind = Kprogram goal; name; text } ->
      let q = Parse.query ~goal text in
      Some
        (fun s ->
          Svc_session.set_program s name q;
          "loaded program " ^ name)
  | Load { kind = Kviews; name; text } ->
      let vs = Parse.views text in
      Some
        (fun s ->
          Svc_session.set_views s name vs;
          "loaded views " ^ name)
  | Load { kind = Kinstance; name; text } ->
      let i = Parse.instance text in
      Some
        (fun s ->
          Svc_session.set_instance s name i;
          "loaded instance " ^ name)
  | Rpq_load { name; text } ->
      let defs = Rpq.parse_defs text in
      Some
        (fun s ->
          Svc_session.set_rpqs s name defs;
          Printf.sprintf "loaded rpq %s defs=%d" name (List.length defs))
  | _ -> None

(* The request's session and, for a load, its parsed write.  The loads
   create their session, only once the payload has parsed, so a failed
   load leaves none behind; every other verb requires it.  No session for
   [stats], the one verb without one. *)
let resolve t req =
  match req.session with
  | None -> (None, None)
  | Some n -> (
      match parse_load req.verb with
      | Some load -> (Some (session_or_create t n), Some load)
      | None -> (Some (session t n), None))

(* ------------------------------------------------------------------ *)
(* Cache keys: the verb joined with the resolved objects' structural
   fingerprints.  That is O(1) per request on the warm path (instances
   carry theirs incrementally, programs and views memoize theirs),
   independent of instance size, and structurally equal objects key
   equally across names and sessions.  Fingerprint parts are fixed-width
   hex (only trailing parts vary in length), so plain concatenation is
   injective.  The test suite checks these keys against digests of the
   objects' canonical printed forms (test/key_oracle.ml). *)

let cache_key parts = String.concat ":" parts
let opt_part = function None -> "-" | Some n -> string_of_int n

let tuple_part = function
  | None -> "-"
  | Some l -> "(" ^ String.concat "," l ^ ")"

(* a view set keys as its named members in order: the name matters (it
   becomes the view relation) as much as the expression *)
let rpq_set_part defs =
  String.concat ";"
    (List.map (fun (n, e) -> n ^ "=" ^ Rpq.fingerprint_hex e) defs)

(* ------------------------------------------------------------------ *)
(* Verb bodies.  Each takes the cancellation token and evaluates with
   the process default engine. *)

let format_tuples = function
  | [] -> "none"
  | tuples ->
      tuples
      |> List.map (fun tup ->
             String.concat "," (List.map Const.to_string (Array.to_list tup)))
      |> List.sort_uniq compare
      |> String.concat ";"

let eval_body ~cancel q i =
  if Datalog.goal_arity q = 0 then
    if Dl_engine.holds_boolean ~cancel q i then "true" else "false"
  else format_tuples (Dl_engine.eval ~cancel q i)

let holds_body ~cancel q i tuple =
  let arity = Datalog.goal_arity q in
  if List.length tuple <> arity then
    reject "tuple has %d constants, goal arity is %d" (List.length tuple)
      arity;
  let tup = Array.of_list (List.map Const.named tuple) in
  if Dl_engine.holds ~cancel q i tup then "true" else "false"

let format_pairs ps = format_tuples (List.map (fun (x, y) -> [| x; y |]) ps)
let format_nodes ns = format_tuples (List.map (fun c -> [| c |]) ns)

(* the optional tuple selects the mode: absent = all pairs, one constant
   = nodes reachable from that source, two = Boolean membership *)
let rpq_eval_body ~cancel e i tuple =
  match tuple with
  | None -> format_pairs (Rpq_translate.eval ~cancel e i)
  | Some [ x ] ->
      format_nodes (Rpq_translate.eval_from ~cancel e i (Const.named x))
  | Some [ x; y ] ->
      if Rpq_translate.holds ~cancel e i (Const.named x) (Const.named y)
      then "true"
      else "false"
  | Some l -> reject "rpq tuple has %d constants, expected 1 or 2"
                (List.length l)

let rpq_rewrite_body ~cancel rw i tuple =
  let answers =
    match tuple with
    | None -> format_pairs (Rpq_views.certain ~cancel rw i)
    | Some [ x ] ->
        format_nodes (Rpq_views.certain_from ~cancel rw i (Const.named x))
    | Some [ x; y ] ->
        if Rpq_views.certain_holds ~cancel rw i (Const.named x) (Const.named y)
        then "true"
        else "false"
    | Some l ->
        reject "rpq tuple has %d constants, expected 1 or 2" (List.length l)
  in
  match rw.Rpq_views.gap with
  | None -> "lossless=true " ^ answers
  | Some w ->
      Printf.sprintf "lossless=false gap=%s %s" (Rpq_nfa.word_to_string w)
        answers

let mondet_body ~cancel q vs depth =
  match Md_decide.decide ?max_depth:depth ~cancel q vs with
  | Md_decide.Determined -> "determined"
  | Md_decide.Not_determined_cert _ -> "not-determined"
  | Md_decide.Bounded_no_failure n -> Printf.sprintf "no-failure-up-to %d" n

let certain_body ~cancel q vs i =
  if Md_separator.certain_answers_cq_views ~cancel q vs i then "true"
  else "false"

(* fixed seed so rewrite-check is reproducible across runs and cache
   hits are honest *)
let rewrite_seed = 20260806

let rewrite_body ~cancel q vs samples =
  if Datalog.goal_arity q <> 0 then
    reject "rewrite-check needs a Boolean goal";
  let n = Option.value samples ~default:8 in
  let r = Md_rewrite.inverse_rules q vs in
  let schema = Datalog.edb_schema q.Datalog.program in
  let insts = Md_rewrite.random_instances ~n ~size:10 ~seed:rewrite_seed schema in
  let rec go i = function
    | [] -> Printf.sprintf "verified samples=%d" n
    | inst :: rest ->
        Dl_cancel.check cancel;
        if
          Dl_engine.holds_boolean ~cancel q inst
          = Dl_engine.holds_boolean ~cancel r (View.image vs inst)
        then go (i + 1) rest
        else Printf.sprintf "failed sample=%d" i
  in
  go 0 insts

let stats_body t =
  Printf.sprintf
    "hits=%d misses=%d entries=%d evictions=%d sessions=%d requests=%d \
     timeouts=%d"
    (Svc_cache.hits t.cache) (Svc_cache.misses t.cache)
    (Svc_cache.entries t.cache)
    (Svc_cache.evictions t.cache)
    (locked t (fun () -> Hashtbl.length t.sessions))
    (Atomic.get t.requests) (Atomic.get t.timeouts)

(* ------------------------------------------------------------------ *)
(* Materialized fixpoints.

   A session may hold, per instance name, a few incrementally maintained
   fixpoints ({!Dl_incr.t}) keyed by the *program* fingerprint (the rule
   set alone — queries differing only in goal share one).  The mutation
   verbs repair them in place; eval answers from a matching one instead
   of recomputing the fixpoint.  A mat is trusted only if it is still
   [valid] (no cancelled repair) and its base fingerprints equal to the
   session's current instance, so a [load instance] replacing the
   contents — or any bug leaving the two out of step — degrades to a
   cold evaluation, never to a wrong answer. *)

let prog_mat_key (q : Datalog.query) =
  let a, b = Datalog.program_fingerprint q.Datalog.program in
  Printf.sprintf "%x:%x" a b

let valid_mat s inst_name (q : Datalog.query) i =
  match Svc_session.mat s inst_name (prog_mat_key q) with
  | Some m
    when Dl_incr.valid m
         && Instance.fingerprint (Dl_incr.base m) = Instance.fingerprint i ->
      Some m
  | _ -> None

(* The mutation body every path runs.  Callers must hold the session
   regime of their path (the concurrent path's session lock; the
   coordinator paths need nothing).  Semantics are atomic per
   request: either the instance and every live materialization reflect
   all the facts, or — on cancellation mid-repair — the instance is
   untouched and the materializations are dropped wholesale (the next
   eval rebuilds one cold), so a timeout can never publish a half-edited
   state. *)
let do_mutate s ~cancel ~asserted inst_name text =
  let i = Svc_session.instance s inst_name in
  let facts = Instance.facts (Parse.instance text) in
  let live =
    List.filter
      (fun (_, m) ->
        Dl_incr.valid m
        && Instance.fingerprint (Dl_incr.base m) = Instance.fingerprint i)
      (Svc_session.mats s inst_name)
  in
  (try
     List.iter
       (fun (_, m) ->
         if asserted then Dl_incr.assert_facts ~cancel m facts
         else Dl_incr.retract_facts ~cancel m facts)
       live
   with e ->
     Svc_session.drop_mats s inst_name;
     raise e);
  let i' =
    match live with
    | (_, m) :: _ -> Dl_incr.base m (* all live mats share the base *)
    | [] ->
        if asserted then
          List.fold_left (fun acc f -> Instance.add f acc) i facts
        else List.fold_left (fun acc f -> Instance.remove f acc) i facts
  in
  Svc_session.set_mats s inst_name live;
  Svc_session.update_instance s inst_name i';
  Printf.sprintf "%s=%d size=%d maintained=%d"
    (if asserted then "added" else "removed")
    (abs (Instance.size i' - Instance.size i))
    (Instance.size i') (List.length live)

(* ------------------------------------------------------------------ *)
(* Exception-to-result mapping.  The deadline is probed before [f] runs,
   so [deadline=0] answers [timeout] before a session is resolved or
   created.  [exec] itself touches no service state, so it is safe on a
   pool worker; counters are updated from the returned result. *)

let exec ~cancel f =
  try
    Dl_cancel.check cancel;
    Ok (f ())
  with
  | Dl_cancel.Cancelled -> Error Timeout
  | Shed -> Error Busy
  | Reject m -> Error (Error_ m)
  | Svc_session.Missing m -> Error (Error_ m)
  | Parse.Error m -> Error (Error_ ("parse error: " ^ m))
  | Rpq.Error m -> Error (Error_ ("rpq parse error: " ^ m))
  | Unsupported.Error m -> Error (Error_ ("unsupported: " ^ m))
  | Invalid_argument m -> Error (Error_ m)
  | Failure m -> Error (Error_ m)

let result_of = function Ok v -> Ok_ v | Error r -> r

let cancel_of req =
  match req.deadline_ms with
  | None -> Dl_cancel.none
  | Some ms -> Dl_cancel.with_deadline_ms ms

(* bookkeeping for one finished request; counters are atomic so both the
   coordinator and the TCP workers may call this *)
let record t result =
  (match result with Timeout -> Atomic.incr t.timeouts | _ -> ());
  result

(* ------------------------------------------------------------------ *)
(* Planning: resolve a query verb against the current session state and
   return the cache key, an instance-identity group tag, whether the
   computation is safe on a pool worker, and the compute thunk. *)

type plan = {
  pkey : string;
  pgroup : string;
      (* instance fingerprint: pool tasks sharing it stay serial *)
  pworker_safe : bool; (* eval/holds only: no fresh constants, no pool *)
  pcompute : unit -> string;
}

let plan ~use_mats s ~cancel req : plan =
  match req.verb with
  | Eval { program; instance } ->
      let q = Svc_session.program s program in
      let i = Svc_session.instance s instance in
      (* Mat-aware evaluation, on the paths whose thunks run under the
         session regime ([use_mats]; the batch pool's workers must not
         touch session state, so batch evals stay mat-blind).  A
         cache-missed tuple-returning eval answers from a matching live
         materialization — O(goal) after a mutation instead of a cold
         fixpoint — and otherwise *creates* one, so the fixpoint it had
         to run anyway keeps paying off across future mutations.
         Boolean goals keep the early-stopping engine path and only read
         a mat when one already exists. *)
      let pcompute () =
        if not use_mats then eval_body ~cancel q i
        else if Datalog.goal_arity q = 0 then
          match valid_mat s instance q i with
          | Some m ->
              if Instance.tuples (Dl_incr.full m) q.Datalog.goal <> [] then
                "true"
              else "false"
          | None -> eval_body ~cancel q i
        else
          let m =
            match valid_mat s instance q i with
            | Some m -> m
            | None ->
                let m = Dl_incr.create ~cancel q.Datalog.program i in
                Svc_session.set_mat s instance (prog_mat_key q) m;
                m
          in
          format_tuples (Instance.tuples (Dl_incr.full m) q.Datalog.goal)
      in
      {
        pkey =
          cache_key
            [ "eval"; Datalog.fingerprint_hex q; Instance.fingerprint_hex i ];
        pgroup = Instance.fingerprint_hex i;
        pworker_safe = true;
        pcompute;
      }
  | Holds { program; instance; tuple } ->
      let q = Svc_session.program s program in
      let i = Svc_session.instance s instance in
      let pcompute () =
        match if use_mats then valid_mat s instance q i else None with
        | Some m ->
            if List.length tuple <> Datalog.goal_arity q then
              reject "tuple has %d constants, goal arity is %d"
                (List.length tuple) (Datalog.goal_arity q);
            if
              Instance.mem
                (Fact.make q.Datalog.goal (List.map Const.named tuple))
                (Dl_incr.full m)
            then "true"
            else "false"
        | None -> holds_body ~cancel q i tuple
      in
      {
        pkey =
          cache_key
            [ "holds"; Datalog.fingerprint_hex q; Instance.fingerprint_hex i;
              String.concat "," tuple ];
        pgroup = Instance.fingerprint_hex i;
        pworker_safe = true;
        pcompute;
      }
  | Mondet_test { program; views; depth } ->
      let q = Svc_session.program s program in
      let vs = Svc_session.views s views in
      {
        pkey =
          cache_key
            [ "mondet-test"; Datalog.fingerprint_hex q; View.fingerprint_hex vs;
              opt_part depth ];
        pgroup = "";
        pworker_safe = false;
        pcompute = (fun () -> mondet_body ~cancel q vs depth);
      }
  | Certain_answers { program; views; instance } ->
      let q = Svc_session.program s program in
      let vs = Svc_session.views s views in
      let i = Svc_session.instance s instance in
      {
        pkey =
          cache_key
            [ "certain-answers"; Datalog.fingerprint_hex q;
              View.fingerprint_hex vs; Instance.fingerprint_hex i ];
        pgroup = "";
        pworker_safe = false;
        pcompute = (fun () -> certain_body ~cancel q vs i);
      }
  | Rewrite_check { program; views; samples } ->
      let q = Svc_session.program s program in
      let vs = Svc_session.views s views in
      {
        pkey =
          cache_key
            [ "rewrite-check"; Datalog.fingerprint_hex q;
              View.fingerprint_hex vs; opt_part samples ];
        pgroup = "";
        pworker_safe = false;
        pcompute = (fun () -> rewrite_body ~cancel q vs samples);
      }
  | Rpq_eval { rpq; instance; tuple } ->
      let e = Svc_session.rpq s rpq in
      let i = Svc_session.instance s instance in
      {
        pkey =
          cache_key
            [ "rpq-eval"; Rpq.fingerprint_hex e; Instance.fingerprint_hex i;
              tuple_part tuple ];
        pgroup = Instance.fingerprint_hex i;
        pworker_safe = true;
        pcompute = (fun () -> rpq_eval_body ~cancel e i tuple);
      }
  | Rpq_rewrite { rpq; views; instance; tuple } ->
      let e = Svc_session.rpq s rpq in
      let vs = Svc_session.rpq_set s views in
      let i = Svc_session.instance s instance in
      {
        pkey =
          cache_key
            [ "rpq-rewrite"; Rpq.fingerprint_hex e; rpq_set_part vs;
              Instance.fingerprint_hex i; tuple_part tuple ];
        pgroup = Instance.fingerprint_hex i;
        pworker_safe = true;
        (* the rewrite construction is pure automata work (Symtab is the
           only shared structure it touches, and that is domain-safe), so
           it rides the worker thunk with the evaluation *)
        pcompute =
          (fun () ->
            rpq_rewrite_body ~cancel (Rpq_views.rewrite ~views:vs e) i tuple);
      }
  | Load _ | Rpq_load _ | Assert _ | Retract _ | Stats ->
      assert false (* run in place by [step] *)

(* ------------------------------------------------------------------ *)
(* The steps every path shares, up to the cache probe. *)

type step = Answer of string | Miss of plan

(* Stats and the state-changing verbs run in place, at the request's
   position; a query verb is planned and looked up.  Mutations are never
   cached (every execution changes state) and require an existing
   session.  [use_mats] is off on the batch path, whose pool workers
   must not touch session state. *)
let step ~use_mats t ~cancel (s, load) req =
  match (req.verb, s) with
  | Stats, _ -> Answer (stats_body t)
  | _, None -> reject "missing session"
  | (Load _ | Rpq_load _), Some s -> Answer ((Option.get load) s)
  | Assert { instance; text }, Some s ->
      Answer (do_mutate s ~cancel ~asserted:true instance text)
  | Retract { instance; text }, Some s ->
      Answer (do_mutate s ~cancel ~asserted:false instance text)
  | _, Some s -> (
      let p = plan ~use_mats s ~cancel req in
      match Svc_cache.find t.cache p.pkey with
      | Some v -> Answer v
      | None -> Miss p)

(* ------------------------------------------------------------------ *)
(* The two regimes of [dispatch].

   [Coordinator] is the stdio loop's and the one-shot CLI's: one
   thread, no locks, no quota, the process default engine.

   [Concurrent] is the TCP and Unix-socket workers' path, safe from
   many domains at once.  Its discipline, in lock order:

   - [t.mu] guards the session table, held for table lookups only;
   - the session mutex is held for the whole of planning and evaluation,
     serializing requests per session — this is what makes the
     session-owned mutable structures (the instances' lazily built index
     caches foremost) safe to touch from many domains, with the mutex
     hand-off providing the publication edge;
   - non-worker-safe verbs (mondet-test, certain-answers, rewrite-check)
     additionally hold [t.heavy]: their decision procedures lean on
     process-global memo tables that are not domain-safe, so at most one
     such computation runs at a time, whatever the session;
   - the cache carries its own lock.  Evaluation runs the process
     default engine, as on the coordinator: every engine's caches
     (compiled programs, demand transformations) are mutex-guarded.

   Per-session quotas shed with [busy] under the session lock, after the
   deadline and before any planning work. *)

type regime = Coordinator | Concurrent

let compute regime t p =
  match regime with
  | Concurrent when not p.pworker_safe -> Mutex.protect t.heavy p.pcompute
  | _ -> p.pcompute ()

let admit t s =
  match t.quota with
  | Some (limit, window)
    when Svc_session.over_quota s ~limit ~window ~now:(Unix.gettimeofday ()) ->
      raise Shed
  | _ -> ()

let dispatch regime t req : response =
  Atomic.incr t.requests;
  let cancel = cancel_of req in
  let result =
    exec ~cancel (fun () ->
        let ((s, _) as resolved) = resolve t req in
        let run () =
          match step ~use_mats:true t ~cancel resolved req with
          | Answer v -> v
          | Miss p ->
              let v = compute regime t p in
              Svc_cache.add t.cache p.pkey v;
              v
        in
        match (regime, s) with
        | Concurrent, Some s ->
            Svc_session.with_lock s (fun () ->
                (* probe again once the lock is won: waiting for it may
                   have used the budget up *)
                Dl_cancel.check cancel;
                admit t s;
                run ())
        | _ -> run ())
  in
  { rid = req.id; result = record t (result_of result) }

let handle t req = dispatch Coordinator t req
let handle_concurrent t req = dispatch Concurrent t req

(* ------------------------------------------------------------------ *)
(* Batched entry point. *)

type cell = {
  cplan : plan;
  ccancel : Dl_cancel.t;
  mutable cout : Svc_proto.result option;
}

type slot =
  | Done of Svc_proto.result
  | Wait of cell (* shared by every request in the batch with this key *)

let run_cell c = c.cout <- Some (result_of (exec ~cancel:c.ccancel c.cplan.pcompute))

let handle_batch t reqs : response list =
  let cells : (string, cell) Hashtbl.t = Hashtbl.create 16 in
  (* every request's steps, in request order *)
  let slots =
    List.map
      (fun req ->
        Atomic.incr t.requests;
        let cancel = cancel_of req in
        match
          exec ~cancel (fun () ->
              step ~use_mats:false t ~cancel (resolve t req) req)
        with
        | Error r -> Done r
        | Ok (Answer v) -> Done (Ok_ v)
        | Ok (Miss p) -> (
            match Hashtbl.find_opt cells p.pkey with
            | Some c -> Wait c
            | None ->
                let c = { cplan = p; ccancel = cancel; cout = None } in
                Hashtbl.add cells p.pkey c;
                Wait c))
      reqs
  in
  (* split the deduplicated misses into pool-safe and sequential work *)
  let pooled, sequential =
    Hashtbl.fold
      (fun _ c (p, s) ->
        if t.parallel && c.cplan.pworker_safe then (c :: p, s) else (p, c :: s))
      cells ([], [])
  in
  (* group pool work by instance so one instance's lazy index caches are
     only ever touched from one domain at a time *)
  let groups : (string, cell list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun c ->
      match Hashtbl.find_opt groups c.cplan.pgroup with
      | Some l -> l := c :: !l
      | None -> Hashtbl.add groups c.cplan.pgroup (ref [ c ]))
    pooled;
  Dl_parallel.run_tasks
    (Hashtbl.fold (fun _ l acc -> (fun () -> List.iter run_cell !l) :: acc) groups []);
  (* remaining misses run on the coordinator after the barrier *)
  List.iter run_cell sequential;
  (* store successes, count timeouts, emit responses in request order *)
  Hashtbl.iter
    (fun key c ->
      match c.cout with
      | Some (Ok_ v) -> Svc_cache.add t.cache key v
      | _ -> ())
    cells;
  List.map2
    (fun req slot ->
      let result =
        match slot with
        | Done r -> r
        | Wait { cout = Some r; _ } -> r
        | Wait { cout = None; _ } -> Error_ "internal: batch cell not computed"
      in
      { rid = req.id; result = record t result })
    reqs slots

(* ------------------------------------------------------------------ *)
(* Line-level entry points.  A line that does not parse answers [error],
   addressed to its first token. *)

let parse_error t (id, msg) =
  Atomic.incr t.requests;
  { rid = id; result = Error_ msg }

let on_line handle t line =
  match parse_request line with
  | Error e -> parse_error t e
  | Ok req -> handle t req

let handle_line t line = on_line handle t line
let handle_line_concurrent t line = on_line handle_concurrent t line

(* Parse errors keep their position in the output; parsed requests go
   through [handle_batch] together. *)
let handle_lines t lines : response list =
  let parsed = List.map parse_request lines in
  let handled =
    ref (handle_batch t (List.filter_map Result.to_option parsed))
  in
  List.map
    (function
      | Error e -> parse_error t e
      | Ok _ -> (
          match !handled with
          | r :: rest ->
              handled := rest;
              r
          | [] -> { rid = "-"; result = Error_ "internal: response underflow" }
          ))
    parsed

let requests t = Atomic.get t.requests
let timeouts t = Atomic.get t.timeouts
let cache t = t.cache
let sessions t = locked t (fun () -> Hashtbl.length t.sessions)
