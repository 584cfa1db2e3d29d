(* Request dispatch: sessions + cache + deadlines + the domain pool.

   Every request is handled in three steps: plan (resolve the session
   objects and build a cache key and a compute thunk), look up the
   cache, compute on a miss.  Only successful bodies are cached, so a
   timeout or error never poisons the cache.

   [handle_batch] preserves per-line order semantics while extracting
   parallelism: a sequential planning pass executes loads and stats and
   resolves every query verb against the session state *at its position
   in the batch* (so a load followed by an eval of the loaded name works
   within one batch); cache-missed [eval]/[holds] requests — the only
   verbs whose evaluation allocates no fresh constants and is therefore
   safe off the coordinating thread — are deduplicated by cache key,
   grouped by instance (so no two domains race to build one instance's
   lazy indexes), and run on the {!Dl_parallel} pool under the [Indexed]
   strategy (workers must not re-enter the pool).  The remaining misses
   run sequentially after the barrier, and all cache stores and counter
   updates happen on the coordinating thread. *)

open Svc_proto

type key_mode = Fingerprint | Printed

type t = {
  sessions : (string, Svc_session.t) Hashtbl.t;
  mu : Mutex.t; (* guards [sessions]; held for table ops only *)
  heavy : Mutex.t;
      (* serializes non-worker-safe verbs across TCP workers: their
         decision procedures share coordinator-only memo caches *)
  cache : Svc_cache.t;
  parallel : bool; (* batch misses may use the domain pool *)
  key_mode : key_mode;
  quota : (int * float) option; (* per-session (limit, window seconds) *)
  requests : int Atomic.t;
  timeouts : int Atomic.t;
}

(* [MONDET_CACHE_KEY=printed] forces the legacy print-then-digest keys —
   the differential oracle for the fingerprint keys. *)
let default_key_mode () =
  match Sys.getenv_opt "MONDET_CACHE_KEY" with
  | Some s when String.lowercase_ascii (String.trim s) = "printed" -> Printed
  | _ -> Fingerprint

let create ?(cache_capacity = 512) ?(parallel = true) ?key_mode ?quota
    ?(quota_window = 1.0) () =
  {
    sessions = Hashtbl.create 8;
    mu = Mutex.create ();
    heavy = Mutex.create ();
    cache = Svc_cache.create cache_capacity;
    parallel;
    key_mode =
      (match key_mode with Some m -> m | None -> default_key_mode ());
    quota = Option.map (fun limit -> (limit, quota_window)) quota;
    requests = Atomic.make 0;
    timeouts = Atomic.make 0;
  }

exception Reject of string

let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

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

(* session of a request; the protocol parser guarantees [Some] except
   for [Stats] *)
let req_session req =
  match req.session with Some s -> s | None -> reject "missing session"

(* ------------------------------------------------------------------ *)
(* Canonical forms for cache keys.

   In the default [Fingerprint] mode a key is the verb joined with the
   resolved objects' structural fingerprints — O(1) per request on the
   warm path (instances carry theirs incrementally, programs and views
   memoize theirs), independent of instance size, and structurally equal
   objects still key equally across names and sessions.

   [Printed] mode keeps the legacy scheme — digest the canonical
   pretty-printed forms ([Datalog.pp_query] and [Instance.pp] are
   deterministic: rules in order, fact sets sorted) — as a differential
   oracle: both modes must produce the same hit/miss trace on any
   workload, which the test suite checks. *)

let query_repr q = Fmt.str "%a" Datalog.pp_query q
let instance_repr i = Fmt.str "%a" Instance.pp i
let views_repr vs = Fmt.str "%a" View.pp_collection vs
let opt_repr = function None -> "-" | Some n -> string_of_int n

let query_key t q =
  match t.key_mode with
  | Fingerprint -> Datalog.fingerprint_hex q
  | Printed -> query_repr q

let instance_key t i =
  match t.key_mode with
  | Fingerprint -> Instance.fingerprint_hex i
  | Printed -> instance_repr i

let views_key t vs =
  match t.key_mode with
  | Fingerprint -> View.fingerprint_hex vs
  | Printed -> views_repr vs

let rpq_key t e =
  match t.key_mode with
  | Fingerprint -> Rpq.fingerprint_hex e
  | Printed -> Rpq.to_string e

(* a view set keys as its named members in order: the name matters (it
   becomes the view relation) as much as the expression *)
let rpq_set_key t defs =
  String.concat ";" (List.map (fun (n, e) -> n ^ "=" ^ rpq_key t e) defs)

let tuple_repr = function
  | None -> "-"
  | Some l -> "(" ^ String.concat "," l ^ ")"

(* Fingerprint parts are fixed-width hex (only trailing parts vary in
   length), so plain concatenation is already injective and the digest
   step of the legacy scheme is dropped entirely. *)
let cache_key t parts =
  match t.key_mode with
  | Fingerprint -> String.concat ":" parts
  | Printed -> Svc_cache.key parts

(* ------------------------------------------------------------------ *)
(* Verb bodies.  Each takes the cancellation token and (where evaluation
   strategy matters) an optional engine override used by the batch pool. *)

let format_tuples = function
  | [] -> "none"
  | tuples ->
      tuples
      |> List.map (fun tup ->
             String.concat "," (List.map Const.to_string (Array.to_list tup)))
      |> List.sort_uniq compare
      |> String.concat ";"

let eval_body ?strategy ~cancel q i =
  if Datalog.goal_arity q = 0 then
    if Dl_engine.holds_boolean ?strategy ~cancel q i then "true" else "false"
  else format_tuples (Dl_engine.eval ?strategy ~cancel q i)

let holds_body ?strategy ~cancel q i tuple =
  let arity = Datalog.goal_arity q in
  if List.length tuple <> arity then
    reject "tuple has %d constants, goal arity is %d" (List.length tuple)
      arity;
  let tup = Array.of_list (List.map Const.named tuple) in
  if Dl_engine.holds ?strategy ~cancel q i tup then "true" else "false"

let format_pairs ps = format_tuples (List.map (fun (x, y) -> [| x; y |]) ps)
let format_nodes ns = format_tuples (List.map (fun c -> [| c |]) ns)

(* the optional tuple selects the mode: absent = all pairs, one constant
   = nodes reachable from that source, two = Boolean membership *)
let rpq_eval_body ?strategy ~cancel e i tuple =
  match tuple with
  | None -> format_pairs (Rpq_translate.eval ?strategy ~cancel e i)
  | Some [ x ] ->
      format_nodes
        (Rpq_translate.eval_from ?strategy ~cancel e i (Const.named x))
  | Some [ x; y ] ->
      if
        Rpq_translate.holds ?strategy ~cancel e i (Const.named x)
          (Const.named y)
      then "true"
      else "false"
  | Some l -> reject "rpq tuple has %d constants, expected 1 or 2"
                (List.length l)

let rpq_rewrite_body ?strategy ~cancel rw i tuple =
  let answers =
    match tuple with
    | None -> format_pairs (Rpq_views.certain ?strategy ~cancel rw i)
    | Some [ x ] ->
        format_nodes
          (Rpq_views.certain_from ?strategy ~cancel rw i (Const.named x))
    | Some [ x; y ] ->
        if
          Rpq_views.certain_holds ?strategy ~cancel rw i (Const.named x)
            (Const.named y)
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

let mondet_body ?strategy ~cancel q vs depth =
  match Md_decide.decide ?max_depth:depth ?engine:strategy ~cancel q vs with
  | Md_decide.Determined -> "determined"
  | Md_decide.Not_determined_cert _ -> "not-determined"
  | Md_decide.Bounded_no_failure n -> Printf.sprintf "no-failure-up-to %d" n

let certain_body ?strategy ~cancel q vs i =
  if Md_separator.certain_answers_cq_views ?engine:strategy ~cancel q vs i
  then "true"
  else "false"

(* fixed seed so rewrite-check is reproducible across runs and cache
   hits are honest *)
let rewrite_seed = 20260806

let rewrite_body ?strategy ~cancel q vs samples =
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
          Dl_engine.holds_boolean ?strategy ~cancel q inst
          = Dl_engine.holds_boolean ?strategy ~cancel r (View.image vs inst)
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

(* The mutation body shared by all three entry points.  Callers must
   hold the session regime of their path (the concurrent path's session
   lock; the coordinator paths need nothing).  Semantics are atomic per
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
(* Exception-to-result mapping.  Pure: no service state is touched, so
   it is safe to run on a pool worker; counters are updated by the
   coordinator from the returned result. *)

let exec ~cancel f =
  try
    Dl_cancel.check cancel;
    Ok_ (f ())
  with
  | Dl_cancel.Cancelled -> Timeout
  | Reject m -> Error_ m
  | Svc_session.Missing m -> Error_ m
  | Parse.Error m -> Error_ ("parse error: " ^ m)
  | Rpq.Error m -> Error_ ("rpq parse error: " ^ m)
  | Md_rewrite.Unsupported m | Md_decide.Unsupported m ->
      Error_ ("unsupported: " ^ m)
  | Invalid_argument m -> Error_ m
  | Failure m -> Error_ m

let cancel_of req =
  match req.deadline_ms with
  | None -> Dl_cancel.none
  | Some ms -> Dl_cancel.with_deadline_ms ms

(* ------------------------------------------------------------------ *)
(* Planning: resolve a query verb against the current session state and
   return the cache key, an instance-identity group tag, whether the
   computation is safe on a pool worker, and the compute thunk. *)

type plan = {
  pkey : string;
  pgroup : string;
      (* instance fingerprint: pool tasks sharing it stay serial *)
  pworker_safe : bool; (* eval/holds only: no fresh constants, no pool *)
  pcompute : Dl_engine.strategy option -> string;
}

let plan_in ?(use_mats = false) t s ~cancel req : plan =
  match req.verb with
  | Eval { program; instance } ->
      let q = Svc_session.program s program in
      let i = Svc_session.instance s instance in
      (* Mat-aware evaluation, on the entry points whose thunks run under
         the session regime ([use_mats]; the batch pool's workers must
         not touch session state, so batch evals stay mat-blind).  A
         cache-missed tuple-returning eval answers from a matching live
         materialization — O(goal) after a mutation instead of a cold
         fixpoint — and otherwise *creates* one, so the fixpoint it had
         to run anyway keeps paying off across future mutations.
         Boolean goals keep the early-stopping engine path and only read
         a mat when one already exists. *)
      let pcompute strategy =
        if not use_mats then eval_body ?strategy ~cancel q i
        else if Datalog.goal_arity q = 0 then
          match valid_mat s instance q i with
          | Some m ->
              if Instance.tuples (Dl_incr.full m) q.Datalog.goal <> [] then
                "true"
              else "false"
          | None -> eval_body ?strategy ~cancel q i
        else
          let m =
            match valid_mat s instance q i with
            | Some m -> m
            | None ->
                let m =
                  Dl_incr.create ?strategy ~cancel q.Datalog.program i
                in
                Svc_session.set_mat s instance (prog_mat_key q) m;
                m
          in
          format_tuples (Instance.tuples (Dl_incr.full m) q.Datalog.goal)
      in
      {
        pkey = cache_key t [ "eval"; query_key t q; instance_key t i ];
        pgroup = Instance.fingerprint_hex i;
        pworker_safe = true;
        pcompute;
      }
  | Holds { program; instance; tuple } ->
      let q = Svc_session.program s program in
      let i = Svc_session.instance s instance in
      let pcompute strategy =
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
        | None -> holds_body ?strategy ~cancel q i tuple
      in
      {
        pkey =
          cache_key t
            [ "holds"; query_key t q; instance_key t i;
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
          cache_key t
            [ "mondet-test"; query_key t q; views_key t vs; opt_repr depth ];
        pgroup = "";
        pworker_safe = false;
        pcompute = (fun strategy -> mondet_body ?strategy ~cancel q vs depth);
      }
  | Certain_answers { program; views; instance } ->
      let q = Svc_session.program s program in
      let vs = Svc_session.views s views in
      let i = Svc_session.instance s instance in
      {
        pkey =
          cache_key t
            [ "certain-answers"; query_key t q; views_key t vs;
              instance_key t i ];
        pgroup = "";
        pworker_safe = false;
        pcompute = (fun strategy -> certain_body ?strategy ~cancel q vs i);
      }
  | Rewrite_check { program; views; samples } ->
      let q = Svc_session.program s program in
      let vs = Svc_session.views s views in
      {
        pkey =
          cache_key t
            [ "rewrite-check"; query_key t q; views_key t vs;
              opt_repr samples ];
        pgroup = "";
        pworker_safe = false;
        pcompute = (fun strategy -> rewrite_body ?strategy ~cancel q vs samples);
      }
  | Rpq_eval { rpq; instance; tuple } ->
      let e = Svc_session.rpq s rpq in
      let i = Svc_session.instance s instance in
      {
        pkey =
          cache_key t
            [ "rpq-eval"; rpq_key t e; instance_key t i; tuple_repr tuple ];
        pgroup = Instance.fingerprint_hex i;
        pworker_safe = true;
        pcompute = (fun strategy -> rpq_eval_body ?strategy ~cancel e i tuple);
      }
  | Rpq_rewrite { rpq; views; instance; tuple } ->
      let e = Svc_session.rpq s rpq in
      let vs = Svc_session.rpq_set s views in
      let i = Svc_session.instance s instance in
      {
        pkey =
          cache_key t
            [ "rpq-rewrite"; rpq_key t e; rpq_set_key t vs; instance_key t i;
              tuple_repr tuple ];
        pgroup = Instance.fingerprint_hex i;
        pworker_safe = true;
        (* the rewrite construction is pure automata work (Symtab is the
           only shared structure it touches, and that is domain-safe), so
           it rides the worker thunk with the evaluation *)
        pcompute =
          (fun strategy ->
            rpq_rewrite_body ?strategy ~cancel (Rpq_views.rewrite ~views:vs e)
              i tuple);
      }
  | Load _ | Rpq_load _ | Assert _ | Retract _ | Stats ->
      assert false (* handled before planning *)

let plan ?use_mats t ~cancel req : plan =
  plan_in ?use_mats t (session t (req_session req)) ~cancel req

let do_load_in s kind name text =
  match kind with
  | Kprogram goal ->
      Svc_session.set_program s name (Parse.query ~goal text);
      "loaded program " ^ name
  | Kviews ->
      Svc_session.set_views s name (Parse.views text);
      "loaded views " ^ name
  | Kinstance ->
      Svc_session.set_instance s name (Parse.instance text);
      "loaded instance " ^ name

let do_load t sess kind name text =
  do_load_in (session_or_create t sess) kind name text

let do_rpq_load_in s name text =
  let defs = Rpq.parse_defs text in
  Svc_session.set_rpqs s name defs;
  Printf.sprintf "loaded rpq %s defs=%d" name (List.length defs)

let do_rpq_load t sess name text =
  do_rpq_load_in (session_or_create t sess) name text

(* bookkeeping for one finished request; counters are atomic so both the
   coordinator and the TCP workers may call this *)
let record t result =
  (match result with Timeout -> Atomic.incr t.timeouts | _ -> ());
  result

(* ------------------------------------------------------------------ *)
(* Single-request entry point (used by the stdio loop and the CLI's
   one-shot [batch] fallback path). *)

let handle t req : response =
  Atomic.incr t.requests;
  let cancel = cancel_of req in
  let result =
    match req.verb with
    | Load { kind; name; text } ->
        exec ~cancel (fun () -> do_load t (req_session req) kind name text)
    | Rpq_load { name; text } ->
        exec ~cancel (fun () -> do_rpq_load t (req_session req) name text)
    | Assert { instance; text } ->
        (* mutations are never cached (they change state, every execution
           matters) and require an existing session *)
        exec ~cancel (fun () ->
            do_mutate (session t (req_session req)) ~cancel ~asserted:true
              instance text)
    | Retract { instance; text } ->
        exec ~cancel (fun () ->
            do_mutate (session t (req_session req)) ~cancel ~asserted:false
              instance text)
    | Stats -> exec ~cancel (fun () -> stats_body t)
    | _ -> (
        (* plan under [exec] too: a missing object or an instantly
           expired deadline is decided before any evaluation *)
        let planned = ref None in
        match
          exec ~cancel (fun () ->
              planned := Some (plan ~use_mats:true t ~cancel req);
              "")
        with
        | (Error_ _ | Timeout | Busy) as r -> r
        | Ok_ _ -> (
            let p = Option.get !planned in
            match Svc_cache.find t.cache p.pkey with
            | Some v -> Ok_ v
            | None -> (
                match exec ~cancel (fun () -> p.pcompute None) with
                | Ok_ v ->
                    Svc_cache.add t.cache p.pkey v;
                    Ok_ v
                | r -> r)))
  in
  { rid = req.id; result = record t result }

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

let handle_batch t reqs : response list =
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let slots = Array.make n (Done (Error_ "unhandled")) in
  let cells : (string, cell) Hashtbl.t = Hashtbl.create 16 in
  (* sequential planning pass, in request order *)
  for idx = 0 to n - 1 do
    let req = reqs.(idx) in
    Atomic.incr t.requests;
    let cancel = cancel_of req in
    match req.verb with
    | Load { kind; name; text } ->
        slots.(idx) <-
          Done
            (exec ~cancel (fun () -> do_load t (req_session req) kind name text))
    | Rpq_load { name; text } ->
        slots.(idx) <-
          Done
            (exec ~cancel (fun () -> do_rpq_load t (req_session req) name text))
    | Assert { instance; text } ->
        (* executed at its batch position like a load, so later verbs in
           the batch plan against the mutated instance *)
        slots.(idx) <-
          Done
            (exec ~cancel (fun () ->
                 do_mutate (session t (req_session req)) ~cancel
                   ~asserted:true instance text))
    | Retract { instance; text } ->
        slots.(idx) <-
          Done
            (exec ~cancel (fun () ->
                 do_mutate (session t (req_session req)) ~cancel
                   ~asserted:false instance text))
    | Stats -> slots.(idx) <- Done (exec ~cancel (fun () -> stats_body t))
    | _ -> (
        let planned = ref None in
        match
          exec ~cancel (fun () ->
              planned := Some (plan t ~cancel req);
              "")
        with
        | (Error_ _ | Timeout | Busy) as r -> slots.(idx) <- Done r
        | Ok_ _ -> (
            let p = Option.get !planned in
            match Svc_cache.find t.cache p.pkey with
            | Some v -> slots.(idx) <- Done (Ok_ v)
            | None -> (
                match Hashtbl.find_opt cells p.pkey with
                | Some c -> slots.(idx) <- Wait c
                | None ->
                    let c = { cplan = p; ccancel = cancel; cout = None } in
                    Hashtbl.add cells p.pkey c;
                    slots.(idx) <- Wait c)))
  done;
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
  let tasks =
    Hashtbl.fold
      (fun _ l acc ->
        let cs = !l in
        (fun () ->
          List.iter
            (fun c ->
              (* workers run the pool preference: vm for the indexed
                 default and for the pool-unsafe strategies (Parallel
                 would re-enter the pool they themselves run on, Magic's
                 transform cache is unguarded); an explicit naive/vm
                 default passes through *)
              c.cout <-
                Some
                  (exec ~cancel:c.ccancel (fun () ->
                       c.cplan.pcompute (Some (Dl_engine.pool_strategy ())))))
            cs)
        :: acc)
      groups []
  in
  Dl_parallel.run_tasks tasks;
  (* remaining misses run on the coordinator with the default strategy *)
  List.iter
    (fun c ->
      c.cout <-
        Some (exec ~cancel:c.ccancel (fun () -> c.cplan.pcompute None)))
    sequential;
  (* store successes, count timeouts, emit responses in request order *)
  Hashtbl.iter
    (fun key c ->
      match c.cout with
      | Some (Ok_ v) -> Svc_cache.add t.cache key v
      | _ -> ())
    cells;
  Array.to_list
    (Array.mapi
       (fun idx req ->
         let result =
           match slots.(idx) with
           | Done r -> r
           | Wait c -> (
               match c.cout with
               | Some r -> r
               | None -> Error_ "internal: batch cell not computed")
         in
         { rid = req.id; result = record t result })
       reqs)

(* ------------------------------------------------------------------ *)
(* Line-level entry points. *)

(* ------------------------------------------------------------------ *)
(* Concurrent entry point: the TCP connection workers' request path.

   Safety discipline, in lock order:

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
   - the cache carries its own lock, and evaluation runs
     [Dl_engine.pool_strategy ()] (the VM unless the process default is
     [naive]) — the [Parallel] strategy would re-enter the
     single-coordinator domain pool, and [Magic] caches its demand
     transformations in a global table.

   Per-session quotas shed with [busy] before any planning work. *)

let handle_concurrent t req : response =
  Atomic.incr t.requests;
  let cancel = cancel_of req in
  let finish result = { rid = req.id; result = record t result } in
  match req.verb with
  | Stats -> finish (exec ~cancel (fun () -> stats_body t))
  | _ -> (
      let resolved =
        try
          Ok
            (match req.verb with
            | Load _ | Rpq_load _ -> session_or_create t (req_session req)
            | _ -> session t (req_session req))
        with Reject m -> Error m
      in
      match resolved with
      | Error m -> finish (Error_ m)
      | Ok s ->
          finish
          @@ Svc_session.with_lock s (fun () ->
                 let shed =
                   match t.quota with
                   | None -> false
                   | Some (limit, window) ->
                       Svc_session.over_quota s ~limit ~window
                         ~now:(Unix.gettimeofday ())
                 in
                 if shed then Busy
                 else
                   match req.verb with
                   | Load { kind; name; text } ->
                       exec ~cancel (fun () -> do_load_in s kind name text)
                   | Rpq_load { name; text } ->
                       exec ~cancel (fun () -> do_rpq_load_in s name text)
                   | Assert { instance; text } ->
                       (* under the session lock: serialized against every
                          other request touching this session *)
                       exec ~cancel (fun () ->
                           do_mutate s ~cancel ~asserted:true instance text)
                   | Retract { instance; text } ->
                       exec ~cancel (fun () ->
                           do_mutate s ~cancel ~asserted:false instance text)
                   | Stats -> assert false
                   | _ -> (
                       let planned = ref None in
                       match
                         exec ~cancel (fun () ->
                             planned := Some (plan_in ~use_mats:true t s ~cancel req);
                             "")
                       with
                       | (Error_ _ | Timeout | Busy) as r -> r
                       | Ok_ _ -> (
                           let p = Option.get !planned in
                           match Svc_cache.find t.cache p.pkey with
                           | Some v -> Ok_ v
                           | None ->
                               let compute () =
                                 (* concurrent connection workers: same
                                    pool preference as the batch path *)
                                 exec ~cancel (fun () ->
                                     p.pcompute
                                       (Some (Dl_engine.pool_strategy ())))
                               in
                               let r =
                                 if p.pworker_safe then compute ()
                                 else begin
                                   Mutex.lock t.heavy;
                                   Fun.protect
                                     ~finally:(fun () ->
                                       Mutex.unlock t.heavy)
                                     compute
                                 end
                               in
                               (match r with
                               | Ok_ v -> Svc_cache.add t.cache p.pkey v
                               | _ -> ());
                               r))))

let handle_line_concurrent t line : response =
  match parse_request line with
  | Error (id, msg) ->
      Atomic.incr t.requests;
      { rid = id; result = Error_ msg }
  | Ok req -> handle_concurrent t req

(* ------------------------------------------------------------------ *)

let handle_line t line : response =
  match parse_request line with
  | Error (id, msg) ->
      Atomic.incr t.requests;
      { rid = id; result = Error_ msg }
  | Ok req -> handle t req

(* Parse errors keep their position in the output; parsed requests go
   through [handle_batch] together. *)
let handle_lines t lines : response list =
  let parsed = List.map (fun l -> (l, parse_request l)) lines in
  let reqs =
    List.filter_map (function _, Ok r -> Some r | _ -> None) parsed
  in
  let handled = ref (handle_batch t reqs) in
  List.map
    (fun (_, p) ->
      match p with
      | Error (id, msg) ->
          Atomic.incr t.requests;
          { rid = id; result = Error_ msg }
      | Ok _ -> (
          match !handled with
          | r :: rest ->
              handled := rest;
              r
          | [] -> { rid = "-"; result = Error_ "internal: response underflow" }))
    parsed

let requests t = Atomic.get t.requests
let timeouts t = Atomic.get t.timeouts
let cache t = t.cache
let sessions t = locked t (fun () -> Hashtbl.length t.sessions)

let key_mode_name t =
  match t.key_mode with Fingerprint -> "fingerprint" | Printed -> "printed"
