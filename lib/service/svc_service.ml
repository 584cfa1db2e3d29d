(* Request dispatch: sessions + cache + deadlines.

   Every request runs the same steps on the calling domain: check the
   deadline, resolve the session, take its lock, check the quota, run
   the verb.  Stats and the state-changing verbs (load, rpq-load,
   assert, retract) run in place; a query verb is planned (resolve the
   session objects into a cache key and a compute thunk), looked up in
   the cache, computed on a miss and stored.  Only successful bodies are
   cached, so a timeout or error never poisons the cache.  The stdio
   loop, [batch] and the socket workers all take this one path. *)

open Svc_proto

type t = {
  sessions : (string, Svc_session.t) Hashtbl.t;
  mu : Mutex.t; (* guards [sessions]; held for table ops only *)
  cache : Svc_cache.t;
  quota : (int * float) option; (* per-session (limit, window seconds) *)
  requests : int Atomic.t;
  timeouts : int Atomic.t;
}

(* [parallel] is accepted and ignored (see the mli) *)
let create ?(cache_capacity = 512) ?parallel:_ ?quota ?(quota_window = 1.0) ()
    =
  {
    sessions = Hashtbl.create 8;
    mu = Mutex.create ();
    cache = Svc_cache.create cache_capacity;
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
   the one engine, whose planner picks magic sets per goal. *)

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
let rpq_eval_body ~cancel tr i tuple =
  match tuple with
  | None -> format_pairs (Rpq_translate.eval ~cancel tr i)
  | Some [ x ] ->
      format_nodes (Rpq_translate.eval_from ~cancel tr i (Const.named x))
  | Some [ x; y ] ->
      if Rpq_translate.holds ~cancel tr i (Const.named x) (Const.named y)
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
  let image = View.image vs in
  let rec go i = function
    | [] -> Printf.sprintf "verified samples=%d" n
    | inst :: rest ->
        Dl_cancel.check cancel;
        if
          Dl_engine.holds_boolean ~cancel q inst
          = Dl_engine.holds_boolean ~cancel r (image inst)
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
   of recomputing the fixpoint.  A mat is trusted only if its base
   fingerprints equal to the session's current instance, so a [load
   instance] replacing the contents — or any bug leaving the two out of
   step — degrades to a cold evaluation, never to a wrong answer. *)

let prog_mat_key (q : Datalog.query) =
  let a, b = Datalog.program_fingerprint q.Datalog.program in
  Printf.sprintf "%x:%x" a b

let on_instance i m =
  Instance.fingerprint (Dl_incr.base m) = Instance.fingerprint i

let valid_mat s inst_name (q : Datalog.query) i =
  match Svc_session.mat s inst_name (prog_mat_key q) with
  | Some m when on_instance i m -> Some m
  | _ -> None

(* The mutation body, run under the session lock.  Semantics are atomic
   per request: either the instance and every live materialization
   reflect all the facts, or — on cancellation mid-repair — the instance
   is untouched.  A cancelled [Dl_incr] pass leaves its materialization
   as it was, so the mats still on the unedited instance are kept; the
   ones whose repair completed before the cancel are a step ahead and
   go.  A timeout can never publish a half-edited state. *)
let do_mutate s ~cancel ~asserted inst_name text =
  let i = Svc_session.instance s inst_name in
  let facts = Instance.facts (Parse.instance text) in
  let live =
    List.filter (fun (_, m) -> on_instance i m) (Svc_session.mats s inst_name)
  in
  (try
     List.iter
       (fun (_, m) ->
         if asserted then Dl_incr.assert_facts ~cancel m facts
         else Dl_incr.retract_facts ~cancel m facts)
       live
   with e ->
     Svc_session.set_mats s inst_name
       (List.filter (fun (_, m) -> on_instance i m) live);
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
   created. *)

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

let cancel_of req =
  match req.deadline_ms with
  | None -> Dl_cancel.none
  | Some ms -> Dl_cancel.with_deadline_ms ms

(* ------------------------------------------------------------------ *)
(* Planning: resolve a query verb against the current session state into
   its cache key and compute thunk. *)

let plan s ~cancel req =
  match req.verb with
  | Eval { program; instance } ->
      let q = Svc_session.program s program in
      let i = Svc_session.instance s instance in
      (* A cache-missed tuple-returning eval answers from a matching
         live materialization — O(goal) after a mutation instead of a
         cold fixpoint — and otherwise *creates* one, so the fixpoint it
         had to run anyway keeps paying off across future mutations.
         Boolean goals keep the early-stopping engine path and only read
         a mat when one already exists. *)
      let compute () =
        if Datalog.goal_arity q = 0 then
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
      ( cache_key
          [ "eval"; Datalog.fingerprint_hex q; Instance.fingerprint_hex i ],
        compute )
  | Holds { program; instance; tuple } ->
      let q = Svc_session.program s program in
      let i = Svc_session.instance s instance in
      let compute () =
        match valid_mat s instance q i with
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
      ( cache_key
          [ "holds"; Datalog.fingerprint_hex q; Instance.fingerprint_hex i;
            String.concat "," tuple ],
        compute )
  | Mondet_test { program; views; depth } ->
      let q = Svc_session.program s program in
      let vs = Svc_session.views s views in
      ( cache_key
          [ "mondet-test"; Datalog.fingerprint_hex q; View.fingerprint_hex vs;
            opt_part depth ],
        fun () -> mondet_body ~cancel q vs depth )
  | Certain_answers { program; views; instance } ->
      let q = Svc_session.program s program in
      let vs = Svc_session.views s views in
      let i = Svc_session.instance s instance in
      ( cache_key
          [ "certain-answers"; Datalog.fingerprint_hex q;
            View.fingerprint_hex vs; Instance.fingerprint_hex i ],
        fun () -> certain_body ~cancel q vs i )
  | Rewrite_check { program; views; samples } ->
      let q = Svc_session.program s program in
      let vs = Svc_session.views s views in
      ( cache_key
          [ "rewrite-check"; Datalog.fingerprint_hex q;
            View.fingerprint_hex vs; opt_part samples ],
        fun () -> rewrite_body ~cancel q vs samples )
  | Rpq_eval { rpq; instance; tuple } ->
      let e, tr = Svc_session.rpq s rpq in
      let i = Svc_session.instance s instance in
      ( cache_key
          [ "rpq-eval"; Rpq.fingerprint_hex e;
            Instance.fingerprint_hex i; tuple_part tuple ],
        fun () -> rpq_eval_body ~cancel tr i tuple )
  | Rpq_rewrite { rpq; views; instance; tuple } ->
      let e, _ = Svc_session.rpq s rpq in
      let vs = Svc_session.rpq_set s views in
      let i = Svc_session.instance s instance in
      ( cache_key
          [ "rpq-rewrite"; Rpq.fingerprint_hex e; rpq_set_part vs;
            Instance.fingerprint_hex i; tuple_part tuple ],
        fun () ->
          rpq_rewrite_body ~cancel (Rpq_views.rewrite ~views:vs e) i tuple )
  | Load _ | Rpq_load _ | Assert _ | Retract _ | Stats ->
      assert false (* run in place by [run] *)

(* ------------------------------------------------------------------ *)
(* One request, start to end.

   Stats and the state-changing verbs run in place; a query verb is
   planned, looked up and computed on a miss.  Mutations are never
   cached (every execution changes state) and require an existing
   session.

   [handle] is safe from many domains at once.  Its discipline, in lock
   order:

   - [t.mu] guards the session table, held for table lookups only;
   - the session mutex is held for the whole of planning and evaluation,
     serializing requests per session — this is what makes the
     session-owned mutable structures (the instances' lazily built index
     caches foremost) safe to touch from many domains, with the mutex
     hand-off providing the publication edge;
   - the cache carries its own lock.  The engine's caches (compiled
     programs, demand transformations) are mutex-guarded; the decision
     procedures' memo tables are per domain and their fresh-name
     counters atomic, so requests on different sessions run side by
     side whatever their verb.

   Per-session quotas shed with [busy] under the session lock, after the
   deadline and before any planning work. *)

let run t ~cancel (s, load) req =
  match (req.verb, s) with
  | Stats, _ -> stats_body t
  | _, None -> reject "missing session"
  | (Load _ | Rpq_load _), Some s -> (Option.get load) s
  | Assert { instance; text }, Some s ->
      do_mutate s ~cancel ~asserted:true instance text
  | Retract { instance; text }, Some s ->
      do_mutate s ~cancel ~asserted:false instance text
  | _, Some s -> (
      let key, compute = plan s ~cancel req in
      match Svc_cache.find t.cache key with
      | Some v -> v
      | None ->
          let v = compute () in
          Svc_cache.add t.cache key v;
          v)

let admit t s =
  match t.quota with
  | Some (limit, window)
    when Svc_session.over_quota s ~limit ~window ~now:(Unix.gettimeofday ()) ->
      raise Shed
  | _ -> ()

let handle t req : response =
  Atomic.incr t.requests;
  let cancel = cancel_of req in
  let result =
    exec ~cancel (fun () ->
        let ((s, _) as resolved) = resolve t req in
        match s with
        | None -> run t ~cancel resolved req
        | Some s ->
            Svc_session.with_lock s (fun () ->
                (* probe again once the lock is won: waiting for it may
                   have used the budget up *)
                Dl_cancel.check cancel;
                admit t s;
                run t ~cancel resolved req))
  in
  let result = match result with Ok v -> Ok_ v | Error r -> r in
  (match result with Timeout -> Atomic.incr t.timeouts | _ -> ());
  { rid = req.id; result }

(* ------------------------------------------------------------------ *)
(* Line-level entry points.  A line that does not parse answers [error],
   addressed to its first token. *)

let handle_line t line =
  match parse_request line with
  | Error (id, msg) ->
      Atomic.incr t.requests;
      { rid = id; result = Error_ msg }
  | Ok req -> handle t req

let handle_lines t lines =
  List.rev (List.fold_left (fun acc l -> handle_line t l :: acc) [] lines)

let handle_concurrent = handle
let handle_line_concurrent = handle_line
let requests t = Atomic.get t.requests
let timeouts t = Atomic.get t.timeouts
let cache t = t.cache
let sessions t = locked t (fun () -> Hashtbl.length t.sessions)
