(* One front door for Datalog evaluation.

   Every decision procedure in the system bottoms out in [holds] /
   [holds_boolean] / [eval]; this facade routes them through one of
   three strategies:

   - [Naive]: the seed's scan-based, textual-order, naive-iteration
     evaluator ({!Dl_eval.fixpoint_naive}) — the differential-testing
     oracle;
   - [Magic]: the magic-sets demand transformation ({!Dl_magic})
     composed with the semi-naive engine, so bottom-up rounds derive
     only facts the goal demands.  Queries whose goal is extensional (no
     rules) fall back to [Vm] — there is nothing to specialize.
   - [Vm]: semi-naive rounds ({!Dl_semi}) over static join plans lowered
     to flat register bytecode ({!Dl_vm}), with early stop on goal
     checks and mid-round cancellation probes.

   The default strategy is a process-wide setting (the CLI's [--engine]
   flag and the MONDET_ENGINE environment variable set it; the bench
   ablations and the tests override it per call). *)

type strategy = Naive | Magic | Vm

(* The single registry every name-facing derivation comes from: the
   strategy list, [to_string]/[of_string], and the "expected …" text of
   the MONDET_ENGINE warning.  Adding a strategy means adding one row
   here (plus its dispatch arms below — the compiler enforces those). *)
let registry = [ (Naive, "naive"); (Magic, "magic"); (Vm, "vm") ]

let all = List.map fst registry
let to_string s = List.assoc s registry
let of_string n = List.find_map (fun (s, n') -> if String.equal n n' then Some s else None) registry
let expected = String.concat "|" (List.map snd registry)

(* Vm by default: on the paper's workloads (small instances, Boolean
   all-free goals) the demand transformation prunes little and its extra
   magic rules cost more than they save — see the engine/* rows of
   BENCH_eval.json.

   The default lives in an [Atomic.t]: a plain [ref] would make
   concurrent [set_default]/[default] a data race.  The remaining
   (documented) coarseness is intentional: the default is a process-wide
   knob, so a [set_default] racing with an evaluation on another domain
   changes which engine that evaluation uses but never its answer — each
   top-level facade call reads the default exactly once (see
   [resolve]), so one call never mixes strategies across rounds. *)
let default_strategy =
  Atomic.make
    (match Sys.getenv_opt "MONDET_ENGINE" with
    | None -> Vm
    | Some s -> (
        match of_string (String.trim s) with
        | Some st -> st
        | None ->
            Printf.eprintf "mondet: ignoring MONDET_ENGINE=%S (expected %s)\n%!"
              s expected;
            Vm))

let default () = Atomic.get default_strategy
let set_default s = Atomic.set default_strategy s

(* A per-call [?strategy] always wins; the process default is read once
   per top-level call, never again mid-evaluation. *)
let resolve = function Some s -> s | None -> Atomic.get default_strategy

let eval ?strategy ?cancel (q : Datalog.query) inst =
  match resolve strategy with
  | Naive -> Dl_eval.eval_naive ?cancel q inst
  | Magic when Dl_magic.applicable q ->
      let m = Dl_magic.transform q (Dl_magic.all_free (Datalog.goal_arity q)) in
      Dl_semi.eval ?cancel m.Dl_magic.query
        (Instance.add (Dl_magic.seed_free m) inst)
  | Vm | Magic -> Dl_semi.eval ?cancel q inst

(* Whole-program fixpoints, for the maintenance layer ({!Dl_incr}) and
   anyone else who needs the materialized instance rather than goal
   tuples.  [Magic] is goal-directed — with no goal to demand-transform
   there is nothing to specialize — so it falls back to [Vm], the engine
   it composes with anyway. *)
let fixpoint ?strategy ?cancel p inst =
  match resolve strategy with
  | Naive -> Dl_eval.fixpoint_naive ?cancel p inst
  | Vm | Magic -> Dl_semi.fixpoint ?cancel p inst

(* Delta-start continuation of a closed [old]: the insertion path of
   incremental maintenance.  [Naive] has no delta machinery, so it
   recomputes from the union and diffs — the differential oracle for
   the semi-naive delta start. *)
let fixpoint_delta ?strategy ?cancel p ~old ~delta =
  match resolve strategy with
  | Naive ->
      let seed = Instance.union old delta in
      let full = Dl_eval.fixpoint_naive ?cancel p seed in
      (full, Instance.diff full seed)
  | Vm | Magic -> Dl_semi.fixpoint_delta ?cancel p ~old ~delta

let holds ?strategy ?cancel (q : Datalog.query) inst tup =
  match resolve strategy with
  | Naive ->
      Instance.mem (Fact.of_array q.goal tup)
        (Dl_eval.fixpoint_naive ?cancel q.program inst)
  | Magic when Dl_magic.applicable q ->
      let m = Dl_magic.transform q (Dl_magic.all_bound (Array.length tup)) in
      Dl_semi.holds ?cancel m.Dl_magic.query
        (Instance.add (Dl_magic.seed m tup) inst)
        tup
  | Vm | Magic -> Dl_semi.holds ?cancel q inst tup

let holds_boolean ?strategy ?cancel (q : Datalog.query) inst =
  match resolve strategy with
  | Naive -> Dl_eval.eval_naive ?cancel q inst <> []
  | Magic when Dl_magic.applicable q ->
      let m = Dl_magic.transform q (Dl_magic.all_free (Datalog.goal_arity q)) in
      Dl_semi.holds_boolean ?cancel m.Dl_magic.query
        (Instance.add (Dl_magic.seed_free m) inst)
  | Vm | Magic -> Dl_semi.holds_boolean ?cancel q inst

let contained_cq_in ?strategy ?cancel (cq : Cq.t) q =
  let db = Cq.canonical_db cq in
  let tup = Array.of_list (Cq.head_consts cq) in
  holds ?strategy ?cancel q db tup
