(* One front door for Datalog evaluation.

   Every decision procedure in the system bottoms out in [holds] /
   [holds_boolean] / [eval]; this facade runs them on the engine — semi-
   naive rounds ({!Dl_semi}) over static join plans lowered to flat
   register bytecode ({!Dl_vm}), with early stop on goal checks and
   mid-round cancellation probes — or, when asked, on the naive oracle
   ({!Dl_eval.fixpoint_naive}) the differential tests compare against.

   The engine picks the magic-sets rewrite ({!Dl_magic}) per goal: a
   [holds] call whose tuple binds a constant of an intensional goal runs
   the transformed program when the transform prunes (no adorned
   predicate is all-free).  Everything else, and every all-free goal,
   runs the VM on the program as given. *)

type strategy = Naive | Vm

(* The planner's rule.  It depends only on the program and the goal
   binding, and [Dl_magic.transform] caches what it reads. *)
let uses_magic q tup =
  Array.length tup > 0
  && Dl_magic.applicable q
  && (Dl_magic.transform q (Dl_magic.all_bound (Array.length tup))).prunes

let eval ?(strategy = Vm) ?cancel (q : Datalog.query) inst =
  match strategy with
  | Naive -> Dl_eval.eval_naive ?cancel q inst
  | Vm -> Dl_semi.eval ?cancel q inst

let fixpoint ?(strategy = Vm) ?cancel p inst =
  match strategy with
  | Naive -> Dl_eval.fixpoint_naive ?cancel p inst
  | Vm -> Dl_semi.fixpoint ?cancel p inst

(* Delta-start continuation of a closed [old]: the insertion path of
   incremental maintenance.  [Naive] has no delta machinery, so it
   recomputes from the union and diffs — the differential oracle for
   the semi-naive delta start. *)
let fixpoint_delta ?(strategy = Vm) ?cancel p ~old ~delta =
  match strategy with
  | Naive ->
      let seed = Instance.union old delta in
      let full = Dl_eval.fixpoint_naive ?cancel p seed in
      (full, Instance.diff full seed)
  | Vm -> Dl_semi.fixpoint_delta ?cancel p ~old ~delta

let holds ?(strategy = Vm) ?cancel (q : Datalog.query) inst tup =
  match strategy with
  | Naive ->
      Instance.mem (Fact.of_array q.goal tup)
        (Dl_eval.fixpoint_naive ?cancel q.program inst)
  | Vm when uses_magic q tup -> Dl_magic.holds ?cancel q inst tup
  | Vm -> Dl_semi.holds ?cancel q inst tup

let holds_boolean ?(strategy = Vm) ?cancel (q : Datalog.query) inst =
  match strategy with
  | Naive -> Dl_eval.eval_naive ?cancel q inst <> []
  | Vm -> Dl_semi.holds_boolean ?cancel q inst

let contained_cq_in ?strategy ?cancel (cq : Cq.t) q =
  let db = Cq.canonical_db cq in
  let tup = Array.of_list (Cq.head_consts cq) in
  holds ?strategy ?cancel q db tup
