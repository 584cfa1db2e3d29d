(* The semi-naive round loop over the bytecode matcher (Dl_vm) and a
   per-call store of derived tuples (Dl_store).

   Exactly-once argument: in a round, a match using delta facts is found
   by the unit whose delta position is its leftmost atom matched to a
   delta fact — atoms left of that position read [old = full \ delta],
   so no other unit claims it.  A tuple may still be derived by several
   matches of a round: the store keeps it once, if absent from the base
   and from the tail, and shows it to no unit before the round ends.  So
   the next delta is disjoint from [full], and [old] is the previous
   round's [full]: each round boundary only appends the kept tuples to
   their tails, with no set union, no difference and no [Fact] per
   match.  The [Instance] results are built once, after the last
   round. *)

(* Whether every atom from [j] on has a fact in [full] and, with
   [some], whether one has a delta fact. *)
let rec can_match ~in_old ~in_delta rp j nb some =
  if j = nb then some
  else if in_delta rp j then can_match ~in_old ~in_delta rp (j + 1) nb true
  else in_old rp j && can_match ~in_old ~in_delta rp (j + 1) nb some

(* Loops rather than iterators: this runs for every rule in every round.
   A goal check that stops early must not pay for the rules it no longer
   visits, hence [f]'s stop answer.  A rule with a body relation empty in
   [full = old ∪ delta] is skipped whole: with a fixed atom order its
   units would otherwise walk the atoms before the empty one, tuple by
   tuple, to find nothing (on a 8x8 grid test of the tiling reduction
   that walk was half of a [holds_boolean]). *)
let walk_units rules ~in_old ~in_delta f =
  let rec walk = function
    | [] -> ()
    | (rp : Dl_vm.rule_prog) :: rest ->
        let nb = Array.length rp.source.cbody and live = ref true in
        if can_match ~in_old ~in_delta rp 0 nb false then begin
          let pos = ref 0 in
          while !live && !pos < nb do
            if in_delta rp !pos then live := f rp !pos;
            (* every later unit matches this atom against [old] *)
            pos := if in_old rp !pos then !pos + 1 else nb
          done
        end;
        if !live then walk rest
  in
  walk rules

let iter_units rules ~old ~delta f =
  let has inst (rp : Dl_vm.rule_prog) j =
    Instance.cardinal_id inst rp.source.cbody.(j).crid > 0
  in
  walk_units rules ~in_old:(has old) ~in_delta:(has delta) f

let never _ _ = false

(* The round loop; [true] iff [stop] accepted a derived tuple.  The
   tuples kept in the round that stops are committed too.  The
   round-boundary probe sits where no shared cache (compiled rules,
   base indexes) is half-written; the VM also probes inside a round. *)
let rounds ~stop ~cancel (c : Dl_vm.compiled) st =
  let stopped = ref false and head = ref 0 in
  let emit tup =
    if Dl_store.add st !head tup && stop c.rids.(!head) tup then
      stopped := true;
    not !stopped
  in
  let unit (rp : Dl_vm.rule_prog) pos =
    head := rp.head_num;
    Dl_vm.exec_store rp.semi.(pos) st ~cancel emit;
    not !stopped
  in
  let more = ref true in
  while !more do
    Dl_cancel.check cancel;
    (* each relation asked once per round, not once per atom *)
    let olds = Array.init (Array.length c.rids) (Dl_store.has st Dl_store.Old)
    and deltas =
      Array.init (Array.length c.rids) (Dl_store.has st Dl_store.Delta)
    in
    walk_units c.rules
      ~in_old:(fun (rp : Dl_vm.rule_prog) j -> olds.(rp.body_nums.(j)))
      ~in_delta:(fun (rp : Dl_vm.rule_prog) j -> deltas.(rp.body_nums.(j)))
      unit;
    more := Dl_store.commit st && not !stopped
  done;
  !stopped

(* A bodiless rule has a ground, nullary head (head variables must occur
   in the body): it holds unconditionally, so it seeds the base instead
   of taking a unit of its own. *)
let seeded p inst =
  List.fold_left
    (fun i (r : Datalog.rule) ->
      match r.body with [] -> Instance.add (Fact.make r.head.rel []) i | _ -> i)
    inst p

(* A store whose first round takes [base] whole as its delta. *)
let start ?(cancel = Dl_cancel.none) p inst =
  Dl_cancel.check cancel;
  let c = Dl_vm.compiled p and base = seeded p inst in
  ( c,
    Dl_store.create ~rids:c.rids ~base ~old:Instance.empty ~delta:base )

let fixpoint ?stop ?(cancel = Dl_cancel.none) p inst =
  let c, st = start ~cancel p inst in
  let stop =
    match stop with
    | None -> never
    | Some s -> fun rid tup -> s (Fact.of_interned rid tup)
  in
  ignore (rounds ~stop ~cancel c st);
  Instance.union_disjoint (Dl_store.base st) (Dl_store.derived st)

let fixpoint_delta ?(cancel = Dl_cancel.none) p ~old ~delta =
  Dl_cancel.check cancel;
  let c = Dl_vm.compiled p and old = Instance.diff old delta in
  let base = Instance.union_disjoint old delta in
  let st = Dl_store.create ~rids:c.rids ~base ~old ~delta in
  ignore (rounds ~stop:never ~cancel c st);
  let derived = Dl_store.derived st in
  (Instance.union_disjoint base derived, derived)

let eval ?(cancel = Dl_cancel.none) (q : Datalog.query) inst =
  let c, st = start ~cancel q.program inst in
  ignore (rounds ~stop:never ~cancel c st);
  Dl_store.tuples st (Symtab.intern q.goal)

(* Goal facts of the input (or of a bodiless rule) answer before any
   round runs; a derived one stops the rounds. *)
let holds ?(cancel = Dl_cancel.none) (q : Datalog.query) inst tup =
  let want = Fact.of_array q.goal tup in
  let c, st = start ~cancel q.program inst in
  Instance.mem want (Dl_store.base st)
  || rounds ~cancel c st ~stop:(fun rid t ->
         rid = want.rid && Fact.compare_args t want.args = 0)

let holds_boolean ?(cancel = Dl_cancel.none) (q : Datalog.query) inst =
  let goal = Symtab.intern q.goal in
  let c, st = start ~cancel q.program inst in
  Instance.cardinal_id (Dl_store.base st) goal > 0
  || rounds ~cancel c st ~stop:(fun rid _ -> rid = goal)
