(* The semi-naive round loop over the bytecode matcher (Dl_vm).

   Exactly-once argument: in a round, a match using delta facts is found
   by the unit whose delta position is its leftmost atom matched to a
   delta fact — atoms left of that position read [old = full \ delta],
   so no other unit claims it.  A fact may still be derived by several
   matches of a round: the emit callback keeps it once, if absent from
   [full] and from a per-round hash set of the facts already kept.  So
   the next delta is disjoint from [full], and [old] is the previous
   round's [full]: every union of the loop joins disjoint operands and
   takes [Instance.union_disjoint], with no subset or difference work.
   The kept facts are consed onto a list and the next delta is built
   from it in bulk ([Instance.of_list]) once per round. *)

module FH = Hashtbl.Make (struct
  type t = Fact.t

  let equal = Fact.equal
  let hash = Fact.hash
end)

(* Loops rather than iterators: this runs for every rule in every round.
   A goal check that stops early must not pay for the rules it no longer
   visits, hence [f]'s stop answer.  A rule with a body relation empty in
   [full = old ∪ delta] is skipped whole: with a fixed atom order its
   units would otherwise walk the atoms before the empty one, tuple by
   tuple, to find nothing (on a 8x8 grid test of the tiling reduction
   that walk was half of a [holds_boolean]). *)
let iter_units rules ~old ~delta f =
  let in_delta rid = Instance.cardinal_id delta rid > 0 in
  let in_full rid = in_delta rid || Instance.cardinal_id old rid > 0 in
  let rec walk = function
    | [] -> ()
    | (rp : Dl_vm.rule_prog) :: rest ->
        let cr = rp.source and live = ref true in
        if List.exists in_delta cr.crels && List.for_all in_full cr.crels
        then begin
          let nb = Array.length cr.cbody and pos = ref 0 in
          while !live && !pos < nb do
            let rid = cr.cbody.(!pos).crid in
            if Instance.cardinal_id delta rid > 0 then live := f rp !pos;
            (* every later unit matches this atom against [old] *)
            pos := if Instance.cardinal_id old rid > 0 then !pos + 1 else nb
          done
        end;
        if !live then walk rest
  in
  walk rules

(* The round loop.  [derived] says whether to accumulate the facts
   derived beyond the start, which only the delta-start entry returns.
   The round-boundary probe sits where no shared cache (compiled rules,
   instance indexes) is half-written; the VM also probes inside a
   round. *)
let rounds ~stop ~cancel ~derived p ~old ~delta =
  Dl_cancel.check cancel;
  let rules = Dl_vm.compile p in
  let rec loop old delta acc =
    Dl_cancel.check cancel;
    let full = Instance.union_disjoint old delta in
    if Instance.is_empty delta then (full, acc)
    else begin
      let seen = FH.create (Instance.size delta)
      and fresh = ref []
      and stopped = ref false in
      let emit f =
        if not (Instance.mem f full || FH.mem seen f) then begin
          FH.add seen f ();
          fresh := f :: !fresh;
          if stop f then stopped := true
        end;
        not !stopped
      in
      iter_units rules ~old ~delta (fun (rp : Dl_vm.rule_prog) pos ->
          Dl_vm.exec rp.semi.(pos) ~full ~old ~delta ~cancel emit;
          not !stopped);
      let fresh = Instance.of_list !fresh in
      if !stopped then (Instance.union_disjoint full fresh, acc)
      else
        loop full fresh
          (if derived then Instance.union_disjoint acc fresh else acc)
    end
  in
  loop old delta Instance.empty

(* A bodiless rule has a ground, nullary head (head variables must occur
   in the body): it holds unconditionally, so it seeds the first delta
   instead of taking a unit of its own. *)
let fixpoint ?(stop = Fun.const false) ?(cancel = Dl_cancel.none) p inst =
  let seed i (r : Datalog.rule) =
    match r.body with [] -> Instance.add (Fact.make r.head.rel []) i | _ -> i
  in
  let delta = List.fold_left seed inst p in
  fst (rounds ~stop ~cancel ~derived:false p ~old:Instance.empty ~delta)

let fixpoint_delta ?(cancel = Dl_cancel.none) p ~old ~delta =
  rounds ~stop:(Fun.const false) ~cancel ~derived:true p
    ~old:(Instance.diff old delta) ~delta

let eval ?cancel (q : Datalog.query) inst =
  Instance.tuples (fixpoint ?cancel q.program inst) q.goal

let holds ?cancel (q : Datalog.query) inst tup =
  let want = Fact.of_array q.goal tup in
  Instance.mem want (fixpoint ~stop:(Fact.equal want) ?cancel q.program inst)

let holds_boolean ?cancel (q : Datalog.query) inst =
  let stop (f : Fact.t) = String.equal f.rel q.goal in
  Instance.cardinal (fixpoint ~stop ?cancel q.program inst) q.goal > 0
