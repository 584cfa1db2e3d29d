(* The semi-naive round loop, written once for every engine that runs it.

   Exactly-once argument: in a round, a match using delta facts is found
   by the unit whose delta position is its leftmost atom matched to a
   delta fact — atoms left of that position read [old = full \ delta],
   so no other unit claims it.  [old] is the previous round's [full], so
   [full = old ∪ delta] needs no set difference; the emit callback only
   keeps facts absent from [full], so the next delta needs no
   deduplication either. *)

type 'r matcher =
  'r ->
  int ->
  old:Instance.t ->
  delta:Instance.t ->
  full:Instance.t ->
  (Fact.t -> bool) ->
  unit

(* Loops rather than iterators: this runs for every rule in every round.
   A goal check that stops early must not pay for the rules it no longer
   visits, hence [f]'s stop answer. *)
let iter_units shape rules ~old ~delta f =
  let rec walk = function
    | [] -> ()
    | r :: rest ->
        let cr : Dl_plan.crule = shape r and live = ref true in
        if List.exists (fun rid -> Instance.cardinal_id delta rid > 0) cr.crels
        then begin
          let nb = Array.length cr.cbody and pos = ref 0 in
          while !live && !pos < nb do
            let rid = cr.cbody.(!pos).crid in
            if Instance.cardinal_id delta rid > 0 then live := f r !pos;
            (* every later unit matches this atom against [old] *)
            pos := if Instance.cardinal_id old rid > 0 then !pos + 1 else nb
          done
        end;
        if !live then walk rest
  in
  walk rules

type 'r engine = {
  prepare : Dl_cancel.t -> Datalog.program -> 'r list * 'r matcher;
  shape : 'r -> Dl_plan.crule;
}

(* The round loop.  [derived] says whether to accumulate the facts
   derived beyond the start, which only the delta-start entry returns.
   The cancellation probe sits at the round boundary, where no shared
   cache (compiled rules, instance indexes) is half-written. *)
let rounds engine ~stop ~cancel ~derived p ~old ~delta =
  Dl_cancel.check cancel;
  let rules, m = engine.prepare cancel p in
  let rec loop old delta acc =
    Dl_cancel.check cancel;
    let full = Instance.union old delta in
    if Instance.is_empty delta then (full, acc)
    else begin
      let fresh = ref Instance.empty and stopped = ref false in
      let emit f =
        if not (Instance.mem f full) then begin
          fresh := Instance.add f !fresh;
          if stop f then stopped := true
        end;
        not !stopped
      in
      iter_units engine.shape rules ~old ~delta (fun rule pos ->
          m rule pos ~old ~delta ~full emit;
          not !stopped);
      if !stopped then (Instance.union full !fresh, acc)
      else
        loop full !fresh (if derived then Instance.union acc !fresh else acc)
    end
  in
  loop old delta Instance.empty

(* A bodiless rule has a ground, nullary head (head variables must occur
   in the body): it holds unconditionally, so it seeds the first delta
   instead of taking a unit of its own. *)
let fixpoint engine ?(stop = Fun.const false) ?(cancel = Dl_cancel.none) p inst =
  let seed i (r : Datalog.rule) =
    match r.body with [] -> Instance.add (Fact.make r.head.rel []) i | _ -> i
  in
  let delta = List.fold_left seed inst p in
  fst (rounds engine ~stop ~cancel ~derived:false p ~old:Instance.empty ~delta)

let fixpoint_delta engine ?(cancel = Dl_cancel.none) p ~old ~delta =
  rounds engine ~stop:(Fun.const false) ~cancel ~derived:true p
    ~old:(Instance.diff old delta) ~delta

let eval engine ?cancel (q : Datalog.query) inst =
  Instance.tuples (fixpoint engine ?cancel q.program inst) q.goal

let holds engine ?cancel (q : Datalog.query) inst tup =
  let want = Fact.of_array q.goal tup in
  Instance.mem want
    (fixpoint engine ~stop:(Fact.equal want) ?cancel q.program inst)

let holds_boolean engine ?cancel (q : Datalog.query) inst =
  let stop (f : Fact.t) = String.equal f.rel q.goal in
  Instance.cardinal (fixpoint engine ~stop ?cancel q.program inst) q.goal > 0
