(* Incremental view maintenance: counting for the non-recursive strata,
   Backward/Forward (B/F) deletion followed by a delta fixpoint for the
   recursive ones.

   The maintained invariant is [ifull = Dl_engine.fixpoint iprogram ibase]
   with membership of every fact read as [base ∨ derived].  The program is
   split into the SCC condensation of its IDB dependency graph and strata
   are repaired bottom-up, so when stratum k runs, every relation its rule
   bodies mention (EDBs and lower IDBs) already has its *new* membership
   in [state] and its *old* membership in the saved pre-mutation fixpoint.
   Two instances accumulate the finalized membership deltas — [dall]
   (deleted) and [aall] (added) — and are the only channel between
   strata. *)

type stratum = {
  spreds : string list;  (* IDB predicates of this SCC, sorted *)
  srecursive : bool;
  srules : Datalog.program;  (* rules whose head is in [spreds] *)
  sprogs : Dl_vm.rule_prog list;  (* the same, compiled to bytecode *)
  sseeded : (Dl_vm.rule_prog * Dl_vm.program * bool array) list;
      (* recursive strata only: each rule with its head-seeded program
         and its body positions drawing from this stratum marked *)
  scounts : (Fact.t, int) Hashtbl.t;
      (* derivation counts; only populated when [not srecursive] *)
}

type repair = { checked : int; proved : int; deleted : int }

let no_repair = { checked = 0; proved = 0; deleted = 0 }

let add_repair a b =
  {
    checked = a.checked + b.checked;
    proved = a.proved + b.proved;
    deleted = a.deleted + b.deleted;
  }

type t = {
  iprogram : Datalog.program;
  istrategy : Dl_engine.strategy option;
  istrata : stratum list;  (* in topological (bottom-up) order *)
  mutable ibase : Instance.t;
  mutable ifull : Instance.t;
  mutable iok : bool;  (* false while (or after) a mutation went wrong *)
  mutable ilast : repair;  (* B/F counters of the last [apply] *)
}

let program t = t.iprogram
let strategy t = t.istrategy
let base t = t.ibase
let full t = t.ifull
let valid t = t.iok
let last_repair t = t.ilast
let strata t = List.map (fun s -> (s.spreds, s.srecursive)) t.istrata

(* ---------- stratification ---------- *)

(* SCCs of the IDB dependency graph via the transitive [depends_on]
   (mutual reachability), then Kahn-style topological selection of the
   condensation.  Quadratic in the number of IDBs — programs here have a
   handful of predicates, so clarity wins over a linear-time SCC pass. *)
let stratify p =
  let dep = Datalog.depends_on p in
  let rec comps = function
    | [] -> []
    | a :: rest ->
        let same, other = List.partition (fun b -> dep a b && dep b a) rest in
        (a :: same) :: comps other
  in
  let cs = comps (Datalog.idbs p) in
  let uses c c' = List.exists (fun a -> List.exists (fun b -> dep a b) c') c in
  let rec topo acc = function
    | [] -> List.rev acc
    | remaining ->
        let ready, blocked =
          List.partition
            (fun c ->
              not (List.exists (fun c' -> c != c' && uses c c') remaining))
            remaining
        in
        if ready = [] then invalid_arg "Dl_incr.stratify: not a DAG"
        else topo (List.rev_append ready acc) blocked
  in
  topo [] cs

let make_stratum p comp =
  let srules =
    List.filter (fun r -> List.mem r.Datalog.head.Cq.rel comp) p
  in
  let srecursive =
    match comp with [ a ] -> Datalog.depends_on p a a | _ -> true
  in
  let sprogs = Dl_vm.compile srules in
  let seeded (rp : Dl_vm.rule_prog) =
    ( rp,
      Dl_vm.head_program rp.source,
      Array.map (fun (a : Dl_plan.catom) -> List.mem a.crel comp) rp.source.cbody )
  in
  {
    spreds = List.sort String.compare comp;
    srecursive;
    srules;
    sprogs;
    sseeded = (if srecursive then List.map seeded sprogs else []);
    scounts = Hashtbl.create 64;
  }

(* ---------- derivation enumeration ---------- *)

(* Enumerate, for every rule, every body match whose *leftmost* atom
   drawing from [delta] sits at position j: positions left of j draw from
   [lo], j from [delta], positions right of j from [hi].  With
   [lo = hi ∖ delta] this produces each match using at least one [delta]
   fact exactly once — the invariant the counting passes rely on.  These
   are the units of one semi-naive round with [lo]/[hi] as its
   [old]/[full], run by their delta-position programs. *)
let fire_split ~cancel rules ~delta ~lo ~hi k =
  Dl_semi.iter_units rules ~old:lo ~delta (fun (rp : Dl_vm.rule_prog) pos ->
      Dl_vm.exec rp.semi.(pos) ~full:hi ~old:lo ~delta ~cancel (fun f ->
          k f;
          true);
      true)

let count counts f =
  match Hashtbl.find_opt counts f with Some c -> c | None -> 0

let bump counts f d =
  let c = count counts f + d in
  if c = 0 then Hashtbl.remove counts f else Hashtbl.replace counts f c

(* ---------- create ---------- *)

let create ?strategy ?(cancel = Dl_cancel.none) p inst =
  Datalog.validate p;
  let strata = List.map (make_stratum p) (stratify p) in
  let state = ref inst in
  List.iter
    (fun s ->
      Dl_cancel.check cancel;
      if s.srecursive then
        state := Dl_engine.fixpoint ?strategy ~cancel s.srules !state
      else begin
        (* All body predicates live strictly below, so one full
           enumeration over the state seen so far counts every
           derivation of the stratum exactly once. *)
        List.iter
          (fun (rp : Dl_vm.rule_prog) ->
            Dl_vm.exec (Dl_vm.naive_program rp.source) ~full:!state ~cancel
              (fun f ->
                bump s.scounts f 1;
                true))
          s.sprogs;
        Hashtbl.iter
          (fun f _ ->
            if not (Instance.mem f !state) then state := Instance.add f !state)
          s.scounts
      end)
    strata;
  {
    iprogram = p;
    istrategy = strategy;
    istrata = strata;
    ibase = inst;
    ifull = !state;
    iok = true;
    ilast = no_repair;
  }

(* ---------- Backward/Forward deletion ---------- *)

(* Per-repair status of a stratum fact.  [Checked] facts had their old
   derivations searched (backward) without finding a proof yet; a proof
   found later — even one completed while the fact is still on the
   search stack — reaches them through the forward pass of [prove]. *)
type status = Checked | Proved | Deleted
type entry = { mutable st : status }

module FH = Hashtbl.Make (struct
  type t = Fact.t

  let equal = Fact.equal
  let hash = Fact.hash
end)

(* B/F deletion for one recursive stratum (Motik, Nenov, Piro and
   Horrocks, "Maintenance of Datalog materialisations revisited", AIJ
   2019).  [state] holds the final lower strata and the stratum's old
   facts; [seeds] are the stratum facts whose old derivations lost
   support.  Returns the facts with no derivation left: those derivable
   neither from the new base nor from the surviving lower facts through
   surviving stratum facts.  Every candidate is searched for an
   alternative proof before it is deleted, so nothing is deleted only to
   be derived again.

   Invariant: between top-level [check] calls, a checked fact that is
   still derivable is proved (its best derivation's body was checked
   when it was, and the last body fact's proof fires [prove]'s forward
   pass), so a checked-but-unproved fact can be deleted on sight. *)
let bf_delete ~cancel s ~state ~old_full ~new_base seeds =
  let tbl = FH.create 256 in
  let checked = ref 0 and proved = ref 0 in
  let has st f =
    match FH.find_opt tbl f with Some e -> e.st = st | None -> false
  in
  let is_proved = has Proved in
  (* the stratum body facts of a match, or [None] if one is deleted *)
  let body (cr : Dl_plan.crule) local regs =
    let rec go i acc =
      if i < 0 then Some acc
      else if not local.(i) then go (i - 1) acc
      else
        let f = Dl_vm.atom_fact cr.cbody.(i) regs in
        if has Deleted f then None else go (i - 1) (f :: acc)
    in
    go (Array.length local - 1) []
  in
  (* Forward: [e]'s fact is proved; so is every checked head whose whole
     stratum body is now proved (lower facts matched the new state). *)
  let prove f e =
    let work = Queue.create () in
    let mark f e =
      e.st <- Proved;
      incr proved;
      Queue.push f work
    in
    mark f e;
    while not (Queue.is_empty work) do
      let p = Queue.pop work in
      List.iter
        (fun ((rp : Dl_vm.rule_prog), _, local) ->
          let cr = rp.source in
          Array.iteri
            (fun j (a : Dl_plan.catom) ->
              if a.crid = p.Fact.rid then
                Dl_vm.run_body ~cancel rp j p.Fact.args state (fun regs ->
                    let h = Dl_vm.atom_fact cr.chead regs in
                    (match FH.find_opt tbl h with
                    | Some ({ st = Checked } as e) -> (
                        match body cr local regs with
                        | Some b when List.for_all is_proved b -> mark h e
                        | _ -> ())
                    | _ -> ());
                    true))
            cr.cbody)
        s.sseeded
    done
  in
  (* Backward: mark [f] checked and look for a proof among its
     derivations that avoid deleted facts (stratum facts from the old
     state, lower facts from the repaired one); returns the stratum
     bodies still worth searching. *)
  let start f =
    Dl_cancel.check cancel;
    let e = { st = Checked } in
    FH.replace tbl f e;
    incr checked;
    if Instance.mem f new_base then (prove f e; (e, []))
    else begin
      let pending = ref [] and found = ref false in
      List.iter
        (fun ((rp : Dl_vm.rule_prog), head, local) ->
          if (not !found) && rp.source.chead.crid = f.Fact.rid then
            Dl_vm.run_head ~cancel head f.Fact.args state (fun regs ->
                match body rp.source local regs with
                | None -> true
                | Some b ->
                    if List.for_all is_proved b then (found := true; false)
                    else (pending := b :: !pending; true)))
        s.sseeded;
      if !found then (prove f e; (e, [])) else (e, List.rev !pending)
    end
  in
  (* depth-first search with an explicit stack: recursive strata can
     chain arbitrarily long *)
  let check f =
    let e, pending = start f in
    let stack = ref [ (e, ref pending) ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | (g, pending) :: rest -> (
          if g.st = Proved then stack := rest
          else
            match !pending with
            | [] -> stack := rest
            | b :: more -> (
                match List.find_opt (fun h -> not (FH.mem tbl h)) b with
                | Some h ->
                    let e', pending' = start h in
                    stack := (e', ref pending') :: !stack
                | None -> pending := more))
    done;
    e
  in
  (* Rounds: settle every candidate (checking it at most once), delete
     the unproved, then fire the round's deletions once over the old
     state to queue the heads of their old derivations. *)
  let deleted = ref Instance.empty in
  let queue = ref seeds in
  while !queue <> [] do
    Dl_cancel.check cancel;
    let round =
      List.filter
        (fun f ->
          let e =
            match FH.find_opt tbl f with Some e -> e | None -> check f
          in
          e.st = Checked
          && (e.st <- Deleted;
              true))
        !queue
    in
    queue := [];
    if round <> [] then begin
      let round = Instance.of_list round in
      fire_split ~cancel s.sprogs ~delta:round ~lo:old_full ~hi:old_full (fun h ->
          queue := h :: !queue);
      deleted := Instance.union !deleted round
    end
  done;
  ( !deleted,
    { checked = !checked; proved = !proved; deleted = Instance.size !deleted } )

(* ---------- apply ---------- *)

let apply ?(cancel = Dl_cancel.none) t ~adds ~dels =
  if not t.iok then
    invalid_arg "Dl_incr: materialization poisoned by a cancelled mutation";
  t.ilast <- no_repair;
  (* Normalize to real base edits (sets, restricted to actual changes):
     retracting an absent fact and re-asserting a present one are no-ops
     and must not poison anything. *)
  let del_inst =
    Instance.of_list (List.filter (fun f -> Instance.mem f t.ibase) dels)
  in
  let add_inst =
    Instance.of_list
      (List.filter (fun f -> not (Instance.mem f t.ibase)) adds)
  in
  if Instance.is_empty del_inst && Instance.is_empty add_inst then ()
  else begin
    t.iok <- false;
    let old_full = t.ifull in
    let new_base =
      Instance.union (Instance.diff t.ibase del_inst) add_inst
    in
    let is_idb f = Datalog.is_idb t.iprogram f.Fact.rel in
    (* EDB membership is base membership: those deltas are final now.
       IDB base edits only *seed* their own stratum — a retracted but
       still-derivable fact, or an asserted already-derived one, must not
       propagate at all. *)
    let edb_del = Instance.filter (fun f -> not (is_idb f)) del_inst in
    let edb_add = Instance.filter (fun f -> not (is_idb f)) add_inst in
    let idb_del = Instance.filter is_idb del_inst in
    let idb_add = Instance.filter is_idb add_inst in
    let state = ref (Instance.union (Instance.diff old_full edb_del) edb_add) in
    let dall = ref edb_del in
    let aall = ref edb_add in
    let repair = ref no_repair in
    List.iter
      (fun s ->
        Dl_cancel.check cancel;
        let in_stratum f = List.mem f.Fact.rel s.spreds in
        let local_del = Instance.filter in_stratum idb_del in
        let local_add =
          Instance.filter
            (fun f -> in_stratum f && not (Instance.mem f !state))
            idb_add
        in
        if not s.srecursive then begin
          (* Counting repair: one pass enumerating lost derivations
             against the old state, one enumerating gained derivations
             against the new, each derivation exactly once (leftmost
             delta position); then recompute membership of every touched
             fact.  Base edits to the stratum's own predicate join the
             touched set and go through the same membership formula. *)
          let touched = Hashtbl.create 16 in
          let touch f = if not (Hashtbl.mem touched f) then Hashtbl.add touched f () in
          if not (Instance.is_empty !dall) then
            fire_split ~cancel s.sprogs ~delta:!dall
              ~lo:(Instance.diff old_full !dall)
              ~hi:old_full
              (fun f ->
                bump s.scounts f (-1);
                touch f);
          if not (Instance.is_empty !aall) then
            fire_split ~cancel s.sprogs ~delta:!aall
              ~lo:(Instance.diff !state !aall)
              ~hi:!state
              (fun f ->
                bump s.scounts f 1;
                touch f);
          Instance.iter touch local_del;
          Instance.iter touch local_add;
          let fin = ref Instance.empty in
          let fout = ref Instance.empty in
          Hashtbl.iter
            (fun f () ->
              let now = Instance.mem f new_base || count s.scounts f > 0 in
              let was = Instance.mem f !state in
              if now && not was then fin := Instance.add f !fin
              else if was && not now then fout := Instance.add f !fout)
            touched;
          state := Instance.union (Instance.diff !state !fout) !fin;
          dall := Instance.union !dall !fout;
          aall := Instance.union !aall !fin
        end
        else begin
          (* B/F deletion, then close under insertions (lower-strata
             additions and asserted seeds) with a delta fixpoint — this
             is where the engine strategies serve maintenance. *)
          let seeds = ref (Instance.facts local_del) in
          fire_split ~cancel s.sprogs ~delta:!dall ~lo:old_full ~hi:old_full (fun f ->
              seeds := f :: !seeds);
          let d, r =
            if !seeds = [] then (Instance.empty, no_repair)
            else
              bf_delete ~cancel s ~state:!state ~old_full ~new_base !seeds
          in
          repair := add_repair !repair r;
          let state1 = Instance.diff !state d in
          Dl_cancel.check cancel;
          let delta = Instance.union !aall local_add in
          let full2, derived =
            if Instance.is_empty delta then (state1, Instance.empty)
            else
              Dl_engine.fixpoint_delta ?strategy:t.istrategy ~cancel s.srules
                ~old:state1 ~delta
          in
          let out_del = Instance.diff d full2 in
          let out_add =
            (* pure-assert fast path: with nothing deleted and no
               IDB seeds, every derived fact is fresh by construction
               ([fixpoint_delta] only accumulates facts beyond [state1]),
               so the membership filter is a no-op — skip its
               O(derived · log) rebuild. *)
            if Instance.is_empty d && Instance.is_empty local_add then
              derived
            else
              Instance.filter
                (fun f -> not (Instance.mem f !state))
                (Instance.union local_add derived)
          in
          state := full2;
          dall := Instance.union !dall out_del;
          aall := Instance.union !aall out_add
        end)
      t.istrata;
    t.ibase <- new_base;
    t.ifull <- !state;
    t.ilast <- !repair;
    t.iok <- true
  end

let assert_facts ?cancel t facts = apply ?cancel t ~adds:facts ~dels:[]
let retract_facts ?cancel t facts = apply ?cancel t ~adds:[] ~dels:facts
