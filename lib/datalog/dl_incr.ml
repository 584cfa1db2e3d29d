(* Incremental view maintenance: Backward/Forward (B/F) deletion
   followed by a delta fixpoint, stratum by stratum.

   The maintained invariant is [ifull = Dl_engine.fixpoint iprogram ibase]
   with membership of every fact read as [base ∨ derived].  The program is
   split into the SCC condensation of its IDB dependency graph and strata
   are repaired bottom-up, so when stratum k runs, every relation its rule
   bodies mention (EDBs and lower IDBs) already has its *new* membership
   in [state] and its *old* membership in the saved pre-mutation fixpoint.
   Two instances accumulate the finalized membership deltas — [dall]
   (deleted) and [aall] (added) — and are the only channel between
   strata.  A non-recursive stratum is B/F's simplest case: no body atom
   reads the stratum, so each candidate's search is one head-seeded run
   that stops at its first surviving derivation. *)

type stratum = {
  spreds : string list;  (* IDB predicates of this SCC, sorted *)
  srules : Datalog.program;  (* rules whose head is in [spreds] *)
  sprogs : Dl_vm.rule_prog list;  (* the same, compiled to bytecode *)
  sseeded : (Dl_vm.rule_prog * Dl_vm.program * bool array) list;
      (* each rule with its head-seeded program and its body positions
         drawing from this stratum marked *)
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
  istrata : stratum list;  (* in topological (bottom-up) order *)
  mutable ibase : Instance.t;
  mutable ifull : Instance.t;
  mutable ilast : repair;  (* B/F counters of the last [apply] *)
}

let program t = t.iprogram
let base t = t.ibase
let full t = t.ifull
let last_repair t = t.ilast
let strata t = List.map (fun s -> s.spreds) t.istrata

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
  let sprogs = Dl_vm.compile srules in
  let seeded (rp : Dl_vm.rule_prog) =
    ( rp,
      Dl_vm.head_program rp.source,
      Array.map (fun (a : Dl_plan.catom) -> List.mem a.crel comp) rp.source.cbody )
  in
  {
    spreds = List.sort String.compare comp;
    srules;
    sprogs;
    sseeded = List.map seeded sprogs;
  }

(* ---------- derivation enumeration ---------- *)

(* Call [k] on the head of every match of [rules] over [full] that uses
   at least one [delta] fact ([delta ⊆ full]), at least once each: the
   units of one semi-naive round with [full] as both its [old] and its
   [full], run by their delta-position programs. *)
let fire ~cancel rules ~delta ~full k =
  Dl_semi.iter_units rules ~old:full ~delta (fun (rp : Dl_vm.rule_prog) pos ->
      Dl_vm.exec rp.semi.(pos) ~full ~old:full ~delta ~cancel (fun f ->
          k f;
          true);
      true)

(* ---------- create ---------- *)

let create ?(cancel = Dl_cancel.none) p inst =
  Datalog.validate p;
  let strata = List.map (make_stratum p) (stratify p) in
  {
    iprogram = p;
    istrata = strata;
    ibase = inst;
    ifull = Dl_engine.fixpoint ~cancel p inst;
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

(* B/F deletion for one stratum (Motik, Nenov, Piro and
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
      fire ~cancel s.sprogs ~delta:round ~full:old_full (fun h ->
          queue := h :: !queue);
      deleted := Instance.union !deleted round
    end
  done;
  ( !deleted,
    { checked = !checked; proved = !proved; deleted = Instance.size !deleted } )

(* ---------- apply ---------- *)

(* Every stratum works on persistent instances, and [ibase]/[ifull] are
   written only after the last one: a cancel anywhere before leaves [t]
   as it was. *)
let apply ?(cancel = Dl_cancel.none) t ~adds ~dels =
  t.ilast <- no_repair;
  (* Normalize to real base edits (sets, restricted to actual changes):
     retracting an absent fact and re-asserting a present one are no-ops. *)
  let del_inst =
    Instance.of_list (List.filter (fun f -> Instance.mem f t.ibase) dels)
  in
  let add_inst =
    Instance.of_list
      (List.filter (fun f -> not (Instance.mem f t.ibase)) adds)
  in
  if Instance.is_empty del_inst && Instance.is_empty add_inst then ()
  else begin
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
        (* B/F deletion, then close under insertions (lower-strata
           additions and asserted seeds) with a delta fixpoint — this
           is where the engine strategies serve maintenance. *)
        let seeds = ref (Instance.facts local_del) in
        fire ~cancel s.sprogs ~delta:!dall ~full:old_full (fun f ->
            seeds := f :: !seeds);
        let d, r =
          if !seeds = [] then (Instance.empty, no_repair)
          else bf_delete ~cancel s ~state:!state ~old_full ~new_base !seeds
        in
        repair := add_repair !repair r;
        let state1 = Instance.diff !state d in
        Dl_cancel.check cancel;
        let delta = Instance.union !aall local_add in
        let full2, derived =
          if Instance.is_empty delta then (state1, Instance.empty)
          else
            Dl_engine.fixpoint_delta ~cancel s.srules ~old:state1 ~delta
        in
        let out_del = Instance.diff d full2 in
        let out_add =
          (* pure-assert fast path: with nothing deleted and no IDB
             seeds, every derived fact is fresh by construction
             ([fixpoint_delta] only accumulates facts beyond [state1]),
             so the membership filter is a no-op — skip its
             O(derived · log) rebuild. *)
          if Instance.is_empty d && Instance.is_empty local_add then derived
          else
            Instance.filter
              (fun f -> not (Instance.mem f !state))
              (Instance.union local_add derived)
        in
        state := full2;
        dall := Instance.union !dall out_del;
        aall := Instance.union !aall out_add)
      t.istrata;
    t.ibase <- new_base;
    t.ifull <- !state;
    t.ilast <- !repair
  end

let assert_facts ?cancel t facts = apply ?cancel t ~adds:facts ~dels:[]
let retract_facts ?cancel t facts = apply ?cancel t ~adds:[] ~dels:facts
