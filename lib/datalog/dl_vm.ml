(* Layer 2 of the rule-compilation pipeline: lower static join plans
   (Dl_plan) to a flat int-array bytecode executed by a tight dispatch
   loop over a preallocated register file of unboxed constants.  This is
   the only semi-naive matcher: every engine but the naive oracle, and
   the Backward/Forward passes of Dl_incr, run it.

   Why bytecode:

   - the join order is fixed at compile time, so there is no per-depth
     selectivity rescan — only the probe *position* of each step is
     chosen at run time, from the step's statically known bound
     positions;
   - under a static plan every slot has exactly one binding site, so the
     register file is a plain [Const.t array] ([Const.t] is a private
     int — no tags, no options) and backtracking needs no trail: re-
     entering a binder simply overwrites;
   - matching a tuple is straight-line [check-const] / [check-slot-eq] /
     [bind-slot] opcodes with precomputed positions — no closure calls,
     no per-position match on term constructors.

   Control flow is the classic nested-loops join, flattened: each step's
   block opens a cursor over its candidate tuples ([scan] or
   [index-probe]), advances it ([next]), and falls through to the next
   step; exhausted cursors jump back to the enclosing step's advance
   point, failed checks to their own step's.  A [cancel-probe] sits on
   every advance path, so a deadline interrupts a long fixpoint round
   mid-enumeration, not only at a round boundary. *)

(* ------------------------------------------------------------------ *)
(* Opcodes.  Layout (operands after the opcode word):

     halt                                        []
     scan           [step; src]
     index-probe    [step; src; n; (pos, kind, arg) * n]
     next           [step; arity; fail_pc]
     check-const    [step; pos; pool; fail_pc]
     check-slot-eq  [step; pos; reg; fail_pc]
     bind-slot      [step; pos; reg]
     emit-head      [resume_pc]
     cancel-probe   []

   [src] selects the step's instance: 0 = full, 1 = old, 2 = delta (the
   delta-position variants of a rule differ only in these words).  In an
   [index-probe] each triple names a statically bound position and where
   its value comes from ([kind] 0 = constant pool, 1 = register); the
   most selective one (smallest index bucket) is chosen per execution. *)

let op_halt = 0
let op_scan = 1
let op_probe = 2
let op_next = 3
let op_check_const = 4
let op_check_slot = 5
let op_bind = 6
let op_emit = 7
let op_cancel = 8

type program = {
  code : int array;
  pool : Const.t array; (* constant pool, indexed by check-const/probe *)
  rels : Symtab.sym array; (* per step: interned relation id *)
  rel_names : string array; (* per step: relation name, for errors/pp *)
  srcs : int array; (* per step: instance source (full/old/delta) *)
  nums : int array; (* per step: the relation's number in the program *)
  scans : bool array; (* per step: opens with a scan (no probed position) *)
  nregs : int;
  nsteps : int;
  head_rid : Symtab.sym;
  head_rel : string;
  head_regs : int array; (* per head position: source register *)
}

type rule_prog = {
  source : Dl_plan.crule;
  semi : program array; (* one delta-position variant per body atom *)
  body_nums : int array; (* per body atom: its relation's number *)
  head_num : int;
}

type compiled = {
  rules : rule_prog list;
  rids : Symtab.sym array; (* relation number -> interned id *)
}

(* ------------------------------------------------------------------ *)
(* Codegen. *)

let src_full = 0
let src_old = 1
let src_delta = 2

let lower ~body_nums (pl : Dl_plan.t) : program =
  let cr = pl.prule in
  let nsteps = Array.length pl.steps in
  (* constant pool, deduplicated *)
  let pool_rev = ref [] and npool = ref 0 in
  let pool_tbl : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let pool_idx (c : Const.t) =
    match Hashtbl.find_opt pool_tbl (c :> int) with
    | Some i -> i
    | None ->
        let i = !npool in
        incr npool;
        pool_rev := c :: !pool_rev;
        Hashtbl.add pool_tbl (c :> int) i;
        i
  in
  let src_of satom =
    match pl.pdelta with
    | None -> src_full
    | Some j -> if satom = j then src_delta else if satom < j then src_old else src_full
  in
  (* per-step probe triples: positions fixed before any tuple of this
     step is read — constants, and checks of slots bound by an earlier
     step (a slot bound earlier in the *same* atom has no value yet at
     probe time) *)
  let probes k (st : Dl_plan.step) =
    let acc = ref [] in
    Array.iteri
      (fun pos b ->
        match (b : Dl_plan.binding) with
        | Dl_plan.Bconst c -> acc := (pos, 0, pool_idx c) :: !acc
        | Dl_plan.Bcheck s when pl.first_def.(s) < k -> acc := (pos, 1, s) :: !acc
        | Dl_plan.Bcheck _ | Dl_plan.Bbind _ -> ())
      st.spat;
    List.rev !acc
  in
  let step_probes = Array.mapi probes pl.steps in
  (* sizes: open, cancel (1), next (3+1), pattern ops *)
  let open_size k =
    match step_probes.(k) with [] -> 3 | ps -> 4 + (3 * List.length ps)
  in
  let pat_size (st : Dl_plan.step) =
    Array.fold_left
      (fun n b ->
        n
        + match (b : Dl_plan.binding) with
          | Dl_plan.Bconst _ | Dl_plan.Bcheck _ -> 5
          | Dl_plan.Bbind _ -> 4)
      0 st.spat
  in
  let open_off = Array.make (max nsteps 1) 0 in
  let cancel_off = Array.make (max nsteps 1) 0 in
  let next_off = Array.make (max nsteps 1) 0 in
  let off = ref 0 in
  for k = 0 to nsteps - 1 do
    open_off.(k) <- !off;
    off := !off + open_size k;
    cancel_off.(k) <- !off;
    off := !off + 1;
    next_off.(k) <- !off;
    off := !off + 4;
    off := !off + pat_size pl.steps.(k)
  done;
  let emit_off = !off in
  let halt_off = emit_off + 2 in
  let code = Array.make (halt_off + 1) op_halt in
  let w = ref 0 in
  let put v =
    code.(!w) <- v;
    incr w
  in
  for k = 0 to nsteps - 1 do
    let st = pl.steps.(k) in
    let atom = cr.cbody.(st.satom) in
    (match step_probes.(k) with
    | [] ->
        put op_scan;
        put k;
        put (src_of st.satom)
    | ps ->
        put op_probe;
        put k;
        put (src_of st.satom);
        put (List.length ps);
        List.iter
          (fun (pos, kind, arg) ->
            put pos;
            put kind;
            put arg)
          ps);
    put op_cancel;
    put op_next;
    put k;
    put (Array.length atom.cterms);
    put (if k = 0 then halt_off else cancel_off.(k - 1));
    Array.iteri
      (fun pos b ->
        match (b : Dl_plan.binding) with
        | Dl_plan.Bconst c ->
            put op_check_const;
            put k;
            put pos;
            put (pool_idx c);
            put cancel_off.(k)
        | Dl_plan.Bcheck s ->
            put op_check_slot;
            put k;
            put pos;
            put s;
            put cancel_off.(k)
        | Dl_plan.Bbind s ->
            put op_bind;
            put k;
            put pos;
            put s)
      st.spat
  done;
  put op_emit;
  put (if nsteps = 0 then halt_off else cancel_off.(nsteps - 1));
  put op_halt;
  assert (!w = halt_off + 1);
  let head_regs =
    Array.map
      (function
        | Dl_plan.Cslot s -> s
        | Dl_plan.Cconst _ -> assert false (* ruled out by Datalog.rule *))
      cr.chead.cterms
  in
  {
    code;
    pool = Array.of_list (List.rev !pool_rev);
    rels = Array.map (fun (st : Dl_plan.step) -> cr.cbody.(st.satom).crid) pl.steps;
    rel_names =
      Array.map (fun (st : Dl_plan.step) -> cr.cbody.(st.satom).crel) pl.steps;
    srcs = Array.map (fun (st : Dl_plan.step) -> src_of st.satom) pl.steps;
    nums = Array.map (fun (st : Dl_plan.step) -> body_nums.(st.satom)) pl.steps;
    scans = Array.map (fun ps -> ps = []) step_probes;
    nregs = cr.nvars;
    nsteps;
    head_rid = cr.chead.crid;
    head_rel = cr.chead.crel;
    head_regs;
  }

(* Relations numbered densely in order of first occurrence, heads
   first within a rule, so the store of a run indexes an array. *)
let number (crs : Dl_plan.crule list) =
  let tbl = Hashtbl.create 16 and rids = ref [] and k = ref 0 in
  let see (a : Dl_plan.catom) =
    if not (Hashtbl.mem tbl a.crid) then begin
      Hashtbl.add tbl a.crid !k;
      rids := a.crid :: !rids;
      incr k
    end
  in
  List.iter
    (fun (cr : Dl_plan.crule) ->
      see cr.chead;
      Array.iter see cr.cbody)
    crs;
  (Hashtbl.find tbl, Array.of_list (List.rev !rids))

let compile_rule ~num (cr : Dl_plan.crule) =
  let nb = Array.length cr.cbody in
  let body_nums = Array.map (fun (a : Dl_plan.catom) -> num a.crid) cr.cbody in
  {
    source = cr;
    semi =
      Array.init nb (fun j ->
          lower ~body_nums (Dl_plan.plan cr ~delta:(Some j)));
    body_nums;
    head_num = num cr.chead.crid;
  }

(* a rule lowered on its own numbers its own relations *)
let lower_alone (cr : Dl_plan.crule) pl =
  let num = fst (number [ cr ]) in
  lower ~body_nums:(Array.map (fun (a : Dl_plan.catom) -> num a.crid) cr.cbody) pl
let naive_program cr = lower_alone cr (Dl_plan.plan cr ~delta:None)

let compile_program p =
  let crs = List.map Dl_plan.compile_rule p in
  let num, rids = number crs in
  { rules = List.map (compile_rule ~num) crs; rids }

(* One cache for every compiled program.  A lookup is by physical
   equality first: the constructors upstream memoize their programs, so
   the same value comes back on every fixpoint and costs no fingerprint.
   On a miss the program is fingerprinted and looked up again, so a
   structurally equal program built afresh (an anchored RPQ translation
   per request) still shares one compilation; its entry is re-pointed at
   the new value, so repeated use of that value hits physically.

   The cache is least-recently-used and holds 16 programs.  Bytecode is
   about ten times the size of the rules it comes from (every delta
   variant of every rule), and the cached programs are most of what a
   decision workload keeps live: on mondetbench's decide, 32 entries
   dropped wholesale when full peaked about 2 MB above 16 LRU entries,
   and 32 LRU entries compiled as often as 16.  Mutex-guarded: any
   domain may compile.  The fingerprint is computed outside the lock. *)
type entry = {
  mutable prog : Datalog.program;
  key : int * int;
  comp : compiled;
}

let cache_mutex = Mutex.create ()
let cache : entry list ref = ref []
let cache_size = 16

(* Under the lock: the first entry [hit] accepts, moved to the front. *)
let lookup hit =
  match List.find_opt hit !cache with
  | Some e when e != List.hd !cache ->
      cache := e :: List.filter (fun e' -> e' != e) !cache;
      Some e
  | found -> found

let compiled (p : Datalog.program) =
  match Mutex.protect cache_mutex (fun () -> lookup (fun e -> e.prog == p)) with
  | Some e -> e.comp
  | None ->
      let key = Datalog.program_fingerprint p in
      Mutex.protect cache_mutex (fun () ->
          match lookup (fun e -> e.key = key) with
          | Some e ->
              e.prog <- p;
              e.comp
          | None ->
              let comp = compile_program p in
              cache :=
                { prog = p; key; comp }
                :: List.filteri (fun i _ -> i < cache_size - 1) !cache;
              comp)

let compile p = (compiled p).rules

(* ------------------------------------------------------------------ *)
(* The dispatch loop. *)

(* registers are written before they are read (static plan invariant);
   the initializer below is never observed *)
let reg_init = Const.named "%vm"

(* how many advance-path opcodes run between two cancellation probes —
   small enough that a 1 ms deadline lands well inside a round, large
   enough that the probe's clock read stays off the profile *)
let cancel_interval = 4096

let arity_error name tup arity =
  invalid_arg
    (Printf.sprintf "Dl_vm: %s has a fact of arity %d but an atom of arity %d"
       name (Array.length tup) arity)

(* What a step reads, resolved once per run: a relation's candidates
   depend only on the step, so no probe or scan asks an instance or the
   store for them again.  An instance relation is probed through its
   index; a store tail through its buckets and then, as the cursor's
   continuation, the base relation's index.  A scanned step's tuples
   are fetched up front the same way, tail and base as two lists. *)
type probe =
  | Absent
  | Idx of Index.t
  | Tail of Dl_store.rel * Dl_store.part * Index.t option

type sources = {
  probes : probe array; (* per probed step *)
  lists : Const.t array list array; (* per scanned step: its tuples... *)
  mores : Const.t array list array;
      (* ...and the base's after a tail's; empty when no step reads a
         tail *)
}

(* Steps the run opens itself: a seed is step 0's whole cursor. *)
let opened (prog : program) ~seeded k = k < prog.nsteps && not (k = 0 && seeded)

let no_sources ?(tails = false) (prog : program) =
  let n = max prog.nsteps 1 in
  {
    probes = Array.make n Absent;
    lists = Array.make n [];
    mores = (if tails then Array.make n [] else [||]);
  }

(* Read step [k] from an instance.  A probed step resolves its index
   (this is also where a cold index gets built — before the loop, on the
   calling thread); a scanned step only fetches its tuple list, so a
   relation that is only ever scanned, like a round's delta, never gets
   an index. *)
let from_instance (prog : program) s k inst =
  if prog.scans.(k) then s.lists.(k) <- Instance.scan_id inst prog.rels.(k)
  else
    match Instance.index_id inst prog.rels.(k) with
    | Some idx -> s.probes.(k) <- Idx idx
    | None -> ()

let instance_sources (prog : program) ~seeded ~full ~old ~delta =
  let s = no_sources prog in
  for k = 0 to prog.nsteps - 1 do
    if opened prog ~seeded k then
      from_instance prog s k
        (let src = prog.srcs.(k) in
         if src = src_full then full else if src = src_old then old else delta)
  done;
  s

let part_of src =
  if src = src_full then Dl_store.Full
  else if src = src_old then Dl_store.Old
  else Dl_store.Delta

(* The store hook: the first round reads instances; later rounds read a
   head's tail and the base, a relation without a tail the base alone
   (and nothing as a delta). *)
let store_sources (prog : program) st =
  match Dl_store.first st with
  | Some (old, delta) ->
      instance_sources prog ~seeded:false ~full:(Dl_store.base st) ~old ~delta
  | None ->
      let s = no_sources ~tails:true prog and base = Dl_store.base st in
      for k = 0 to prog.nsteps - 1 do
        let part = part_of prog.srcs.(k) in
        match Dl_store.tail st prog.nums.(k) with
        | None -> if part <> Dl_store.Delta then from_instance prog s k base
        | Some tl ->
            let behind = part <> Dl_store.Delta in
            if prog.scans.(k) then begin
              s.lists.(k) <- Dl_store.rows tl part;
              if behind then s.mores.(k) <- Instance.scan_id base prog.rels.(k)
            end
            else
              let under =
                if behind then Instance.index_id base prog.rels.(k) else None
              in
              s.probes.(k) <- Tail (tl, part, under)
      done;
      s

(* The constant a probe triple at [o] names: a pool entry or a register. *)
let triple_value code pool regs o =
  if Array.unsafe_get code (o + 1) = 0 then
    Array.unsafe_get pool (Array.unsafe_get code (o + 2))
  else Array.unsafe_get regs (Array.unsafe_get code (o + 2))

(* The pc just past step 0's cursor-opening opcode: where a run whose
   step-0 cursor is given (a body seed) starts. *)
let after_open0 code =
  if code.(0) = op_scan then 3 else 4 + (3 * code.(3))

(* The loop behind every entry point.  [regs] may come preloaded (the
   head-seeded entry); [seed], when given, is step 0's whole cursor, so
   that step opens no index.  [on_match] receives the register file of
   every match and returns [false] to stop. *)
let run (prog : program) (s : sources) ~cancel ~regs ~seed on_match =
  let code = prog.code in
  let pool = prog.pool in
  let cur = Array.make (max prog.nsteps 1) [||] in
  let cursors : Const.t array list array = Array.make (max prog.nsteps 1) [] in
  (* a cursor's continuation: the base tuples behind a tail's, when the
     run reads a store *)
  let more : Const.t array list array =
    if Array.length s.mores = 0 then [||]
    else Array.make (max prog.nsteps 1) []
  in
  let fuel = ref cancel_interval in
  let pc = ref 0 in
  (match seed with
  | Some tup ->
      cursors.(0) <- [ tup ];
      pc := after_open0 code
  | None -> ());
  let running = ref true in
  let probes = s.probes and lists = s.lists and mores = s.mores in
  (* all unsafe accesses below are bounds-safe by construction: [code]
     offsets come from the codegen, [pos < arity] is enforced by the next
     opcode's arity check before any pattern opcode touches the tuple *)
  while !running do
    let base = !pc in
    let op = Array.unsafe_get code base in
    if op = op_next then begin
      let step = Array.unsafe_get code (base + 1) in
      match Array.unsafe_get cursors step with
      | [] -> (
          match if Array.length more = 0 then [] else Array.unsafe_get more step with
          | [] -> pc := Array.unsafe_get code (base + 3)
          | rest ->
              (* run [next] again on the continuation *)
              Array.unsafe_set cursors step rest;
              Array.unsafe_set more step [])
      | tup :: rest ->
          Array.unsafe_set cursors step rest;
          let arity = Array.unsafe_get code (base + 2) in
          if Array.length tup <> arity then
            arity_error prog.rel_names.(step) tup arity;
          Array.unsafe_set cur step tup;
          pc := base + 4
    end
    else if op = op_check_slot then begin
      let step = Array.unsafe_get code (base + 1) in
      let pos = Array.unsafe_get code (base + 2) in
      let reg = Array.unsafe_get code (base + 3) in
      if
        Const.equal
          (Array.unsafe_get (Array.unsafe_get cur step) pos)
          (Array.unsafe_get regs reg)
      then pc := base + 5
      else pc := Array.unsafe_get code (base + 4)
    end
    else if op = op_cancel then begin
      decr fuel;
      if !fuel <= 0 then begin
        fuel := cancel_interval;
        Dl_cancel.check cancel
      end;
      pc := base + 1
    end
    else if op = op_bind then begin
      let step = Array.unsafe_get code (base + 1) in
      let pos = Array.unsafe_get code (base + 2) in
      let reg = Array.unsafe_get code (base + 3) in
      Array.unsafe_set regs reg (Array.unsafe_get (Array.unsafe_get cur step) pos);
      pc := base + 4
    end
    else if op = op_emit then begin
      if on_match regs then pc := Array.unsafe_get code (base + 1)
      else running := false
    end
    else if op = op_check_const then begin
      let step = Array.unsafe_get code (base + 1) in
      let pos = Array.unsafe_get code (base + 2) in
      let c = Array.unsafe_get pool (Array.unsafe_get code (base + 3)) in
      if Const.equal (Array.unsafe_get (Array.unsafe_get cur step) pos) c then
        pc := base + 5
      else pc := Array.unsafe_get code (base + 4)
    end
    else if op = op_probe then begin
      let step = Array.unsafe_get code (base + 1) in
      let n = Array.unsafe_get code (base + 3) in
      (match Array.unsafe_get probes step with
      | Absent -> Array.unsafe_set cursors step []
      | Idx idx when n = 1 ->
          (* one bound position: probe it directly, no count pass *)
          Array.unsafe_set cursors step
            (Index.lookup idx
               (Array.unsafe_get code (base + 4))
               (triple_value code pool regs (base + 4)))
      | Idx idx ->
          let best = ref max_int and best_p = ref 0 and best_c = ref reg_init in
          for t = 0 to n - 1 do
            let o = base + 4 + (3 * t) in
            let pos = Array.unsafe_get code o in
            let c = triple_value code pool regs o in
            let cnt = Index.count idx pos c in
            if cnt < !best then begin
              best := cnt;
              best_p := pos;
              best_c := c
            end
          done;
          Array.unsafe_set cursors step
            (if !best = 0 then [] else Index.lookup idx !best_p !best_c)
      | Tail (tl, part, under) ->
          let best = ref max_int and best_p = ref 0 and best_c = ref reg_init in
          for t = 0 to n - 1 do
            let o = base + 4 + (3 * t) in
            let pos = Array.unsafe_get code o in
            let c = triple_value code pool regs o in
            let cnt =
              if n = 1 then 1
              else
                Dl_store.count tl part pos c
                + match under with None -> 0 | Some i -> Index.count i pos c
            in
            if cnt < !best then begin
              best := cnt;
              best_p := pos;
              best_c := c
            end
          done;
          if !best > 0 then begin
            Array.unsafe_set cursors step
              (Dl_store.lookup tl part !best_p !best_c);
            match under with
            | None -> ()
            | Some i -> Array.unsafe_set more step (Index.lookup i !best_p !best_c)
          end
          else Array.unsafe_set cursors step []);
      pc := base + 4 + (3 * n)
    end
    else if op = op_scan then begin
      let step = Array.unsafe_get code (base + 1) in
      Array.unsafe_set cursors step (Array.unsafe_get lists step);
      if Array.length more > 0 then
        Array.unsafe_set more step (Array.unsafe_get mores step);
      pc := base + 3
    end
    else (* op_halt *)
      running := false
  done

let new_regs (prog : program) = Array.make (max prog.nregs 1) reg_init

let head_tuple (prog : program) regs =
  let nh = Array.length prog.head_regs in
  let args = Array.make nh reg_init in
  for i = 0 to nh - 1 do
    Array.unsafe_set args i
      (Array.unsafe_get regs (Array.unsafe_get prog.head_regs i))
  done;
  args

let exec (prog : program) ~full ?(old = Instance.empty)
    ?(delta = Instance.empty) ?(cancel = Dl_cancel.none) emit =
  run prog
    (instance_sources prog ~seeded:false ~full ~old ~delta)
    ~cancel ~regs:(new_regs prog) ~seed:None
    (fun regs -> emit (Fact.of_interned prog.head_rid (head_tuple prog regs)))

let exec_store (prog : program) st ?(cancel = Dl_cancel.none) emit =
  run prog (store_sources prog st) ~cancel ~regs:(new_regs prog) ~seed:None
    (fun regs -> emit (head_tuple prog regs))

(* ------------------------------------------------------------------ *)
(* Seeded entries, for Dl_incr's Backward/Forward search. *)

let head_program (cr : Dl_plan.crule) =
  let seeded =
    Array.fold_left
      (fun acc -> function Dl_plan.Cslot s -> s :: acc | Dl_plan.Cconst _ -> acc)
      [] cr.chead.cterms
  in
  lower_alone cr (Dl_plan.plan ~seeded cr ~delta:None)

(* Preload the head registers from the fact, then read them back: a
   repeated head variable the fact gives two values keeps only one, so
   the read-back fails exactly on a clash. *)
let run_head ?(cancel = Dl_cancel.none) (prog : program) tup src on_match =
  let hr = prog.head_regs in
  if Array.length tup <> Array.length hr then
    arity_error prog.head_rel tup (Array.length hr);
  let regs = new_regs prog in
  Array.iteri (fun i r -> regs.(r) <- tup.(i)) hr;
  if Array.for_all2 (fun r c -> Const.equal regs.(r) c) hr tup then
    run prog
      (instance_sources prog ~seeded:false ~full:src ~old:src
         ~delta:Instance.empty)
      ~cancel ~regs ~seed:None on_match

let run_body ?(cancel = Dl_cancel.none) (rp : rule_prog) j tup src on_match =
  let prog = rp.semi.(j) in
  run prog
    (instance_sources prog ~seeded:true ~full:src ~old:src ~delta:Instance.empty)
    ~cancel ~regs:(new_regs prog) ~seed:(Some tup) on_match

let atom_fact (a : Dl_plan.catom) regs =
  Fact.of_interned a.crid
    (Array.map
       (function Dl_plan.Cslot s -> regs.(s) | Dl_plan.Cconst c -> c)
       a.cterms)

(* ------------------------------------------------------------------ *)
(* Disassembly.  Prints relation and constant *names* (never raw intern
   ids), so the output is stable across processes and suite orders; pcs
   are printed so opcode-layout changes show up in the goldens. *)

let src_name = function
  | 0 -> "full"
  | 1 -> "old"
  | _ -> "delta"

let pp_program ppf (p : program) =
  Fmt.pf ppf "program %s/%d: %d steps, %d regs@." p.head_rel
    (Array.length p.head_regs) p.nsteps p.nregs;
  Fmt.pf ppf "  head %s(%s)@." p.head_rel
    (String.concat ","
       (Array.to_list (Array.map (Printf.sprintf "r%d") p.head_regs)));
  if Array.length p.pool > 0 then
    Fmt.pf ppf "  pool %s@."
      (String.concat " "
         (List.mapi
            (fun i c -> Printf.sprintf "c%d=%s" i (Const.to_string c))
            (Array.to_list p.pool)));
  let pc = ref 0 in
  let code = p.code in
  let line fmt = Fmt.pf ppf ("  %04d  " ^^ fmt ^^ "@.") !pc in
  let finished = ref false in
  while not !finished do
    let base = !pc in
    (match code.(base) with
    | op when op = op_halt ->
        line "halt";
        pc := base + 1;
        if base >= Array.length code - 1 then finished := true
    | op when op = op_scan ->
        line "scan           step=%d rel=%s src=%s" code.(base + 1)
          p.rel_names.(code.(base + 1))
          (src_name code.(base + 2));
        pc := base + 3
    | op when op = op_probe ->
        let n = code.(base + 3) in
        let triples =
          List.init n (fun t ->
              let o = base + 4 + (3 * t) in
              Printf.sprintf "%d%s"
                code.(o)
                (if code.(o + 1) = 0 then Printf.sprintf "=c%d" code.(o + 2)
                 else Printf.sprintf "=r%d" code.(o + 2)))
        in
        line "index-probe    step=%d rel=%s src=%s bound=[%s]" code.(base + 1)
          p.rel_names.(code.(base + 1))
          (src_name code.(base + 2))
          (String.concat "; " triples);
        pc := base + 4 + (3 * n)
    | op when op = op_next ->
        line "next           step=%d arity=%d fail=@%04d" code.(base + 1)
          code.(base + 2)
          code.(base + 3);
        pc := base + 4
    | op when op = op_check_const ->
        line "check-const    step=%d pos=%d c%d fail=@%04d" code.(base + 1)
          code.(base + 2)
          code.(base + 3)
          code.(base + 4);
        pc := base + 5
    | op when op = op_check_slot ->
        line "check-slot-eq  step=%d pos=%d r%d fail=@%04d" code.(base + 1)
          code.(base + 2)
          code.(base + 3)
          code.(base + 4);
        pc := base + 5
    | op when op = op_bind ->
        line "bind-slot      step=%d pos=%d r%d" code.(base + 1)
          code.(base + 2)
          code.(base + 3);
        pc := base + 4
    | op when op = op_emit ->
        line "emit-head      resume=@%04d" code.(base + 1);
        pc := base + 2
    | op when op = op_cancel ->
        line "cancel-probe";
        pc := base + 1
    | op -> Fmt.failwith "Dl_vm.pp_program: unknown opcode %d" op);
    if !pc >= Array.length code then finished := true
  done

let pp_rule_prog ppf (rp : rule_prog) =
  Fmt.pf ppf "-- naive --@.%a" pp_program (naive_program rp.source);
  Array.iteri
    (fun j prog -> Fmt.pf ppf "-- delta@%d --@.%a" j pp_program prog)
    rp.semi
