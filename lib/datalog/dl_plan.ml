(* Layer 1 of the rule-compilation pipeline: slot compilation and join
   planning.

   Slot compilation numbers a rule's variables into slots of a flat
   register file.  Planning then fixes, per rule and per delta
   position, an explicit join order with a binding pattern for every
   argument position and the lifetime of every slot — everything
   {!Dl_vm}'s codegen needs to emit straight-line matching code with no
   runtime tags.

   The planner commits to an atom order at compile time (delta atom
   first, then greedily most-bound-first) and leaves only the
   index-probe {e position} choice to run time.  The static order is
   what makes flat bytecode possible: each slot has one binding site per
   plan, so the register file needs no option tags and no trail. *)

type cterm = Cslot of int | Cconst of Const.t

type catom = {
  crel : string;
  crid : Symtab.sym; (* interned [crel], cached at compile time *)
  cterms : cterm array;
}

type crule = {
  nvars : int;
  cbody : catom array;
  chead : catom;
  crels : Symtab.sym list;
      (* distinct body relation ids, for the relevance filter *)
}

let compile_rule (r : Datalog.rule) =
  let tbl = Hashtbl.create 8 and n = ref 0 in
  let slot v =
    match Hashtbl.find_opt tbl v with
    | Some s -> s
    | None ->
        let s = !n in
        incr n;
        Hashtbl.add tbl v s;
        s
  in
  let cterm = function Cq.Var v -> Cslot (slot v) | Cq.Cst c -> Cconst c in
  let catom (a : Cq.atom) =
    {
      crel = a.rel;
      crid = Symtab.intern a.rel;
      cterms = Array.of_list (List.map cterm a.args);
    }
  in
  let cbody = Array.of_list (List.map catom r.body) in
  let chead = catom r.head in
  {
    nvars = !n;
    cbody;
    chead;
    crels =
      Array.to_list cbody
      |> List.map (fun a -> a.crid)
      |> List.sort_uniq Int.compare;
  }

(* ------------------------------------------------------------------ *)
(* Static plans. *)

type binding = Bconst of Const.t | Bbind of int | Bcheck of int
type step = { satom : int; spat : binding array }

type t = {
  prule : crule;
  pdelta : int option;
  steps : step array;
  first_def : int array;
  last_use : int array;
}

let plan ?(seeded = []) (cr : crule) ~delta =
  let nb = Array.length cr.cbody in
  let ns = max cr.nvars 1 in
  let bound = Array.make ns false in
  List.iter (fun s -> bound.(s) <- true) seeded;
  let chosen = Array.make nb false in
  let first_def = Array.make ns (-1) in
  let last_use = Array.make ns (-1) in
  (* score of a candidate atom under the current bindings: positions
     already fixed (constants or bound slots), with constants as the
     tie-break — a static proxy for most-constrained-first *)
  let score i =
    let b = ref 0 and cst = ref 0 in
    Array.iter
      (function
        | Cconst _ ->
            incr b;
            incr cst
        | Cslot s -> if bound.(s) then incr b)
      cr.cbody.(i).cterms;
    (!b, !cst)
  in
  let pick forced =
    match forced with
    | Some i -> i
    | None ->
        let best = ref (-1) and best_sc = ref (-1, -1) in
        for i = 0 to nb - 1 do
          if not chosen.(i) then begin
            let sc = score i in
            if !best < 0 || sc > !best_sc then begin
              best := i;
              best_sc := sc
            end
          end
        done;
        !best
  in
  let steps =
    Array.init nb (fun k ->
        let i = pick (if k = 0 then delta else None) in
        chosen.(i) <- true;
        let spat =
          Array.map
            (function
              | Cconst c -> Bconst c
              | Cslot s ->
                  if bound.(s) then begin
                    last_use.(s) <- k;
                    Bcheck s
                  end
                  else begin
                    bound.(s) <- true;
                    first_def.(s) <- k;
                    last_use.(s) <- k;
                    Bbind s
                  end)
            cr.cbody.(i).cterms
        in
        { satom = i; spat })
  in
  (* head slots stay live through the emit pseudo-step *)
  Array.iter
    (function Cslot s -> last_use.(s) <- nb | Cconst _ -> ())
    cr.chead.cterms;
  { prule = cr; pdelta = delta; steps; first_def; last_use }

let pp_binding ppf = function
  | Bconst c -> Fmt.pf ppf "=%a" Const.pp c
  | Bbind s -> Fmt.pf ppf "+r%d" s
  | Bcheck s -> Fmt.pf ppf "?r%d" s

let pp ppf (pl : t) =
  Fmt.pf ppf "plan %s/%d%a:@." pl.prule.chead.crel
    (Array.length pl.prule.chead.cterms)
    (fun ppf -> function
      | None -> ()
      | Some j -> Fmt.pf ppf " delta@%d" j)
    pl.pdelta;
  Array.iteri
    (fun k { satom; spat } ->
      Fmt.pf ppf "  %d: %s(%a)  [atom %d]@." k pl.prule.cbody.(satom).crel
        Fmt.(array ~sep:(any ", ") pp_binding)
        spat satom)
    pl.steps;
  Fmt.pf ppf "  lifetimes:%t@." (fun ppf ->
      Array.iteri
        (fun s d ->
          if d >= 0 then Fmt.pf ppf " r%d=[%d,%d]" s d pl.last_use.(s))
        pl.first_def)
