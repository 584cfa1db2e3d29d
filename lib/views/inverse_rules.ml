type annotation = Plain | Sk of string * int

let skolem_name ~view ~var = Printf.sprintf "f$%s$%s" view var

let ann_equal a b =
  match (a, b) with
  | Plain, Plain -> true
  | Sk (f, n), Sk (g, m) -> String.equal f g && n = m
  | _ -> false

let ann_string = function Plain -> "_" | Sk (f, _) -> f


(* An inverse rule provenance: view [view], atom number [atom_idx] of its
   definition, producing base relation [base] with per-position annotation
   [ann].  [coord_slots] records, for every coordinate of the expanded
   (defunctionalized) predicate, which view-head slot it displays. *)
type provenance = {
  base : string;
  ann : annotation list;
  view : string;
  atom_idx : int;
  coord_slots : int list;
  view_arity : int;
}

let apred_name_of_prov p =
  Printf.sprintf "%s@%s@%s%d" p.base
    (String.concat "," (List.map ann_string p.ann))
    p.view p.atom_idx

let idb_apred_name pred ann =
  Printf.sprintf "%s@%s" pred (String.concat "," (List.map ann_string ann))

let var_only = function
  | Cq.Var v -> v
  | Cq.Cst _ -> Unsupported.fail "constants are not supported by inverse rules"

(* ------------------------------------------------------------------ *)
(* Inverse rules of the view definitions                               *)

let provenances (views : View.collection) =
  List.concat_map
    (fun (v : View.t) ->
      let q =
        match View.as_cq v with
        | Some q -> q
        | None -> Unsupported.fail "inverse rules require CQ views (%s)" v.View.name
      in
      let head = q.Cq.head in
      let k = List.length head in
      let slot_of x =
        let rec idx i = function
          | [] -> None
          | h :: t -> if String.equal h x then Some i else idx (i + 1) t
        in
        idx 0 head
      in
      List.mapi
        (fun atom_idx (a : Cq.atom) ->
          let anns, coords =
            List.fold_left
              (fun (anns, coords) t ->
                let x = var_only t in
                match slot_of x with
                | Some j -> (Plain :: anns, [ j ] :: coords)
                | None ->
                    let f = skolem_name ~view:v.View.name ~var:x in
                    (Sk (f, k) :: anns, List.init k (fun i -> i) :: coords))
              ([], []) a.Cq.args
          in
          {
            base = a.Cq.rel;
            ann = List.rev anns;
            view = v.View.name;
            atom_idx;
            coord_slots = List.concat (List.rev coords);
            view_arity = k;
          })
        q.Cq.body)
    views

let slot_var view slot = Printf.sprintf "s%d$%s" slot view

(* The single defining rule of a provenance's annotated predicate:
     R@ann@Vj(…slot vars…) ← V(s0,…,sk-1). *)
let inverse_rule p =
  let head_args = List.map (fun s -> Cq.Var (slot_var p.view s)) p.coord_slots in
  let view_args = List.init p.view_arity (fun i -> Cq.Var (slot_var p.view i)) in
  Datalog.rule
    (Cq.atom (apred_name_of_prov p) head_args)
    [ Cq.atom p.view view_args ]

(* ------------------------------------------------------------------ *)
(* Annotation dataflow                                                 *)

module SM = Smap

(* possible annotations per (predicate, position) *)
let annotation_flow (q : Datalog.query) (provs : provenance list) =
  let table : annotation list array SM.t ref = ref SM.empty in
  let get pred pos =
    match SM.find_opt pred !table with
    | Some arr when pos < Array.length arr -> arr.(pos)
    | _ -> []
  in
  let add pred arity pos a =
    let arr =
      match SM.find_opt pred !table with
      | Some arr -> arr
      | None ->
          let arr = Array.make arity [] in
          table := SM.add pred arr !table;
          arr
    in
    if not (List.exists (ann_equal a) arr.(pos)) then (
      arr.(pos) <- a :: arr.(pos);
      true)
    else false
  in
  (* seed: base relation positions from inverse-rule heads *)
  List.iter
    (fun p ->
      List.iteri (fun i a -> ignore (add p.base (List.length p.ann) i a)) p.ann)
    provs;
  (* iterate over the query rules *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Datalog.rule) ->
        (* candidate annotations per variable: intersection over body
           occurrences *)
        let cands : annotation list SM.t ref = ref SM.empty in
        List.iter
          (fun (a : Cq.atom) ->
            List.iteri
              (fun i t ->
                let v = var_only t in
                let here = get a.Cq.rel i in
                let now =
                  match SM.find_opt v !cands with
                  | None -> here
                  | Some prev ->
                      List.filter (fun x -> List.exists (ann_equal x) here) prev
                in
                cands := SM.add v now !cands)
              a.Cq.args)
          r.Datalog.body;
        let head = r.Datalog.head in
        let arity = List.length head.Cq.args in
        List.iteri
          (fun i t ->
            let v = var_only t in
            List.iter
              (fun a -> if add head.Cq.rel arity i a then changed := true)
              (Option.value ~default:[] (SM.find_opt v !cands)))
          head.Cq.args)
      q.Datalog.program
  done;
  fun pred pos -> get pred pos

(* ------------------------------------------------------------------ *)
(* Defunctionalized rule generation                                    *)

let expand_var v = function
  | Plain -> [ Cq.Var v ]
  | Sk (_, m) -> List.init m (fun i -> Cq.Var (Printf.sprintf "%s*%d" v i))

let check_distinct_head (r : Datalog.rule) =
  let hv = List.map var_only r.Datalog.head.Cq.args in
  if List.length hv <> List.length (List.sort_uniq String.compare hv) then
    Unsupported.fail "repeated variables in a rule head"

(* all ways to choose one element from each list *)
let rec choices = function
  | [] -> [ [] ]
  | xs :: rest ->
      let tails = choices rest in
      List.concat_map (fun x -> List.map (fun t -> x :: t) tails) xs

let rewrite ?(guard = true) (q : Datalog.query) (views : View.collection) =
  List.iter check_distinct_head q.Datalog.program;
  let provs = provenances views in
  let flow = annotation_flow q provs in
  let idb = Datalog.is_idb q.Datalog.program in
  let goal_arity = Datalog.goal_arity q in
  let goal_ann = List.init goal_arity (fun _ -> Plain) in
  let generated : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let out_rules = ref (List.map inverse_rule provs) in
  let worklist = Queue.create () in
  Queue.add (q.Datalog.goal, goal_ann) worklist;
  let enqueue pred ann =
    let name = idb_apred_name pred ann in
    if not (Hashtbl.mem generated name) then (
      Hashtbl.add generated name ();
      Queue.add (pred, ann) worklist)
  in
  (* provenances grouped by base predicate *)
  let provs_for base = List.filter (fun p -> String.equal p.base base) provs in
  while not (Queue.is_empty worklist) do
    let pred, ann = Queue.pop worklist in
    Hashtbl.replace generated (idb_apred_name pred ann) ();
    List.iter
      (fun (r : Datalog.rule) ->
        if String.equal r.Datalog.head.Cq.rel pred then (
          let hv = List.map var_only r.Datalog.head.Cq.args in
          (* assignment of annotations: head vars fixed by [ann], others
             range over flow candidates *)
          let fixed =
            List.fold_left2 (fun m v a -> SM.add v a m) SM.empty hv ann
          in
          let other_vars =
            List.concat_map
              (fun (a : Cq.atom) -> List.map var_only a.Cq.args)
              r.Datalog.body
            |> List.sort_uniq String.compare
            |> List.filter (fun v -> not (SM.mem v fixed))
          in
          let cand v =
            (* intersection of flow sets over occurrences *)
            List.fold_left
              (fun acc (a : Cq.atom) ->
                List.fold_left
                  (fun acc (i, t) ->
                    if String.equal (var_only t) v then
                      match acc with
                      | None -> Some (flow a.Cq.rel i)
                      | Some prev ->
                          Some
                            (List.filter
                               (fun x -> List.exists (ann_equal x) (flow a.Cq.rel i))
                               prev)
                    else acc)
                  acc
                  (List.mapi (fun i t -> (i, t)) a.Cq.args))
              None r.Datalog.body
            |> Option.value ~default:[]
          in
          let assignments =
            choices (List.map (fun v -> List.map (fun a -> (v, a)) (cand v)) other_vars)
          in
          List.iter
            (fun choice ->
              let a_of =
                List.fold_left (fun m (v, a) -> SM.add v a m) fixed choice
              in
              let ann_of v =
                match SM.find_opt v a_of with Some a -> a | None -> Plain
              in
              (* head atom *)
              let head_args =
                List.concat_map (fun v -> expand_var v (ann_of v)) hv
              in
              let head = Cq.atom (idb_apred_name pred ann) head_args in
              (* body: for each atom, IDB → annotated IDB; EDB → one rule
                 per matching provenance *)
              let body_atom_options =
                List.map
                  (fun (a : Cq.atom) ->
                    let vs = List.map var_only a.Cq.args in
                    let anns = List.map ann_of vs in
                    if idb a.Cq.rel then (
                      enqueue a.Cq.rel anns;
                      [ (Cq.atom (idb_apred_name a.Cq.rel anns)
                           (List.concat_map (fun v -> expand_var v (ann_of v)) vs),
                         None) ])
                    else
                      List.filter_map
                        (fun p ->
                          if List.for_all2 ann_equal p.ann anns then
                            Some
                              ( Cq.atom (apred_name_of_prov p)
                                  (List.concat_map
                                     (fun v -> expand_var v (ann_of v))
                                     vs),
                                Some p )
                          else None)
                        (provs_for a.Cq.rel))
                  r.Datalog.body
              in
              if List.for_all (fun opts -> opts <> []) body_atom_options then
                List.iter
                  (fun combo ->
                    let body = List.map fst combo in
                    let body =
                      if not guard then body
                      else
                        (* conjoin the guarding view atom of the first
                           provenance-backed atom covering all head vars *)
                        let head_coords =
                          List.concat_map
                            (fun v ->
                              List.map
                                (function Cq.Var w -> w | Cq.Cst _ -> assert false)
                                (expand_var v (ann_of v)))
                            hv
                        in
                        let covering =
                          List.find_opt
                            (fun (atom, prov) ->
                              Option.is_some prov
                              && List.for_all
                                   (fun w -> List.mem (Cq.Var w) atom.Cq.args)
                                   head_coords)
                            combo
                        in
                        match covering with
                        | Some (atom, Some p) ->
                            (* reconstruct the view atom: slot j's value is
                               the coordinate of [atom] displaying slot j *)
                            let coords = Array.of_list atom.Cq.args in
                            let slots = Array.of_list p.coord_slots in
                            let view_arg j =
                              let rec find i =
                                if i >= Array.length slots then
                                  Cq.Var (Printf.sprintf "g$%s$%d" p.view j)
                                else if slots.(i) = j then coords.(i)
                                else find (i + 1)
                              in
                              find 0
                            in
                            Cq.atom p.view (List.init p.view_arity view_arg) :: body
                        | _ -> body
                    in
                    out_rules := Datalog.rule head body :: !out_rules)
                  (choices body_atom_options))
            assignments))
      q.Datalog.program
  done;
  Datalog.query (List.rev !out_rules) (idb_apred_name q.Datalog.goal goal_ann)

let certain_answers q views inst = Dl_engine.eval (rewrite q views) inst
