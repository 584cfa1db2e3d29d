let var_only = function
  | Cq.Var v -> v
  | Cq.Cst _ -> Unsupported.fail "Forward: constants in rules are not supported"

let distinct l = List.length l = List.length (List.sort_uniq String.compare l)

(* the position layout of a rule: head variables first, in head order,
   then the remaining body variables *)
let layout (r : Datalog.rule) =
  let hv = List.map var_only r.Datalog.head.Cq.args in
  if not (distinct hv) then Unsupported.fail "Forward: repeated head variables";
  let bv =
    List.concat_map
      (fun (a : Cq.atom) -> List.map var_only a.Cq.args)
      r.Datalog.body
    |> List.sort_uniq String.compare
    |> List.filter (fun v -> not (List.mem v hv))
  in
  let vars = hv @ bv in
  let pos v =
    let rec idx i = function
      | [] -> assert false
      | x :: rest -> if String.equal x v then i else idx (i + 1) rest
    in
    idx 0 vars
  in
  (vars, pos)

let approximations_nta ?(binarize = true) (q : Datalog.query) =
  (* eliminate repeated variables in intensional body atoms first: codes
     connect bags through partial 1-1 maps, so child roots need pairwise
     distinct head elements; then bound the branching of wide rules *)
  let q =
    try
      let q = Dl_specialize.transform q in
      if binarize then Dl_binarize.transform q else q
    with Invalid_argument msg -> Unsupported.fail "Forward: %s" msg
  in
  let p = q.Datalog.program in
  let preds = Datalog.idbs p in
  let state_of name =
    let rec idx i = function
      | [] -> None
      | x :: rest -> if String.equal x name then Some i else idx (i + 1) rest
    in
    idx 0 preds
  in
  let idb = Datalog.is_idb p in
  let k = ref 0 in
  let transitions =
    List.map
      (fun (r : Datalog.rule) ->
        let vars, pos = layout r in
        k := max !k (List.length vars);
        let intensional, extensional =
          List.partition (fun (a : Cq.atom) -> idb a.Cq.rel) r.Datalog.body
        in
        let label =
          List.map
            (fun (a : Cq.atom) ->
              (a.Cq.rel, List.map (fun t -> pos (var_only t)) a.Cq.args))
            extensional
        in
        let children, edges =
          List.split
            (List.map
               (fun (a : Cq.atom) ->
                 let args = List.map var_only a.Cq.args in
                 if not (distinct args) then
                   Unsupported.fail
                     "Forward: repeated variables in an intensional body atom";
                 let child =
                   match state_of a.Cq.rel with
                   | Some s -> s
                   | None -> assert false
                 in
                 (* edge: parent position of arg t ↦ child position t
                    (child head variable t sits at position t) *)
                 let edge = List.mapi (fun t v -> (pos v, t)) args in
                 (child, edge))
               intensional)
        in
        {
          Nta.children;
          sym = { Nta.label; edges };
          target = Option.get (state_of r.Datalog.head.Cq.rel);
        })
      p
  in
  let goal =
    match state_of q.Datalog.goal with
    | Some s -> s
    | None -> Unsupported.fail "Forward: goal %s has no rules" q.Datalog.goal
  in
  (Nta.make ~n_states:(List.length preds) ~finals:[ goal ] transitions, !k)

let state_of_pred (q : Datalog.query) name =
  let preds = Datalog.idbs q.Datalog.program in
  let rec idx i = function
    | [] -> None
    | x :: rest -> if String.equal x name then Some i else idx (i + 1) rest
  in
  idx 0 preds
