let find ?(cancel = Dl_cancel.none) (nta : Nta.t) (dta : Dta.t) =
  let module D = (val dta : Dta.S) in
  (* entries per NTA state: (dstate, witness code); grown semi-naively —
     each round only combines tuples containing at least one entry
     discovered in the previous round. *)
  let table : (int, (D.dstate * Code.t) list) Hashtbl.t = Hashtbl.create 16 in
  let get q = Option.value ~default:[] (Hashtbl.find_opt table q) in
  let mem q d = List.exists (fun (d', _) -> D.compare d d' = 0) (get q) in
  let found = ref None in
  let fresh = ref [] in
  (* one cancel probe before every step: each step completes before the
     next probe, so a cancelled search leaves the DTA's memo tables as
     complete as after any earlier step, and overshoots a deadline by at
     most one step *)
  let step ds sym =
    Dl_cancel.check cancel;
    D.step ds sym
  in
  let add q d w =
    if not (mem q d) then begin
      Hashtbl.replace table q ((d, w) :: get q);
      fresh := (q, d, w) :: !fresh;
      if !found = None && List.mem q nta.Nta.finals && D.accept d then
        found := Some w
    end
  in
  (* combinations of entries for the child states such that the entry at
     position [pivot] is drawn from [delta] and positions before the pivot
     from the old table only (standard semi-naive split to avoid
     recomputation) *)
  let combos_with children delta_q delta_entries pivot old =
    let rec go i qs =
      match qs with
      | [] -> [ ([], []) ]
      | q :: rest ->
          let pool =
            if i = pivot then
              if q = delta_q then delta_entries else []
            else if i < pivot then
              if q = delta_q then old q else get q
            else get q
          in
          let tails = go (i + 1) rest in
          List.concat_map
            (fun (d, w) -> List.map (fun (ds, ws) -> (d :: ds, w :: ws)) tails)
            pool
    in
    go 0 children
  in
  (* initial round: leaf transitions *)
  List.iter
    (fun (tr : Nta.transition) ->
      if tr.Nta.children = [] then
        let d = step [] tr.Nta.sym in
        add tr.Nta.target d { Code.label = tr.Nta.sym.Nta.label; children = [] })
    nta.Nta.transitions;
  while !fresh <> [] && !found = None do
    let delta = !fresh in
    fresh := [];
    (* old table = current table minus this delta, per state *)
    let old q =
      List.filter
        (fun (d, _) ->
          not
            (List.exists
               (fun (q', d', _) -> q' = q && D.compare d d' = 0)
               delta))
        (get q)
    in
    (* group delta by state *)
    let delta_states =
      List.sort_uniq compare (List.map (fun (q, _, _) -> q) delta)
    in
    List.iter
      (fun (tr : Nta.transition) ->
        if tr.Nta.children <> [] && !found = None then
          List.iter
            (fun dq ->
              if List.mem dq tr.Nta.children then
                let delta_entries =
                  List.filter_map
                    (fun (q, d, w) -> if q = dq then Some (d, w) else None)
                    delta
                in
                List.iteri
                  (fun pivot q ->
                    if q = dq && !found = None then
                      List.iter
                        (fun (ds, ws) ->
                          if !found = None then
                            let d = step ds tr.Nta.sym in
                            add tr.Nta.target d
                              {
                                Code.label = tr.Nta.sym.Nta.label;
                                children = List.combine tr.Nta.sym.Nta.edges ws;
                              })
                        (combos_with tr.Nta.children dq delta_entries pivot old))
                  tr.Nta.children)
            delta_states)
      nta.Nta.transitions
  done;
  !found

let check_empty ?cancel nta dta = Option.is_none (find ?cancel nta dta)
