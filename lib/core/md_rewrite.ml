let prop8_cq (q : Cq.t) (views : View.collection) =
  if Cq.arity q <> 0 then Unsupported.fail "prop8_cq: Boolean queries only";
  let image = View.image views (Cq.canonical_db q) in
  Cq.of_instance ~head:[] image

let prop8_ucq (u : Ucq.t) views =
  Ucq.make (List.map (fun d -> prop8_cq d views) u.Ucq.disjuncts)

let inverse_rules q views = Inverse_rules.rewrite q views

let forward_backward_atomic (q : Datalog.query) (views : View.collection) =
  (* every base relation must be copied by exactly one atomic view *)
  let base = Datalog.edb_schema q.Datalog.program in
  let mapping =
    List.filter_map
      (fun (v : View.t) ->
        match View.as_cq v with
        | Some { Cq.head; body = [ { Cq.rel; args } ] }
          when List.map (fun h -> Cq.Var h) head = args ->
            Some (rel, v.View.name)
        | _ -> None)
      views
  in
  List.iter
    (fun (rel, _) ->
      if List.length (List.filter (fun (r, _) -> String.equal r rel) mapping) > 1
      then Unsupported.fail "forward_backward_atomic: duplicated atomic view")
    mapping;
  let rename rel =
    match List.assoc_opt rel mapping with
    | Some v -> v
    | None ->
        Unsupported.fail
          "forward_backward_atomic: base relation %s has no atomic view" rel
  in
  let nta, k = Forward.approximations_nta q in
  (* Proposition 5: project the codes onto the view signature *)
  let projected =
    Nta.relabel (List.map (fun (rel, ps) -> (rename rel, ps))) nta
  in
  let view_schema =
    Schema.of_list
      (List.map (fun (rel, v) -> (v, Schema.arity_exn base rel)) mapping)
  in
  Backward.backward ~schema:view_schema ~k projected

let verify_boolean (q : Datalog.query) (r : Datalog.query) views insts =
  let image = View.image views in
  List.for_all
    (fun i -> Dl_engine.holds_boolean q i = Dl_engine.holds_boolean r (image i))
    insts

let random_instances ?(n = 20) ?(size = 12) ~seed schema =
  let st = Random.State.make [| seed |] in
  let rels = Schema.relations schema in
  if rels = [] then []
  else
    List.init n (fun run ->
        let n_elems = 2 + Random.State.int st 5 in
        let elems =
          Array.init n_elems (fun i ->
              Const.named (Printf.sprintf "r%d_%d" run i))
        in
        let n_facts = 1 + Random.State.int st size in
        let facts =
          List.init n_facts (fun _ ->
              let rel, arity = List.nth rels (Random.State.int st (List.length rels)) in
              Fact.make rel
                (List.init arity (fun _ ->
                     elems.(Random.State.int st n_elems))))
        in
        Instance.of_list facts)
