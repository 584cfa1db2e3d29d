(* [Goal'' ← V(Q)] over the union of the view programs.  The query must be
   Boolean. *)
let compose_with_views (q : Datalog.query) (views : View.collection) =
  if Datalog.goal_arity q <> 0 then
    Unsupported.fail "compose_with_views: Boolean queries only";
  let view_programs =
    List.concat_map (fun v -> (View.def_as_datalog v).Datalog.program) views
  in
  let goal_rules =
    (* one rule per CQ approximation at the goal — for a CQ/UCQ query the
       complete unfolding is finite *)
    match Dl_approx.complete_unfolding q with
    | None ->
        Unsupported.fail "compose_with_views: the query must be a CQ or UCQ"
    | Some disjuncts ->
        List.map
          (fun (qi : Cq.t) ->
            (* an empty image gives the empty-body rule: V(Qi) is the
               trivially-true query, and determinacy can only hold if Q is
               trivial too — the containment check sorts it out *)
            let image = View.image views (Cq.canonical_db qi) in
            let vq = Cq.of_instance ~head:[] image in
            Datalog.rule (Cq.atom "Goal''" []) vq.Cq.body)
          disjuncts
  in
  Datalog.query (view_programs @ goal_rules) "Goal''"

let datalog_contained_in_cq (p : Datalog.query) (q : Cq.t) =
  let nta, _k = Forward.approximations_nta p in
  Run.check_empty nta (Cq_dta.make ~negate:true q)

let datalog_contained_in_ucq (p : Datalog.query) (u : Ucq.t) =
  let nta, _k = Forward.approximations_nta p in
  (* a counterexample expansion must avoid every disjunct *)
  let all_fail =
    Dta.conj_list
      (List.map (fun d -> Cq_dta.make ~negate:true d) u.Ucq.disjuncts)
  in
  Run.check_empty nta all_fail

let cq_query (q : Cq.t) views =
  if Cq.arity q <> 0 then Unsupported.fail "cq_query: Boolean queries only";
  let q'' = compose_with_views (Datalog.of_cq ~goal:"G0" q) views in
  datalog_contained_in_cq q'' q

let ucq_query (u : Ucq.t) views =
  if Ucq.arity u <> 0 then Unsupported.fail "ucq_query: Boolean queries only";
  let q'' = compose_with_views (Datalog.of_ucq ~goal:"G0" u) views in
  datalog_contained_in_ucq q'' u

type verdict =
  | Determined
  | Not_determined_cert of Md_tests.test option
  | Bounded_no_failure of int

let decide ?max_depth ?view_depth ?engine ?cancel (q : Datalog.query) views =
  match Dl_fragment.classify q with
  | Dl_fragment.CQ | Dl_fragment.UCQ -> (
      match Dl_fragment.to_ucq q with
      | Some u ->
          if ucq_query u views then Determined else Not_determined_cert None
      | None -> Unsupported.fail "decide: could not unfold the query")
  | _ -> (
      match
        Md_tests.decide_bounded ?max_depth ?view_depth ?engine ?cancel q views
      with
      | Md_tests.Not_determined t -> Not_determined_cert (Some t)
      | Md_tests.No_failure_up_to n -> Bounded_no_failure n)

let pp_verdict ppf = function
  | Determined -> Fmt.string ppf "monotonically determined (exact)"
  | Not_determined_cert None -> Fmt.string ppf "NOT monotonically determined"
  | Not_determined_cert (Some t) ->
      Fmt.pf ppf "NOT monotonically determined; failing test:@ %a"
        Md_tests.pp_test t
  | Bounded_no_failure n ->
      Fmt.pf ppf "no failing canonical test among %d (bounded search)" n
