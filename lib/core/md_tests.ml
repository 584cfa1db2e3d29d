type test = { approx : Cq.t; image : Instance.t; chased : Instance.t }

type verdict = Not_determined of test | No_failure_up_to of int

(* instantiate a CQ approximation [q] of a view definition so that its head
   maps onto the arguments of the view fact [f]; existential variables get
   fresh nulls.  None if the head pattern conflicts with the fact. *)
let instantiate (q : Cq.t) (f : Fact.t) : Fact.t list option =
  let ok = ref true in
  let sub = Hashtbl.create 8 in
  List.iteri
    (fun i h ->
      match Hashtbl.find_opt sub h with
      | Some c -> if not (Const.equal c f.args.(i)) then ok := false
      | None -> Hashtbl.add sub h f.args.(i))
    q.Cq.head;
  if not !ok then None
  else begin
    let elem = function
      | Cq.Cst c -> c
      | Cq.Var v -> (
          match Hashtbl.find_opt sub v with
          | Some c -> c
          | None ->
              let c = Const.fresh () in
              Hashtbl.add sub v c;
              c)
    in
    Some
      (List.map
         (fun (a : Cq.atom) -> Fact.make a.Cq.rel (List.map elem a.Cq.args))
         q.Cq.body)
  end

let take n seq = Seq.take n seq

(* cartesian product of a list of non-empty lists, as a sequence *)
let rec product = function
  | [] -> Seq.return []
  | xs :: rest ->
      Seq.concat_map
        (fun tail -> Seq.map (fun x -> x :: tail) (List.to_seq xs))
        (product rest)

let chases ?(view_depth = 3) ?(max_choices_per_fact = 4)
    (views : View.collection) (image : Instance.t) : Instance.t Seq.t =
  let view_approxs =
    List.map
      (fun (v : View.t) ->
        ( v.View.name,
          View.def_approximations ~max_depth:view_depth ~max_count:64 v ))
      views
  in
  let facts = Instance.facts image in
  let choices =
    List.map
      (fun (f : Fact.t) ->
        let defs =
          match List.assoc_opt f.Fact.rel view_approxs with
          | Some l -> l
          | None -> []
        in
        let insts = List.filter_map (fun d -> instantiate d f) defs in
        let rec first_n n = function
          | [] -> []
          | _ when n = 0 -> []
          | x :: r -> x :: first_n (n - 1) r
        in
        first_n max_choices_per_fact insts)
      facts
  in
  if List.exists (fun c -> c = []) choices then Seq.empty
  else
    (* one bulk build per test over all its parts' facts *)
    product choices |> Seq.map (fun parts -> Instance.of_list (List.concat parts))

let tests ?(max_depth = 4) ?(view_depth = 3) ?(max_choices_per_fact = 4)
    ?(max_tests_per_approx = 256) (q : Datalog.query) (views : View.collection)
    =
  if Datalog.goal_arity q <> 0 then
    invalid_arg "Md_tests: the query must be Boolean";
  let approxs = Dl_approx.approximations ~max_depth q in
  Seq.concat_map
    (fun (qi : Cq.t) ->
      let db = Cq.canonical_db qi in
      let image = View.image views db in
      chases ~view_depth ~max_choices_per_fact views image
      |> take max_tests_per_approx
      |> Seq.map (fun chased -> { approx = qi; image; chased }))
    (List.to_seq approxs)

let succeeds ?engine ?cancel q t =
  Dl_engine.holds_boolean ?strategy:engine ?cancel q t.chased

let decide_bounded ?max_depth ?view_depth ?max_choices_per_fact
    ?max_tests_per_approx ?engine ?(cancel = Dl_cancel.none) q views =
  let n = ref 0 in
  let failing =
    Seq.find
      (fun t ->
        (* one probe per generated test, besides the per-round probes
           inside each test's evaluation *)
        Dl_cancel.check cancel;
        incr n;
        not (succeeds ?engine ~cancel q t))
      (tests ?max_depth ?view_depth ?max_choices_per_fact
         ?max_tests_per_approx q views)
  in
  match failing with
  | Some t -> Not_determined t
  | None -> No_failure_up_to !n

let pp_test ppf t =
  Fmt.pf ppf "@[<v>approx: %a@,image: %a@,chased: %a@]" Cq.pp t.approx
    Instance.pp t.image Instance.pp t.chased
