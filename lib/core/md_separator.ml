let of_rewriting ?engine ?cancel r j =
  Dl_engine.holds_boolean ?strategy:engine ?cancel r j

let certain_answers_cq_views ?engine ?cancel q views j =
  Dl_engine.holds_boolean ?strategy:engine ?cancel (Inverse_rules.rewrite q views) j

type chase_mode = Any | All

(* One-slot memo of the taken chase prefix.  The Any and All modes, and
   repeated separator calls on the same view image (the bench replays and
   the Any/All coincidence checks in the test suite do both), otherwise
   redo the inverse-view chase from scratch: the chase Seq re-instantiates
   view-definition approximations with fresh nulls on every traversal.
   [Seq.memoize] pins the prefix actually consumed, so a second traversal
   — and a longer one under a larger [max_chases] with the same bounds —
   reuses the instantiated chases.  Keyed on the chase bounds, the views
   (physical equality: collections are built once upstream) and the image
   (structural equality: images are recomputed per call).  One slot per
   domain: the memoized prefix is lazy, and OCaml raises when two
   domains force one lazy value. *)
type chase_key = {
  k_view_depth : int option;
  k_max_choices : int option;
  k_views : View.collection;
  k_image : Instance.t;
}

let chase_memo : (chase_key * Instance.t Seq.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let memoized_chases ?view_depth ?max_choices_per_fact views j =
  let key =
    {
      k_view_depth = view_depth;
      k_max_choices = max_choices_per_fact;
      k_views = views;
      k_image = j;
    }
  in
  let chase_memo = Domain.DLS.get chase_memo in
  match !chase_memo with
  | Some (k, seq)
    when k.k_view_depth = key.k_view_depth
         && k.k_max_choices = key.k_max_choices
         && k.k_views == key.k_views
         && Instance.equal k.k_image key.k_image ->
      seq
  | _ ->
      let seq =
        Seq.memoize (Md_tests.chases ?view_depth ?max_choices_per_fact views j)
      in
      chase_memo := Some (key, seq);
      seq

let chase_separator ?(mode = All) ?view_depth ?max_choices_per_fact
    ?(max_chases = 512) ?engine ?(cancel = Dl_cancel.none) (q : Datalog.query)
    views j =
  let chases =
    Seq.take max_chases (memoized_chases ?view_depth ?max_choices_per_fact views j)
  in
  (* one probe per chase step: aborting between chases leaves the
     memoized prefix fully instantiated, so a retry resumes it intact *)
  let sat d =
    Dl_cancel.check cancel;
    Dl_engine.holds_boolean ?strategy:engine ~cancel q d
  in
  match mode with
  | Any -> Seq.exists sat chases
  | All ->
      (* the universal (co-NP) variant; on an empty chase set it is
         vacuously true, matching certain answers over no preimages *)
      Seq.for_all sat chases

let brute_force_certain ?(max_preimages = 50) ?engine (q : Datalog.query) views
    ~candidates j =
  let image = View.image views in
  let matching = List.filter (fun i -> Instance.subset j (image i)) candidates in
  let rec first_n n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: r -> x :: first_n (n - 1) r
  in
  match first_n max_preimages matching with
  | [] -> None
  | ms ->
      Some
        (List.for_all (fun i -> Dl_engine.holds_boolean ?strategy:engine q i) ms)
