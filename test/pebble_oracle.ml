(* Reference implementation of the existential pebble games: the plain
   deletion-sweep k-consistency fixpoint and the (1,k) sweep, kept as the
   oracle that test_games.ml compares [Pebble] against.  Only [maps] is
   new; the rest is the sweep implementation [Pebble] replaced. *)

(* Elements of both instances are re-indexed as small integers; a partial
   map is a sorted association list [(x1,b1); ...] encoded as the flat int
   list [x1;b1;x2;b2;...] for hashing. *)

type family = {
  src : Const.t array;
  dst : Const.t array;
  maps : (int list, unit) Hashtbl.t;
}

let family_size f = Hashtbl.length f.maps

let index_of arr c =
  let n = Array.length arr in
  let rec go i =
    if i >= n then None
    else if Const.equal arr.(i) c then Some i
    else go (i + 1)
  in
  go 0

let family_mem fam assoc =
  let enc =
    List.sort compare
      (List.filter_map
         (fun (a, b) ->
           match (index_of fam.src a, index_of fam.dst b) with
           | Some x, Some y -> Some (x, y)
           | _ -> None)
         assoc)
  in
  if List.length enc <> List.length assoc then false
  else Hashtbl.mem fam.maps (List.concat_map (fun (x, y) -> [ x; y ]) enc)

(* ------------------------------------------------------------------ *)

type ctx = {
  n : int;
  m : int;
  src_facts : (string * int array) list;
  (* facts of the target, as a membership set *)
  dst_facts : (string * int list, unit) Hashtbl.t;
}

let make_ctx i i' =
  let src = Array.of_list (Const.Set.elements (Instance.adom i)) in
  let dst = Array.of_list (Const.Set.elements (Instance.adom i')) in
  let idx arr =
    let tbl = Hashtbl.create 64 in
    Array.iteri (fun j c -> Hashtbl.add tbl c j) arr;
    fun c -> Hashtbl.find tbl c
  in
  let si = idx src and di = idx dst in
  let src_facts =
    List.map
      (fun (f : Fact.t) -> (f.rel, Array.map si f.args))
      (Instance.facts i)
  in
  let dst_facts = Hashtbl.create 256 in
  List.iter
    (fun (f : Fact.t) ->
      Hashtbl.replace dst_facts
        (f.rel, Array.to_list (Array.map di f.args))
        ())
    (Instance.facts i');
  (src, dst, { n = Array.length src; m = Array.length dst; src_facts; dst_facts })

(* is the partial map (assoc sorted list) a partial homomorphism? *)
let valid ctx assoc =
  List.for_all
    (fun (rel, args) ->
      let imgs =
        Array.map (fun x -> List.assoc_opt x assoc) args
      in
      if Array.for_all Option.is_some imgs then
        Hashtbl.mem ctx.dst_facts
          (rel, Array.to_list (Array.map Option.get imgs))
      else true)
    ctx.src_facts

let encode assoc = List.concat_map (fun (x, y) -> [ x; y ]) assoc

(* all sorted domains of size ≤ k over 0..n-1 *)
let domains n k =
  let rec go start size =
    if size = 0 then [ [] ]
    else
      List.concat
        (List.init (n - start) (fun d ->
             let x = start + d in
             List.map (fun rest -> x :: rest) (go (x + 1) (size - 1))))
  in
  List.concat (List.init (k + 1) (fun size -> go 0 size))

(* all assignments of a sorted domain into 0..m-1 *)
let rec assignments m = function
  | [] -> [ [] ]
  | x :: rest ->
      let tails = assignments m rest in
      List.concat
        (List.init m (fun b -> List.map (fun t -> (x, b) :: t) tails))

let kconsistent ~k i i' =
  let src, dst, ctx = make_ctx i i' in
  if ctx.m = 0 && ctx.n > 0 then None
  else begin
    let h : (int list, (int * int) list) Hashtbl.t = Hashtbl.create 1024 in
    List.iter
      (fun dom ->
        List.iter
          (fun assoc -> if valid ctx assoc then Hashtbl.replace h (encode assoc) assoc)
          (assignments ctx.m dom))
      (domains ctx.n k);
    let mem assoc = Hashtbl.mem h (encode assoc) in
    let remove assoc = Hashtbl.remove h (encode assoc) in
    (* deletion sweeps to fixpoint *)
    let changed = ref true in
    while !changed do
      changed := false;
      let entries = Hashtbl.fold (fun _ assoc acc -> assoc :: acc) h [] in
      List.iter
        (fun assoc ->
          if mem assoc then
            let size = List.length assoc in
            (* closure under restrictions *)
            let restriction_ok =
              List.for_all
                (fun (x, _) ->
                  mem (List.filter (fun (x', _) -> x' <> x) assoc))
                assoc
            in
            (* forth property *)
            let forth_ok =
              size >= k
              || (let rec all_elems a =
                    if a >= ctx.n then true
                    else if List.mem_assoc a assoc then all_elems (a + 1)
                    else
                      let rec some_b b =
                        if b >= ctx.m then false
                        else
                          let ext =
                            List.sort compare ((a, b) :: assoc)
                          in
                          if mem ext then true else some_b (b + 1)
                      in
                      some_b 0 && all_elems (a + 1)
                  in
                  all_elems 0)
            in
            if not (restriction_ok && forth_ok) then (
              remove assoc;
              changed := true))
        entries
    done;
    if Hashtbl.mem h [] then
      let maps = Hashtbl.create (Hashtbl.length h) in
      Hashtbl.iter (fun key _ -> Hashtbl.replace maps key ()) h;
      Some { src; dst; maps }
    else None
  end

let duplicator_wins ~k i i' = Option.is_some (kconsistent ~k i i')

(* ------------------------------------------------------------------ *)
(* (1,k) games: since at most one pebble survives a move, the winning
   family is generated by its single-pebble members: a pair (x,b) is good
   iff for every ≤k-element domain S containing x there is a valid map on
   S sending x to b all of whose pairs are good.  The family of all valid
   maps whose pairs are good is then restriction-closed and has the
   required jumping property. *)

let one_k_consistent ~k i i' =
  let _, _, ctx = make_ctx i i' in
  if ctx.n = 0 then true
  else if ctx.m = 0 then false
  else begin
    let good = Hashtbl.create 256 in
    for x = 0 to ctx.n - 1 do
      for b = 0 to ctx.m - 1 do
        if valid ctx [ (x, b) ] then Hashtbl.replace good (x, b) ()
      done
    done;
    let doms = domains ctx.n k in
    (* backtracking search for a valid all-good assignment of [dom]
       extending [seed]; facts are checked incrementally as soon as their
       last element gets assigned *)
    let exists_assignment dom seed =
      let facts_within =
        List.filter
          (fun (_, args) -> Array.for_all (fun a -> List.mem a dom) args)
          ctx.src_facts
      in
      let check assoc =
        List.for_all
          (fun (rel, args) ->
            let imgs = Array.map (fun a -> List.assoc_opt a assoc) args in
            (not (Array.for_all Option.is_some imgs))
            || Hashtbl.mem ctx.dst_facts
                 (rel, Array.to_list (Array.map Option.get imgs)))
          facts_within
      in
      let rec go assoc = function
        | [] -> true
        | x :: rest ->
            if List.mem_assoc x assoc then
              check assoc && go assoc rest
            else
              let rec try_b b =
                b < ctx.m
                && ((Hashtbl.mem good (x, b)
                    &&
                    let assoc' = (x, b) :: assoc in
                    check assoc' && go assoc' rest)
                   || try_b (b + 1))
              in
              try_b 0
      in
      go seed dom
    in
    let supported x b =
      List.for_all
        (fun dom -> (not (List.mem x dom)) || exists_assignment dom [ (x, b) ])
        doms
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Hashtbl.iter
        (fun (x, b) () ->
          if not (supported x b) then (
            Hashtbl.remove good (x, b);
            changed := true))
        (Hashtbl.copy good)
    done;
    (* duplicator must be able to answer any initial placement *)
    List.for_all (fun dom -> dom = [] || exists_assignment dom []) doms
  end

(* every member of the family, decoded back to constants *)
let maps fam =
  Hashtbl.fold
    (fun key () acc ->
      let rec pairs = function
        | x :: y :: rest -> (fam.src.(x), fam.dst.(y)) :: pairs rest
        | _ -> []
      in
      pairs key :: acc)
    fam.maps []
