(* Word NFAs over edge letters.  The regex compiles via Thompson with
   ε-edges; everything downstream works on the ε-eliminated, trimmed
   form.  Emptiness, witnesses and intersections ride the tree-automaton
   layer through a unary-tree encoding (see [to_nta]). *)

type letter = { rel : string; back : bool }

type t = {
  n : int;
  starts : int list;
  finals : int list;
  delta : (int * letter * int) list;
}

let letter_to_string l = if l.back then l.rel ^ "^" else l.rel

let word_to_string = function
  | [] -> "eps"
  | w -> String.concat "." (List.map letter_to_string w)

let compare_letter a b =
  let c = String.compare a.rel b.rel in
  if c <> 0 then c else Bool.compare a.back b.back

let letters a =
  List.sort_uniq compare_letter (List.map (fun (_, l, _) -> l) a.delta)

(* ---------- restriction ---------- *)

(* states reachable from [roots] along [adj] *)
let marked adj roots =
  let seen = Array.make (Array.length adj) false in
  let rec go p =
    if not seen.(p) then begin
      seen.(p) <- true;
      List.iter go adj.(p)
    end
  in
  List.iter go roots;
  seen

(* the sub-automaton on the states [keep] marks, renumbered in order *)
let restrict keep a =
  let renum = Array.make a.n (-1) in
  let m = ref 0 in
  for i = 0 to a.n - 1 do
    if keep.(i) then begin
      renum.(i) <- !m;
      incr m
    end
  done;
  let map =
    List.filter_map (fun p -> if keep.(p) then Some renum.(p) else None)
  in
  {
    n = !m;
    starts = map a.starts;
    finals = map a.finals;
    delta =
      List.sort_uniq Stdlib.compare
        (List.filter_map
           (fun (p, l, q) ->
             if keep.(p) && keep.(q) then Some (renum.(p), l, renum.(q))
             else None)
           a.delta);
  }

(* ---------- ε-elimination ---------- *)

(* [of_raw] closes every transition target and the start set under
   ε-reachability: [(p, a, q)] is kept for every [q] ε-reachable from a
   raw target, and the start set is the closure of the raw starts.
   Finals stay as given — a word is accepted iff some ε-closed run ends
   in a final.  Then trim to states reachable from the starts and
   renumber. *)
let of_raw ~n ~starts ~finals ~trans ~eps =
  let succ = Array.make n [] in
  List.iter (fun (p, q) -> if p <> q then succ.(p) <- q :: succ.(p)) eps;
  let closure p =
    let seen = marked succ [ p ] in
    List.filter (fun i -> seen.(i)) (List.init n Fun.id)
  in
  let closed = Array.init n closure in
  let starts' =
    List.sort_uniq Int.compare (List.concat_map (fun s -> closed.(s)) starts)
  in
  let delta' =
    List.concat_map
      (fun (p, a, q) -> List.map (fun q' -> (p, a, q')) closed.(q))
      trans
  in
  (* reachability from the closed starts over the closed transitions *)
  let by_src = Array.make n [] in
  List.iter (fun (p, _, q) -> by_src.(p) <- q :: by_src.(p)) delta';
  restrict (marked by_src starts')
    { n; starts = starts'; finals; delta = delta' }

(* ---------- Thompson construction ---------- *)

let of_regex e =
  let n = ref 0 in
  let fresh () =
    let s = !n in
    incr n;
    s
  in
  let trans = ref [] and eps = ref [] in
  let rec go = function
    | Rpq.Eps ->
        let s = fresh () in
        (s, s)
    | Rpq.Sym (r, d) ->
        let s = fresh () and f = fresh () in
        trans := (s, { rel = r; back = d = Rpq.Bwd }, f) :: !trans;
        (s, f)
    | Rpq.Seq (a, b) ->
        let sa, fa = go a in
        let sb, fb = go b in
        eps := (fa, sb) :: !eps;
        (sa, fb)
    | Rpq.Alt (a, b) ->
        let s = fresh () and f = fresh () in
        let sa, fa = go a in
        let sb, fb = go b in
        eps := (s, sa) :: (s, sb) :: (fa, f) :: (fb, f) :: !eps;
        (s, f)
    | Rpq.Star a ->
        let s = fresh () in
        let sa, fa = go a in
        eps := (s, sa) :: (fa, s) :: !eps;
        (s, s)
    | Rpq.Plus a ->
        let sa, fa = go a in
        eps := (fa, sa) :: !eps;
        (sa, fa)
    | Rpq.Opt a ->
        let s = fresh () and f = fresh () in
        let sa, fa = go a in
        eps := (s, sa) :: (s, f) :: (fa, f) :: !eps;
        (s, f)
  in
  let s0, f0 = go e in
  of_raw ~n:!n ~starts:[ s0 ] ~finals:[ f0 ] ~trans:!trans ~eps:!eps

(* ---------- membership / structure ---------- *)

let nullable a = List.exists (fun s -> List.mem s a.finals) a.starts

let accepts a w =
  let step states l =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun (p, l', q) ->
           if compare_letter l l' = 0 && List.mem p states then Some q
           else None)
         a.delta)
  in
  let final = List.fold_left step a.starts w in
  List.exists (fun s -> List.mem s a.finals) final

(* ---------- determinization ---------- *)

exception Capped

(* Subset construction over an explicit alphabet, always total: the
   empty subset is the sink, and every (state, letter) has exactly one
   successor.  Subsets are keyed by their sorted element list.  [cap]
   bounds the number of DFA states; reaching it raises [Capped]. *)
let subset_dfa ~cap ~alphabet a =
  let alphabet = List.sort_uniq compare_letter alphabet in
  let tbl = Hashtbl.create 16 in
  let states = ref [] and count = ref 0 in
  let intern set =
    match Hashtbl.find_opt tbl set with
    | Some i -> i
    | None ->
        let i = !count in
        if i = cap then raise Capped;
        incr count;
        Hashtbl.add tbl set i;
        states := (set, i) :: !states;
        i
  in
  let step set l =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun (p, l', q) ->
           if compare_letter l l' = 0 && List.mem p set then Some q else None)
         a.delta)
  in
  let start = intern (List.sort_uniq Int.compare a.starts) in
  let delta = ref [] in
  let rec explore (set, i) =
    List.iter
      (fun l ->
        let set' = step set l in
        let known = Hashtbl.mem tbl set' in
        let j = intern set' in
        delta := (i, l, j) :: !delta;
        if not known then explore (set', j))
      alphabet
  in
  explore (List.find (fun (_, i) -> i = start) !states);
  let finals =
    List.filter_map
      (fun (set, i) ->
        if List.exists (fun s -> List.mem s a.finals) set then Some i
        else None)
      !states
  in
  { n = !count; starts = [ start ]; finals; delta = !delta }

let determinize ~alphabet a = subset_dfa ~cap:max_int ~alphabet a

let complement ~alphabet a =
  let d = determinize ~alphabet a in
  { d with finals = List.filter (fun s -> not (List.mem s d.finals)) (List.init d.n Fun.id) }

(* ---------- minimization ---------- *)

let trim a =
  let fwd = Array.make a.n [] and bwd = Array.make a.n [] in
  List.iter
    (fun (p, _, q) ->
      fwd.(p) <- q :: fwd.(p);
      bwd.(q) <- p :: bwd.(q))
    a.delta;
  let reach = marked fwd a.starts and coreach = marked bwd a.finals in
  restrict (Array.init a.n (fun p -> reach.(p) && coreach.(p))) a

(* Moore partition refinement of a total DFA: split the states by
   finality, then by the classes of their successors letter by letter,
   until the partition is stable, and take the quotient.  Classes are
   numbered by first occurrence in state order, so the start, state 0
   of [subset_dfa], stays state 0. *)
let moore d =
  let succ = Array.make d.n [] in
  List.iter (fun (p, l, q) -> succ.(p) <- (l, q) :: succ.(p)) d.delta;
  let succ =
    Array.map (List.sort (fun (l, _) (l', _) -> compare_letter l l')) succ
  in
  let refine cls =
    let ids = Hashtbl.create d.n in
    Array.init d.n (fun p ->
        let key = (cls.(p), List.map (fun (_, q) -> cls.(q)) succ.(p)) in
        match Hashtbl.find_opt ids key with
        | Some c -> c
        | None ->
            let c = Hashtbl.length ids in
            Hashtbl.add ids key c;
            c)
  in
  let count cls = Array.fold_left (fun m c -> max m (c + 1)) 0 cls in
  let rec fix cls =
    let cls' = refine cls in
    if count cls' = count cls then cls else fix cls'
  in
  let cls =
    fix (refine (Array.init d.n (fun p -> Bool.to_int (List.mem p d.finals))))
  in
  let map = List.map (fun p -> cls.(p)) in
  {
    n = count cls;
    starts = map d.starts;
    finals = List.sort_uniq Int.compare (map d.finals);
    delta =
      List.sort_uniq Stdlib.compare
        (List.map (fun (p, l, q) -> (cls.(p), l, cls.(q))) d.delta);
  }

(* The subset construction runs over the trimmed NFA's own letters and
   may build the trimmed NFA's state count plus one (the sink, which
   the final [trim] drops with every other dead state); past that it
   gives up, so it never takes exponential time.  A minimal DFA that
   still ends up larger than the trimmed NFA is discarded for it too. *)
let minimize a =
  let a = trim a in
  match subset_dfa ~cap:(a.n + 1) ~alphabet:(letters a) a with
  | exception Capped -> a
  | d ->
      let m = trim (moore d) in
      if m.n > a.n then a else m

(* ---------- tree-automaton encoding ---------- *)

(* A word [a1 … ak] is the unary tree with root labeled [a1], one child
   per next letter, and the leaf labeled ["$"].  A bottom-up automaton
   reads it right-to-left, so the NFA's FINAL states are assigned at the
   leaf and its START states accept at the root:

     leaf  $            → f            for every final f
     child q, letter a  → p            for every transition (p, a, q)
     accepting root states             = starts

   [Nta.product] then computes word-language intersections for free —
   symbols match exactly because both sides encode letters the same
   way. *)

let sym_of_letter l : Nta.sym =
  { label = [ (letter_to_string l, []) ]; edges = [ [] ] }

let leaf_sym : Nta.sym = { label = [ ("$", []) ]; edges = [] }

let to_nta a =
  let leaf =
    List.map
      (fun f -> { Nta.children = []; sym = leaf_sym; target = f })
      a.finals
  in
  let steps =
    List.map
      (fun (p, l, q) ->
        { Nta.children = [ q ]; sym = sym_of_letter l; target = p })
      a.delta
  in
  (* an automaton with no states at all is illegal for [Nta.make] *)
  Nta.make ~n_states:(max 1 a.n) ~finals:a.starts (leaf @ steps)

let letter_of_label = function
  | [ (name, ([] : int list)) ] when name <> "$" ->
      let k = String.length name in
      if k > 1 && name.[k - 1] = '^' then
        { rel = String.sub name 0 (k - 1); back = true }
      else { rel = name; back = false }
  | _ -> invalid_arg "Rpq_nfa: not a letter label"

let rec word_of_code (c : Code.t) =
  match c.Code.children with
  | [] -> []
  | [ (_, child) ] -> letter_of_label c.Code.label :: word_of_code child
  | _ -> invalid_arg "Rpq_nfa: not a unary code"

let witness a =
  match Nta.witness (to_nta a) with
  | None -> None
  | Some c -> Some (word_of_code c)

let is_empty a = Nta.is_empty (to_nta a)

let inter_witness a b =
  match Nta.witness (Nta.product (to_nta a) (to_nta b)) with
  | None -> None
  | Some c -> Some (word_of_code c)

let subseteq ~alphabet a b = inter_witness a (complement ~alphabet b)

let pp ppf a =
  Fmt.pf ppf "@[<v>states=%d starts=%a finals=%a@,%a@]" a.n
    Fmt.(list ~sep:comma int)
    a.starts
    Fmt.(list ~sep:comma int)
    a.finals
    Fmt.(
      list ~sep:cut (fun ppf (p, l, q) ->
          pf ppf "%d -%s-> %d" p (letter_to_string l) q))
    a.delta
