(* Both active domains are interned as dense integers: source elements
   0..n-1, target elements 0..m-1.  A source fact keeps its relation
   (name and arity, interned, so [U(a)] and [E(x,a)] never share a
   table) and its element array; the target facts of each relation form
   an exact membership set of element arrays. *)

module Tuples = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go j = j = n || (a.(j) = b.(j) && go (j + 1)) in
    go 0

  let hash (a : t) = Array.fold_left (fun h x -> (h * 65599) + x) 0 a land max_int
end)

(* [probe] is the fact's own buffer for target lookups *)
type fact = { rel : int; args : int array; probe : int array }

type ctx = {
  n : int;
  m : int;
  src_idx : (Const.t, int) Hashtbl.t;
  dst_idx : (Const.t, int) Hashtbl.t;
  facts : fact list;
  targets : unit Tuples.t array;  (** indexed by [fact.rel] *)
}

let context i i' =
  let intern inst =
    let tbl = Hashtbl.create 64 in
    Const.Set.iter (fun c -> Hashtbl.replace tbl c (Hashtbl.length tbl)) (Instance.adom inst);
    tbl
  in
  let src_idx = intern i and dst_idx = intern i' in
  let rels = Hashtbl.create 16 in
  let facts =
    List.map
      (fun (f : Fact.t) ->
        let key = (f.rel, Array.length f.args) in
        let rel =
          match Hashtbl.find_opt rels key with
          | Some r -> r
          | None ->
              let r = Hashtbl.length rels in
              Hashtbl.add rels key r;
              r
        in
        let args = Array.map (Hashtbl.find src_idx) f.args in
        { rel; args; probe = Array.make (Array.length args) 0 })
      (Instance.facts i)
  in
  let targets = Array.init (Hashtbl.length rels) (fun _ -> Tuples.create 64) in
  Instance.iter
    (fun (f : Fact.t) ->
      match Hashtbl.find_opt rels (f.rel, Array.length f.args) with
      | Some r -> Tuples.replace targets.(r) (Array.map (Hashtbl.find dst_idx) f.args) ()
      | None -> ())
    i';
  {
    n = Hashtbl.length src_idx;
    m = Hashtbl.length dst_idx;
    src_idx;
    dst_idx;
    facts;
    targets;
  }

(* Does [f] hold under [asg] (source element -> target element, -1 when
   unassigned)?  A fact with an unassigned element holds vacuously. *)
let holds c asg f =
  let a = f.args in
  let rec fill j =
    j = Array.length a
    ||
    let b = asg.(a.(j)) in
    b >= 0
    && begin
         f.probe.(j) <- b;
         fill (j + 1)
       end
  in
  (not (fill 0)) || Tuples.mem c.targets.(f.rel) f.probe

(* Does [p] hold of every [s]-subset of 0..n-1?  Each subset is passed as
   a sorted array, one buffer reused across calls. *)
let for_all_subsets n s p =
  let xs = Array.make s 0 in
  let rec go j lo =
    if j = s then p xs
    else
      let rec from x =
        x > n - s + j
        || begin
             xs.(j) <- x;
             go (j + 1) (x + 1)
           end
           && from (x + 1)
      in
      from lo
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* The dense family.  Level s holds the C(n,s)·m^s maps with an
   s-element domain.  A map's id is [off.(s) + rank·m^s + img]: [rank] is
   the colex rank of its sorted domain x_0 < … < x_{s-1}, the sum of
   C(x_j, j+1), and [img] its image tuple in base m, digit j being the
   image of x_j. *)

type layout = {
  k : int;  (** pebbles, at most n *)
  ndom : int array;  (** ndom.(s) = C(n,s) *)
  pw : int array;  (** pw.(s) = m^s *)
  off : int array;  (** first id of level s; off.(k+1) is the number of maps *)
  binom : int array array;  (** binom.(x).(j) = C(x,j) for x < n, j ≤ k *)
}

(* Ceiling on the bytes [kconsistent] allocates for one game. *)
let max_bytes = 1 lsl 28

let layout ~k n m =
  let fail () =
    invalid_arg
      (Printf.sprintf
         "Pebble.kconsistent: the %d-pebble game on %d source and %d target \
          elements needs more than %d MiB"
         k n m (max_bytes lsr 20))
  in
  let add a b = if a > max_int - b then fail () else a + b in
  let mul a b = if b <> 0 && a > max_int / b then fail () else a * b in
  let ndom = Array.make (k + 1) 1 and pw = Array.make (k + 1) 1 in
  let off = Array.make (k + 2) 0 and doms = ref 0 in
  for s = 0 to k do
    if s > 0 then begin
      ndom.(s) <- mul ndom.(s - 1) (n - s + 1) / s;
      pw.(s) <- mul pw.(s - 1) m
    end;
    off.(s + 1) <- add off.(s) (mul ndom.(s) pw.(s));
    doms := add !doms (mul ndom.(s) (s + 1))
  done;
  (* alive bytes; the worklist and the support counts below level k,
     domain and fact tables, binomials *)
  let maps = off.(k + 1) in
  let words = add (mul (n + 1) off.(k)) (add !doms (mul n (k + 1))) in
  if add maps (mul 8 words) > max_bytes then fail ();
  let binom = Array.init n (fun _ -> Array.make (k + 1) 0) in
  for x = 0 to n - 1 do
    binom.(x).(0) <- 1;
    for j = 1 to k do
      if x > 0 then binom.(x).(j) <- binom.(x - 1).(j - 1) + binom.(x - 1).(j)
    done
  done;
  { k; ndom; pw; off; binom }

type family = {
  src_idx : (Const.t, int) Hashtbl.t;
  dst_idx : (Const.t, int) Hashtbl.t;
  l : layout;
  alive : Bytes.t;
  size : int;
}

let family_size f = f.size

let family_mem fam assoc =
  match
    List.map (fun (a, b) -> (Hashtbl.find fam.src_idx a, Hashtbl.find fam.dst_idx b)) assoc
  with
  | exception Not_found -> false
  | pairs ->
      let l = fam.l and pairs = Array.of_list (List.sort compare pairs) in
      let s = Array.length pairs in
      let rec functional j = j >= s || (fst pairs.(j - 1) < fst pairs.(j) && functional (j + 1)) in
      s <= l.k
      && functional 1
      &&
      let rank = ref 0 and img = ref 0 in
      Array.iteri
        (fun j (x, y) ->
          rank := !rank + l.binom.(x).(j + 1);
          img := !img + (y * l.pw.(j)))
        pairs;
      Bytes.get fam.alive (l.off.(s) + (!rank * l.pw.(s)) + !img) = '\001'

(* Support counting in the style of AC-4.  Seed the family with every
   partial homomorphism: a map is one iff its one-smaller restrictions
   are and the source facts over exactly its domain hold.  For every map
   f below level k and element a outside its domain, [counts] holds how
   many one-point extensions of f at a are alive.  A dying map kills its
   extensions (closure under restriction) and takes one from the count of
   each of its restrictions; a restriction whose count reaches 0 has lost
   the forth property and dies in turn.  What survives is the greatest
   winning family, whatever order the worklist runs in. *)
let kconsistent ~k i i' =
  if k < 0 then invalid_arg "Pebble.kconsistent: negative k";
  let c = context i i' in
  let n = c.n and m = c.m in
  if m = 0 && n > 0 then None
  else begin
    let l = layout ~k:(min k n) n m in
    let k = l.k and ndom = l.ndom and pw = l.pw and off = l.off and binom = l.binom in
    let rank xs =
      let r = ref 0 in
      Array.iteri (fun j x -> r := !r + binom.(x).(j + 1)) xs;
      !r
    in
    (* doms.(s): the sorted domains of level s, domain r at r·s *)
    let doms = Array.init (k + 1) (fun s -> Array.make (ndom.(s) * s) 0) in
    for s = 1 to k do
      ignore
        (for_all_subsets n s (fun xs ->
             Array.blit xs 0 doms.(s) (rank xs * s) s;
             true))
    done;
    (* the source facts whose set of elements is exactly a domain *)
    let dfacts = Array.init (k + 1) (fun s -> Array.make ndom.(s) []) in
    List.iter
      (fun f ->
        let xs = Array.of_list (List.sort_uniq compare (Array.to_list f.args)) in
        let s = Array.length xs in
        if s <= k then
          let r = rank xs in
          dfacts.(s).(r) <- f :: dfacts.(s).(r))
      c.facts;
    (* the map (s, r, img) without its i-th domain element *)
    let drop s r img i =
      let dom = doms.(s) and d = r * s in
      let r' = ref (r - binom.(dom.(d + i)).(i + 1)) in
      for j = i + 1 to s - 1 do
        let x = dom.(d + j) in
        r' := !r' - binom.(x).(j + 1) + binom.(x).(j)
      done;
      off.(s - 1) + (!r' * pw.(s - 1)) + (img mod pw.(i)) + (img / pw.(i + 1) * pw.(i))
    in
    (* [f a base stride] for each element a outside the domain of (s, r, img),
       s < k: its extension by a ↦ b is [base + b·stride] *)
    let iter_ext s r img f =
      let dom = doms.(s) and d = r * s in
      let p = ref 0 in
      for a = 0 to n - 1 do
        if !p < s && dom.(d + !p) = a then incr p
        else begin
          let p = !p in
          let r' = ref (r + binom.(a).(p + 1)) in
          for j = p to s - 1 do
            let x = dom.(d + j) in
            r' := !r' + binom.(x).(j + 2) - binom.(x).(j + 1)
          done;
          let lo = img mod pw.(p) and hi = img / pw.(p) in
          f a (off.(s + 1) + (!r' * pw.(s + 1)) + lo + (hi * pw.(p + 1))) pw.(p)
        end
      done
    in
    let alive = Bytes.make off.(k + 1) '\000' in
    let is_alive id = Bytes.get alive id = '\001' in
    let counts = Array.make (off.(k) * n) 0 in
    let size = ref 0 in
    let asg = Array.make n (-1) and rs = Array.make k 0 in
    for s = 0 to k do
      let dom = doms.(s) in
      for r = 0 to ndom.(s) - 1 do
        let d = r * s and fs = dfacts.(s).(r) in
        for j = 0 to s - 1 do
          asg.(dom.(d + j)) <- 0
        done;
        for img = 0 to pw.(s) - 1 do
          let rec restrictions i =
            i = s
            || begin
                 rs.(i) <- drop s r img i;
                 is_alive rs.(i) && restrictions (i + 1)
               end
          in
          if restrictions 0 && List.for_all (holds c asg) fs then begin
            Bytes.set alive (off.(s) + (r * pw.(s)) + img) '\001';
            incr size;
            for i = 0 to s - 1 do
              let ci = (rs.(i) * n) + dom.(d + i) in
              counts.(ci) <- counts.(ci) + 1
            done
          end;
          (* next image: asg holds the digits of img + 1 *)
          let rec carry j =
            if j < s then begin
              let x = dom.(d + j) in
              asg.(x) <- asg.(x) + 1;
              if asg.(x) = m then begin
                asg.(x) <- 0;
                carry (j + 1)
              end
            end
          in
          carry 0
        done;
        for j = 0 to s - 1 do
          asg.(dom.(d + j)) <- -1
        done
      done
    done;
    let decode id =
      let s = ref 0 in
      while id >= off.(!s + 1) do
        incr s
      done;
      let s = !s in
      (s, (id - off.(s)) / pw.(s), (id - off.(s)) mod pw.(s))
    in
    (* only maps below level k are queued, each at most once; a dying
       map of level k settles its restrictions' counts at once *)
    let queue = Array.make off.(k) 0 and top = ref 0 in
    let rec kill id =
      Bytes.set alive id '\000';
      decr size;
      if id < off.(k) then begin
        queue.(!top) <- id;
        incr top
      end
      else forth (decode id)
    (* each restriction loses one extension at the dropped element *)
    and forth (s, r, img) =
      for i = 0 to s - 1 do
        let g = drop s r img i in
        if is_alive g then begin
          let ci = (g * n) + doms.(s).((r * s) + i) in
          counts.(ci) <- counts.(ci) - 1;
          if counts.(ci) = 0 then kill g
        end
      done
    in
    for s = 0 to k - 1 do
      for r = 0 to ndom.(s) - 1 do
        for img = 0 to pw.(s) - 1 do
          let id = off.(s) + (r * pw.(s)) + img in
          if is_alive id then
            iter_ext s r img (fun a _ _ ->
                if counts.((id * n) + a) = 0 && is_alive id then kill id)
        done
      done
    done;
    (* a queued map kills its extensions (closure under restriction) *)
    while !top > 0 do
      decr top;
      let ((s, r, img) as f) = decode queue.(!top) in
      iter_ext s r img (fun _ base stride ->
          for b = 0 to m - 1 do
            if is_alive (base + (b * stride)) then kill (base + (b * stride))
          done);
      forth f
    done;
    if is_alive 0 then
      Some { src_idx = c.src_idx; dst_idx = c.dst_idx; l; alive; size = !size }
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
  let c = context i i' in
  let n = c.n and m = c.m in
  if n = 0 then true
  else if m = 0 then false
  else begin
    let k = min k n in
    (* facts by their largest element: a search over a sorted domain
       checks each fact as soon as its last element is assigned *)
    let by_max = Array.make n [] in
    List.iter
      (fun f ->
        if Array.length f.args > 0 then
          let x = Array.fold_left max 0 f.args in
          by_max.(x) <- f :: by_max.(x))
      c.facts;
    let asg = Array.make n (-1) in
    let fits x = List.for_all (holds c asg) by_max.(x) in
    let nullary_ok =
      List.for_all (fun f -> Array.length f.args > 0 || holds c asg f) c.facts
    in
    let good = Bytes.make (n * m) '\000' in
    let is_good x b = Bytes.get good ((x * m) + b) = '\001' in
    for x = 0 to n - 1 do
      for b = 0 to m - 1 do
        asg.(x) <- b;
        if nullary_ok && fits x then Bytes.set good ((x * m) + b) '\001'
      done;
      asg.(x) <- -1
    done;
    (* backtracking search for a valid all-good assignment of the sorted
       domain [xs]; [seed] (or -1) is an element already assigned *)
    let exists_assignment xs seed =
      let s = Array.length xs in
      let rec go j =
        j = s
        ||
        let x = xs.(j) in
        if x = seed then fits x && go (j + 1)
        else
          let rec try_b b =
            b < m
            && ((is_good x b
                && begin
                     asg.(x) <- b;
                     fits x && go (j + 1)
                   end)
               || try_b (b + 1))
          in
          let ok = try_b 0 in
          asg.(x) <- -1;
          ok
      in
      go 0
    in
    let rec all_domains s p = s > k || (for_all_subsets n s p && all_domains (s + 1) p) in
    let supported x b =
      asg.(x) <- b;
      let ok =
        all_domains 1 (fun xs -> (not (Array.mem x xs)) || exists_assignment xs x)
      in
      asg.(x) <- -1;
      ok
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for x = 0 to n - 1 do
        for b = 0 to m - 1 do
          if is_good x b && not (supported x b) then begin
            Bytes.set good ((x * m) + b) '\000';
            changed := true
          end
        done
      done
    done;
    (* duplicator must be able to answer any initial placement *)
    all_domains 1 (fun xs -> exists_assignment xs (-1))
  end
