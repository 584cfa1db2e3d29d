(* Workload generation.  Every input is a pure function of the seed (and
   of the size, [Tiny] for the benchmark's own smoke tests): the program
   under test only ever receives the generated request lines or job
   parameters.

   Mixes are stratified: each stream is a sequence of blocks with a fixed
   count per request class, shuffled by the seed, so every seed exercises
   the same proportions and per-seed spread comes from the inputs
   themselves, not from a drifting mix. *)

type size = Full | Tiny

(* connections of serve-hot *)
let conns = 2

let rng seed salt = Random.State.make [| 0x6d6f6e; seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* An endless stream of classes: blocks holding [count] of each, each
   block shuffled. *)
let blocks st classes =
  let pending = ref [] in
  fun () ->
    (match !pending with
    | [] ->
        pending :=
          Array.to_list
            (shuffle st
               (Array.of_list
                  (List.concat_map (fun (c, k) -> List.init k (fun _ -> c)) classes)))
    | _ -> ());
    match !pending with
    | c :: rest ->
        pending := rest;
        c
    | [] -> assert false

let pick st a = a.(Random.State.int st (Array.length a))

let facts_text i =
  String.concat " "
    (List.map
       (fun (f : Fact.t) ->
         Printf.sprintf "%s(%s)." f.rel
           (String.concat "," (Array.to_list (Array.map Const.to_string f.args))))
       (Instance.facts i))

let edge a b = Printf.sprintf "E(%s,%s)." a b

let tc_rules = "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."

(* ------------------------------------------------------------------ *)
(* Serve workloads. *)

type serve = {
  setup : string list;  (** session loads, sent in lockstep before timing *)
  warm : string list;  (** one request per warmed cache key, lockstep *)
  streams : (unit -> string) array;  (** one request stream per connection *)
  key_space : int;  (** distinct read keys the streams can produce *)
}

(* serve-hot: three shared sessions and a key set of at most half the
   512-entry cache, every key warmed during set-up. *)
let hot ?(size = Full) ~seed () =
  let st = rng seed 1 in
  let len = match size with Full -> 24 | Tiny -> 6 in
  let perm = shuffle st (Array.init (len + 1) Fun.id) in
  let node i = Printf.sprintf "h%d" perm.(i) in
  let chain = String.concat " " (List.init len (fun i -> edge (node i) (node (i + 1)))) in
  let nodes, edges = match size with Full -> (128, 320) | Tiny -> (16, 40) in
  let g =
    Rpq_graph.scale_free ~seed ~labels:[ "knows"; "follows" ] ~nodes ~edges ()
  in
  let setup =
    [
      "s1 load tc program tc goal T : " ^ tc_rules;
      "s2 load tc instance ch : " ^ chain;
      "s3 load dia program tc goal T : " ^ tc_rules;
      "s4 load dia program reach goal Goal : Goal() <- T(x,y). " ^ tc_rules;
      "s5 load dia views v : V(x,y) <- E(x,y).";
      "s6 load dia instance i : E(a,b). E(b,c).";
      "s7 load dia instance vi : V(a,b). V(b,c).";
      "s8 rpq-load r q : q = knows*.follows ;";
      "s9 load r instance g : " ^ facts_text g;
    ]
  in
  let evals = [| "eval tc tc ch"; "eval dia tc i"; "eval dia reach i" |] in
  let holds =
    let pairs =
      shuffle st
        (Array.init ((len + 1) * (len + 1)) (fun k -> (k / (len + 1), k mod (len + 1))))
    in
    let n = min 160 (Array.length pairs / 2) in
    Array.append
      (Array.init n (fun k ->
           let i, j = pairs.(k) in
           Printf.sprintf "holds tc tc ch (%s,%s)" (node i) (node j)))
      [|
        "holds dia tc i (a,c)"; "holds dia tc i (a,b)"; "holds dia tc i (c,a)";
      |]
  in
  let rpqs =
    Array.init 16 (fun _ ->
        Printf.sprintf "rpq-eval r q g (n%d)" (Random.State.int st nodes))
  in
  let heavy = [| "mondet-test dia reach v"; "certain-answers dia reach v vi" |] in
  let keys = Array.concat [ evals; holds; rpqs; heavy ] in
  let warm = Array.to_list (Array.mapi (Printf.sprintf "w%d %s") keys) in
  let stream c =
    let st = rng seed (100 + c) in
    let next_class =
      blocks st [ (evals, 3); (holds, 9); (rpqs, 4); (heavy, 2) ]
    in
    let seq = ref 0 in
    fun () ->
      let key = pick st (next_class ()) in
      incr seq;
      Printf.sprintf "c%dn%d %s" c !seq key
  in
  {
    setup;
    warm;
    streams = Array.init conns stream;
    key_space = List.length (List.sort_uniq compare (Array.to_list keys));
  }

(* any walk ending in a follows edge *)
(* Two RPQs of one shape: any walk ending in a follows edge, or in a
   knows edge.  Both explore the same part of the graph from a source and
   answer about as many nodes, so they cost about the same; together
   they double the key space, which keeps cache hits a small minority of
   the RPQ reads. *)
let churn_rpqs =
  [| ("qf", "(knows|follows)*.follows"); ("qk", "(knows|follows)*.knows") |]

(* The sources whose [qf] answer holds at least two thirds as many
   nodes as the largest answer: each anchored evaluation then costs about
   the same, so the latency distribution has one dense cluster of misses
   rather than a seed-dependent mix of cheap and expensive sources.
   Computed by breadth-first search over the shape. *)
let heavy_sources ~nodes ~index g =
  let succ = Array.make nodes [] and follows = Array.make nodes [] in
  Instance.iter
    (fun (f : Fact.t) ->
      let a = index f.args.(0) and b = index f.args.(1) in
      succ.(a) <- b :: succ.(a);
      if f.rel = "follows" then follows.(a) <- b :: follows.(a))
    g;
  let answers s =
    let seen = Array.make nodes false and hit = Array.make nodes false in
    let count = ref 0 in
    let rec visit = function
      | [] -> ()
      | x :: rest ->
          List.iter
            (fun y ->
              if not hit.(y) then begin
                hit.(y) <- true;
                incr count
              end)
            follows.(x);
          visit
            (List.fold_left
               (fun acc y ->
                 if seen.(y) then acc
                 else begin
                   seen.(y) <- true;
                   y :: acc
                 end)
               rest succ.(x))
    in
    seen.(s) <- true;
    visit [ s ];
    !count
  in
  let sizes = Array.init nodes (fun s -> if succ.(s) = [] then 0 else answers s) in
  let most = Array.fold_left max 0 sizes in
  List.filter (fun s -> sizes.(s) > 0 && 3 * sizes.(s) >= 2 * most) (List.init nodes Fun.id)

(* serve-churn: two session pairs, each an RPQ session over a scale-free
   graph and a tc session over a 128-chain with shortcuts, driven from
   one connection that alternates between the pairs. *)
let churn ?(size = Full) ~seed () =
  let pairs = 2 in
  let nodes, edges = match size with Full -> (1536, 2000) | Tiny -> (48, 120) in
  let clen = match size with Full -> 128 | Tiny -> 16 in
  let cnode k i = Printf.sprintf "k%dn%d" k i in
  let chain k =
    String.concat " "
      (List.init clen (fun i -> edge (cnode k i) (cnode k (i + 1)))
      @ List.filter_map
          (fun i ->
            if i mod 5 = 0 && i + 5 <= clen then
              Some (edge (cnode k i) (cnode k (i + 5)))
            else None)
          (List.init clen Fun.id))
  in
  (* one fixed scale-free shape, and per session pair a fixed popularity
     ranking of its heavy sources; the seed renames the nodes and draws
     the requests.  Every seed and pair thus serves isomorphic graphs
     with the same cost profile over popularity ranks: a source's cost
     depends on how much of the graph it reaches. *)
  let index c =
    let s = Const.to_string c in
    int_of_string (String.sub s 1 (String.length s - 1))
  in
  let shapes =
    Array.make pairs
      (Rpq_graph.scale_free ~seed:7919 ~labels:[ "knows"; "follows" ] ~nodes ~edges ())
  in
  let perms = Array.init pairs (fun k -> shuffle (rng seed (400 + k)) (Array.init nodes Fun.id)) in
  let name k i = Printf.sprintf "n%d" perms.(k).(i) in
  let graphs =
    Array.mapi (fun k g -> Instance.map (fun c -> Const.named (name k (index c))) g) shapes
  in
  let ranked =
    Array.mapi
      (fun k g ->
        let sources = heavy_sources ~nodes ~index g in
        Array.map (name k) (shuffle (rng 0 (500 + k)) (Array.of_list sources)))
      shapes
  in
  let setup =
    List.concat
      (List.init pairs (fun k ->
           [
             Printf.sprintf "s%da load c%d program tc goal T : %s" k k tc_rules;
             Printf.sprintf "s%db load c%d instance ch : %s" k k (chain k);
             Printf.sprintf "s%dc rpq-load g%d qs : %s" k k
               (String.concat " "
                  (Array.to_list
                     (Array.map (fun (q, e) -> Printf.sprintf "%s = %s ;" q e) churn_rpqs)));
             Printf.sprintf "s%dd load g%d instance gr : %s" k k
               (facts_text graphs.(k));
           ]))
  in
  (* the warm-up eval materializes each chain's fixpoint, which every
     later mutation then maintains incrementally *)
  let warm = List.init pairs (fun k -> Printf.sprintf "w%d eval c%d tc ch" k k) in
  let stream k =
    let st = rng seed (200 + k) in
    let popularity = ranked.(k) in
    let nsrc = Array.length popularity in
    (* per 20 requests: 13 anchored RPQs, 3 tc reads, 4 writes.  The
       cheap requests (tc reads, writes other than a cut, cache hits)
       stay well under half, so the median falls inside the cluster of
       RPQ misses rather than on the gap between two clusters, where a
       small shift of the mix would move it by milliseconds *)
    let next_class =
      blocks st
        [ (`Rpq, 14); (`Eval, 2); (`Holds, 1); (`Internal, 2); (`Side, 1) ]
    in
    (* cut positions and side-path lengths cycle through fixed sets; the
       cuts lie near the middle of the chain, where a cut's repair costs
       about the same wherever it falls, so the cuts form one tail
       cluster *)
    let cut_at =
      blocks st (List.init 5 (fun i -> ((clen / 2) + ((i - 2) * clen / 32), 1)))
    and side_len = blocks st [ (1, 1); (2, 1); (4, 1) ] in
    let removed = ref None and side = ref None and fresh = ref 0 in
    let seq = ref 0 in
    fun () ->
      let body =
        match next_class () with
        | `Rpq ->
            (* skewed sources: rank ~ u^1.5, so a quarter of the sources
               draws 40% of the requests *)
            let u = Random.State.float st 1.0 in
            let r = min (nsrc - 1) (int_of_float (float_of_int nsrc *. (u ** 1.5))) in
            Printf.sprintf "rpq-eval g%d %s gr (%s)" k (fst (pick st churn_rpqs))
              popularity.(r)
        | `Eval -> Printf.sprintf "eval c%d tc ch" k
        | `Holds ->
            let i = Random.State.int st (clen + 1)
            and j = Random.State.int st (clen + 1) in
            Printf.sprintf "holds c%d tc ch (%s,%s)" k (cnode k i) (cnode k j)
        | `Internal -> (
            (* load-bearing chain edges: cut one, later restore it *)
            match !removed with
            | None ->
                let i = cut_at () in
                let e = edge (cnode k i) (cnode k (i + 1)) in
                removed := Some e;
                Printf.sprintf "retract c%d ch : %s" k e
            | Some e ->
                removed := None;
                Printf.sprintf "assert c%d ch : %s" k e)
        | `Side -> (
            (* a fresh side path of 1, 2 or 4 edges, later retracted *)
            match !side with
            | None ->
                let b = side_len () in
                let anchor = cnode k (Random.State.int st (clen + 1)) in
                let x i = Printf.sprintf "x%d_%d" k (!fresh + i) in
                let es =
                  String.concat " "
                    (List.init b (fun i ->
                         edge (if i = 0 then anchor else x (i - 1)) (x i)))
                in
                fresh := !fresh + b;
                side := Some es;
                Printf.sprintf "assert c%d ch : %s" k es
            | Some es ->
                side := None;
                Printf.sprintf "retract c%d ch : %s" k es)
      in
      incr seq;
      Printf.sprintf "c%dn%d %s" k !seq body
  in
  (* one connection carries both session pairs' requests, alternating *)
  let subs = Array.init pairs stream and turn = ref (-1) in
  let one () =
    turn := (!turn + 1) mod pairs;
    subs.(!turn) ()
  in
  {
    setup;
    warm;
    streams = [| one |];
    key_space =
      Array.length churn_rpqs * Array.fold_left (fun a r -> a + Array.length r) 0 ranked;
  }

(* ------------------------------------------------------------------ *)
(* decide: in-process library jobs. *)

type kind =
  | Tiling of { solvable : bool; depth : int }
  | Cq of { star : bool; atoms : int }
  | Chase of { all : bool; k : int }
  | Pebble of { n : int; m : int }
  | Th9 of { word : string }
  | Fwd_bwd of { case : int }

type job = {
  kind : kind;
  fresh : int option;
      (** [Some n]: the job's program is renamed apart with suffix [n], so
          no plan or compile cache holds it *)
}

let describe j =
  let k =
    match j.kind with
    | Tiling { solvable; depth } ->
        Printf.sprintf "tiling %s depth=%d"
          (if solvable then "solvable" else "unsolvable")
          depth
    | Cq { star; atoms } ->
        Printf.sprintf "cq %s atoms=%d" (if star then "star" else "path") atoms
    | Chase { all; k } -> Printf.sprintf "chase %s k=%d" (if all then "all" else "any") k
    | Pebble { n; m } -> Printf.sprintf "pebble grid=%dx%d" n m
    | Th9 { word } -> Printf.sprintf "th9 word=%s" word
    | Fwd_bwd { case } -> Printf.sprintf "fwd-bwd case=%d" case
  in
  match j.fresh with None -> k | Some n -> Printf.sprintf "%s fresh=%d" k n

(* One block of 40 fully specified jobs, shuffled by the seed (which
   also picks each chase's mode): 21 unsolvable (15 at depth 2, 6 at
   depth 3) and 2 solvable tiling reductions, 6 CQs, 2 chases, 1 pebble
   game, 6 Th9 queries and 2 rewritings.  10 of the 40 (25%) are
   never-seen programs.  The 13 depth-2 unsolvable tilings that are not
   never-seen cost about the same and hold the median: 15 jobs are
   cheaper, 12 dearer, so the median falls inside that cluster, not on
   its edge, where a shift of a job or two would move it by half.  The
   one pebble game per block sets the tail. *)
let decide_block size =
  let j ?(fresh = false) kind = (kind, fresh) in
  let tiling solvable depth = Tiling { solvable; depth } in
  let max_atoms = match size with Full -> 4 | Tiny -> 3 in
  List.concat
    [
      List.init 15 (fun i -> j ~fresh:(i < 2) (tiling false 2));
      List.init 6 (fun i -> j ~fresh:(i < 2) (tiling false 3));
      List.map (fun d -> j (tiling true d)) [ 2; 3 ];
      List.concat_map
        (fun star ->
          List.map
            (fun atoms -> j ~fresh:(atoms = 3) (Cq { star; atoms = min atoms max_atoms }))
            [ 2; 3; 4 ])
        [ false; true ];
      List.map (fun k -> j (Chase { all = false; k })) [ 2; 4 ];
      [ j (match size with Full -> Pebble { n = 3; m = 3 } | Tiny -> Pebble { n = 2; m = 2 }) ];
      List.concat_map
        (fun word -> [ j (Th9 { word }); j ~fresh:(word <> "0") (Th9 { word }) ])
        [ "0"; "00"; "000" ];
      [ j ~fresh:true (Fwd_bwd { case = 0 }); j ~fresh:true (Fwd_bwd { case = 1 }) ];
    ]

(* Never-seen programs are renamed apart with one of [fresh_names]
   suffixes, each job class rotating through its own: more than the plan
   and compile caches hold (32 programs each), so a renamed program is
   always gone from them when it returns, while the symbol table, which
   every new name grows, stops growing once the rotation has gone round
   (its interning cost grows with its size, which would otherwise make a
   run speed up as fewer new names arrive). *)
let fresh_names = 40

(* jobs after which every class has gone round its rotation *)
let decide_rotation size = fresh_names * List.length (decide_block size)

let decide_jobs ?(size = Full) ~seed () =
  let st = rng seed 300 in
  let next = blocks st (List.map (fun job -> (job, 1)) (decide_block size)) in
  let counters = Hashtbl.create 16 in
  fun () ->
    let kind, fresh = next () in
    let kind =
      match kind with Chase c -> Chase { c with all = Random.State.bool st } | k -> k
    in
    let fresh =
      if fresh then begin
        let c = Option.value (Hashtbl.find_opt counters kind) ~default:0 in
        Hashtbl.replace counters kind (c + 1);
        Some (c mod fresh_names)
      end
      else None
    in
    { kind; fresh }
