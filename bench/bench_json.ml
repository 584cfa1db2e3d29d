(* Machine-readable benchmark trajectory.

   [micro_tests] is one Bechamel benchmark per paper table/figure;
   [scale_tests] adds scaling series (grid size, diamond chain length) and
   raw engine throughput probes (join, homomorphism search, transitive
   closure) so that engine changes show up even when the paper workloads
   are too small to move.

     dune exec bench/main.exe -- micro   # pretty table of the paper suite
     dune exec bench/main.exe -- json    # full suite -> BENCH_eval.json

   The JSON file is the benchmark record kept under version control: one
   [{name; ns_per_run}] entry per benchmark, OLS ns/run estimates. *)

(* [open Toolkit] below shadows the relational [Instance] with Bechamel's *)
module Db = Instance

open Bechamel
open Toolkit

let tc_view =
  View.datalog "VT"
    (Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y).")

(* ------------------------------------------------------------------ *)
(* One benchmark per table / figure of the paper.                      *)

let micro_tests =
  let t1 =
    (* Table 1 workload: Prop 8 rewriting construction + one verification *)
    Test.make ~name:"table1/prop8-rewriting"
      (Staged.stage (fun () ->
           let q = Parse.cq "q() <- E(x,y), E(y,z)" in
           let rw = Md_rewrite.prop8_cq q [ tc_view ] in
           ignore
             (Cq.holds_boolean rw
                (View.image [ tc_view ] (Parse.instance "E(a,b). E(b,c).")))))
  in
  let t2 =
    (* Table 2 workload: the Theorem 5 decision on a small case *)
    Test.make ~name:"table2/thm5-decision"
      (Staged.stage (fun () ->
           ignore (Md_decide.cq_query (Parse.cq "q() <- E(x,y), E(y,z)") [ tc_view ])))
  in
  let f1 =
    Test.make ~name:"figure1/grid-test-3x3"
      (Staged.stage (fun () ->
           let tp = Tiling.simple_solvable in
           let t = Reduction.grid_test tp ~tau:(fun _ _ -> "w") 3 3 in
           ignore (Dl_engine.holds_boolean (Reduction.query tp) t)))
  in
  let f2 =
    Test.make ~name:"figure2/axes-image"
      (Staged.stage (fun () ->
           let tp = Tiling.simple_solvable in
           ignore (View.image (Reduction.views tp) (Reduction.axes 3))))
  in
  let f3 =
    Test.make ~name:"figure3/diamond-game"
      (Staged.stage (fun () ->
           let v_i = View.image Diamonds.views (Diamonds.chain 2) in
           ignore (Pebble.one_k_consistent ~k:2 v_i v_i)))
  in
  let f4 =
    Test.make ~name:"figure4/rectangle-row"
      (Staged.stage
         (let v_i = View.image Diamonds.views (Diamonds.chain 2) in
          let row =
            Cq.make ~head:[]
              [
                Cq.atom "R" [ Cq.Var "y0"; Cq.Var "z0"; Cq.Var "y1"; Cq.Var "z1" ];
                Cq.atom "R" [ Cq.Var "y1"; Cq.Var "z1"; Cq.Var "y2"; Cq.Var "z2" ];
              ]
          in
          fun () -> ignore (Cq.holds_boolean row v_i)))
  in
  let e6 =
    Test.make ~name:"e6/canonical-tests"
      (Staged.stage (fun () ->
           let tp = Tiling.simple_unsolvable in
           ignore
             (Md_tests.decide_bounded ~max_depth:3 (Reduction.query tp)
                (Reduction.views tp))))
  in
  let e8 suffix n =
    (* the n×n grid; 4×4 is where the deletion sweep cost most *)
    Test.make ~name:("e8/tp-star-2-consistency" ^ suffix)
      (Staged.stage
         (let g = Tiling.grid n n and s = Tiling.structure Parity.tp_star in
          fun () -> ignore (Pebble.duplicator_wins ~k:2 g s)))
  in
  let e9 =
    Test.make ~name:"e9/separator-2^10"
      (Staged.stage (fun () -> ignore (Tm.steps Tm.binary_counter "0000000000")))
  in
  let e11 =
    Test.make ~name:"e11/fwd-bwd-pipeline"
      (Staged.stage
         (let q =
            Parse.query ~goal:"G"
              "P(x) <- U(x). P(x) <- R(x,y), P(y). G <- P(x), S(x)."
          in
          let views =
            [ View.atomic "VR" "R" 2; View.atomic "VU" "U" 1; View.atomic "VS" "S" 1 ]
          in
          fun () -> ignore (Md_rewrite.forward_backward_atomic q views)))
  in
  let e13 n =
    (* E13's full Theorem 5 pipeline on the n-path over the tc view:
       composition, the forward NTA and the emptiness check *)
    Test.make
      ~name:(Printf.sprintf "e13/thm5-path%d" n)
      (Staged.stage
         (let v i = Cq.Var (Printf.sprintf "x%d" i) in
          let q = Cq.make ~head:[] (List.init n (fun i -> Cq.atom "E" [ v i; v (i + 1) ])) in
          fun () ->
            let q'' =
              Md_decide.compose_with_views (Datalog.of_cq ~goal:"G0" q) [ tc_view ]
            in
            let nta, _ = Forward.approximations_nta q'' in
            ignore (Run.check_empty nta (Cq_dta.make ~negate:true q))))
  in
  Test.make_grouped ~name:"mondet"
    [ t1; t2; f1; f2; f3; f4; e6; e8 "" 3; e8 "-4x4" 4; e9; e11; e13 4; e13 5 ]

(* ------------------------------------------------------------------ *)
(* Scaling series and raw engine throughput.                           *)

let node i = Const.named (Printf.sprintf "n%d" i)

(* a chain 0 -> 1 -> ... -> n with a shortcut edge every fifth node, so
   joins have both long paths and branching *)
let chain_graph n =
  let edges = List.init n (fun i -> Fact.make "E" [ node i; node (i + 1) ]) in
  let shortcuts =
    List.filteri (fun i _ -> i mod 5 = 0) (List.init (n - 5) (fun i -> i))
    |> List.map (fun i -> Fact.make "E" [ node i; node (i + 5) ])
  in
  Db.of_list (edges @ shortcuts)

let scale_tests =
  let grid n =
    Test.make ~name:(Printf.sprintf "grid-test-%dx%d" n n)
      (Staged.stage (fun () ->
           let tp = Tiling.simple_solvable in
           let t = Reduction.grid_test tp ~tau:(fun _ _ -> "w") n n in
           ignore (Dl_engine.holds_boolean (Reduction.query tp) t)))
  in
  let diamond n =
    Test.make ~name:(Printf.sprintf "diamond-chain-%d" n)
      (Staged.stage (fun () ->
           ignore (Dl_engine.holds_boolean Diamonds.query (Diamonds.chain n))))
  in
  let hom =
    (* homomorphism search of a 5-edge path pattern into the graph *)
    Test.make ~name:"raw/hom-path5"
      (Staged.stage
         (let g = chain_graph 256 in
          let pat =
            Cq.make ~head:[]
              (List.init 5 (fun i ->
                   Cq.atom "E"
                     [
                       Cq.Var (Printf.sprintf "v%d" i);
                       Cq.Var (Printf.sprintf "v%d" (i + 1));
                     ]))
          in
          fun () -> ignore (Cq.holds_boolean pat g)))
  in
  (* raw engine probes, through the bytecode VM (the rows keep the -vm
     names they had when an interpreted matcher ran beside them) *)
  let join_vm =
    (* one three-way join, no recursion: isolates planner + index lookup *)
    Test.make ~name:"raw/join-path3-vm"
      (Staged.stage
         (let g = chain_graph 256 in
          let q =
            Parse.query ~goal:"Q" "Q(x,w) <- E(x,y), E(y,z), E(z,w)."
          in
          fun () -> ignore (Dl_engine.eval ~strategy:Dl_engine.Vm q g)))
  in
  let tc_vm =
    (* recursive fixpoint: transitive closure of a 64-chain, ~2k derived
       facts, exercises the semi-naive delta rounds *)
    Test.make ~name:"raw/tc-chain-64-vm"
      (Staged.stage
         (let g = chain_graph 64 in
          let q =
            Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."
          in
          fun () -> ignore (Dl_engine.eval ~strategy:Dl_engine.Vm q g)))
  in
  Test.make_grouped ~name:"scale"
    (List.map grid [ 3; 4; 5; 6; 7; 8 ]
    @ List.map diamond [ 2; 3; 4; 5; 6 ]
    @ [ hom; join_vm; tc_vm ])

(* ------------------------------------------------------------------ *)
(* Engine probes on both sides of the planner's rule: point goals whose
   binding reaches every recursive predicate (the magic arm), and
   all-free Boolean goals and anchored RPQ goals (the VM).             *)

let engine_tests =
  let row name f = Test.make ~name (Staged.stage f) in
  let e6 =
    (* the Theorem 6 canonical-test search: every test is a Boolean
       holds_boolean *)
    let tp = Tiling.simple_unsolvable in
    let q = Reduction.query tp and views = Reduction.views tp in
    row "e6-decide" (fun () ->
        ignore (Md_tests.decide_bounded ~max_depth:3 q views))
  in
  let grid =
    let tp = Tiling.simple_solvable in
    let q = Reduction.query tp in
    let t = Reduction.grid_test tp ~tau:(fun _ _ -> "w") 3 3 in
    row "grid3x3" (fun () -> ignore (Dl_engine.holds_boolean q t))
  in
  let diamond =
    let i = Diamonds.chain 5 in
    row "diamond5" (fun () ->
        ignore (Dl_engine.holds_boolean Diamonds.query i))
  in
  let tc_point =
    (* point query on a 256-node graph: demand from the bound goal tuple
       keeps the magic fixpoint to a suffix of the chain, where the plain
       VM computes the full closure *)
    let g = chain_graph 256 in
    let q = Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)." in
    row "tc256-point" (fun () ->
        ignore (Dl_engine.holds q g [| node 250; node 255 |]))
  in
  let sg_point =
    (* same-generation of two leaves of a 255-node binary tree: the
       binding reaches S#bb and S#bf, so the planner runs magic *)
    let tree =
      Db.of_list
        (List.init 254 (fun k -> Fact.make "E" [ node (k / 2); node (k + 1) ]))
    in
    let q =
      Parse.query ~goal:"S"
        "S(x,y) <- E(p,x), E(p,y). S(x,y) <- E(p,x), S(p,q), E(q,y)."
    in
    row "sg-tree-point" (fun () ->
        ignore (Dl_engine.holds q tree [| node 127; node 254 |]))
  in
  let rpq_holds =
    (* mondetbench serve-churn's graph and RPQ, one (x, y) membership:
       each call builds a fresh anchored program, so the planner finds
       its transform by fingerprint, never physically; an all-free state
       relation sends the goal to the VM *)
    let churn =
      Rpq_graph.scale_free ~seed:7919 ~labels:[ "knows"; "follows" ]
        ~nodes:1536 ~edges:2000 ()
    in
    let q = Rpq.parse "(knows|follows)*.follows" in
    row "rpq-holds-churn" (fun () ->
        ignore (Rpq_translate.holds q churn (node 700) (node 3)))
  in
  let thm9 =
    (* the Theorem 9 query on a full run encoding: separator work is
       query evaluation over the run string *)
    let m = Tm.binary_counter_parity in
    let q = Th9.query m in
    let i = Encode.encode_run m "000" in
    row "thm9-separator" (fun () -> ignore (Dl_engine.holds_boolean q i))
  in
  let chase_replay =
    (* Any + All on the same image: the second traversal must hit the
       memoized chase prefix in Md_separator *)
    Test.make ~name:"chase-replay"
      (Staged.stage
         (let views = Diamonds.views in
          let j = View.image views (Diamonds.chain 2) in
          fun () ->
            ignore
              (Md_separator.chase_separator ~mode:Md_separator.Any
                 ~max_chases:32 Diamonds.query views j);
            ignore
              (Md_separator.chase_separator ~mode:Md_separator.All
                 ~max_chases:32 Diamonds.query views j)))
  in
  Test.make_grouped ~name:"engine"
    [ e6; grid; diamond; tc_point; sg_point; rpq_holds; thm9; chase_replay ]

(* ------------------------------------------------------------------ *)
(* Decision-service probes: the request path through Svc_service with a
   cold cache (service construction + load + one full evaluation per
   run) vs a warm cache (the steady state: line parse + canonical-form
   digest + LRU hit), plus a mixed batch through the sequential
   dispatcher.  All single-threaded — the pool-dispatch path is
   exercised by the test suite, not timed here.                        *)

let service_tests =
  let load_prog =
    "l1 load s program tc goal T : T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."
  in
  let load_inst =
    "l2 load s instance i : "
    ^ String.concat " "
        (List.init 31 (fun i -> Printf.sprintf "E(n%d,n%d)." i (i + 1)))
  in
  let feed svc line = ignore (Svc_service.handle_line svc line) in
  let cold =
    Test.make ~name:"eval-cold"
      (Staged.stage (fun () ->
           let svc = Svc_service.create () in
           feed svc load_prog;
           feed svc load_inst;
           feed svc "q1 eval s tc i"))
  in
  let warm =
    Test.make ~name:"eval-warm"
      (Staged.stage
         (let svc = Svc_service.create () in
          feed svc load_prog;
          feed svc load_inst;
          feed svc "q1 eval s tc i";
          fun () -> feed svc "q1 eval s tc i"))
  in
  let batch =
    (* a warm 8-request mixed batch through handle_lines: per-request
       dispatch overhead with every answer cached *)
    Test.make ~name:"batch8-warm"
      (Staged.stage
         (let svc = Svc_service.create () in
          feed svc load_prog;
          feed svc load_inst;
          let lines =
            List.init 8 (fun k ->
                if k mod 2 = 0 then Printf.sprintf "q%d eval s tc i" k
                else Printf.sprintf "q%d holds s tc i (n0,n%d)" k (k * 3))
          in
          ignore (Svc_service.handle_lines svc lines);
          fun () -> ignore (Svc_service.handle_lines svc lines)))
  in
  let key_digest n =
    (* cache-key construction alone, at two instance sizes: fingerprint
       keys are O(1) in the instance, so the two rows must coincide
       (the legacy printed keys scaled linearly here) *)
    Test.make ~name:(Printf.sprintf "key-digest-%d" n)
      (Staged.stage
         (let q =
            Parse.query ~goal:"T"
              "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."
          in
          let i =
            Db.of_list
              (List.init n (fun k -> Fact.make "E" [ node k; node (k + 1) ]))
          in
          fun () ->
            ignore
              (String.concat ":"
                 [ "eval"; Datalog.fingerprint_hex q; Db.fingerprint_hex i ])))
  in
  Test.make_grouped ~name:"service"
    [ cold; warm; batch; key_digest 32; key_digest 2048 ]

(* ------------------------------------------------------------------ *)
(* Incremental-maintenance probes (Dl_incr): a cold materialization
   build on the tc 128-chain vs repairing an existing one after
   single-fact and batch-32 mutations, plus the same cold/batch pair
   for a two-stratum non-recursive join program on a random graph.
   Every run mutates and then undoes, so the materialization re-enters
   each run in its start state; the reported time is the mutate+undo
   PAIR (two repairs).  The headline comparison is incr/tc-128-assert-1
   (two repairs) against incr/tc-128-cold (one full fixpoint).        *)

let incr_tests =
  let q =
    Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."
  in
  let g = chain_graph 128 in
  let xnode i = Const.named (Printf.sprintf "x%d" i) in
  (* a 32-edge side chain hanging off node 0 *)
  let side =
    List.init 32 (fun i ->
        Fact.make "E" [ (if i = 0 then node 0 else xnode (i - 1)); xnode i ])
  in
  (* pendant edge off the chain's end: a light assert (~129 new paths) *)
  let pendant = [ Fact.make "E" [ node 128; xnode 0 ] ] in
  (* mid-chain edge: a load-bearing cut — 256 paths really go, while
     Backward/Forward finds alternative proofs through the shortcut
     edges for the paths that only seemed to depend on it *)
  let mid = [ Fact.make "E" [ node 63; node 64 ] ] in
  let cold =
    Test.make ~name:"tc-128-cold"
      (Staged.stage (fun () ->
           ignore (Dl_incr.create q.Datalog.program g)))
  in
  (* non-recursive strata: P(x,y) <- E(x,z), E(z,y). Q(x) <- P(x,x).
     over 1,500 random edges on 300 nodes (fixed seed); the cut
     retracts the first 32 edges drawn *)
  let joins =
    Parse.query ~goal:"Q" "P(x,y) <- E(x,z), E(z,y). Q(x) <- P(x,x)."
  in
  let st = Random.State.make [| 300 |] in
  let rand_edges =
    List.init 1500 (fun _ ->
        Fact.make "E"
          [ node (Random.State.int st 300); node (Random.State.int st 300) ])
  in
  let rg = Db.of_list rand_edges in
  let cut32 = List.filteri (fun i _ -> i < 32) rand_edges in
  let pair_with p name start ops =
    Test.make ~name
      (Staged.stage
         (let m = Dl_incr.create p start in
          fun () ->
            List.iter
              (fun (add, fs) ->
                if add then Dl_incr.assert_facts m fs
                else Dl_incr.retract_facts m fs)
              ops))
  in
  let pair = pair_with q.Datalog.program in
  Test.make_grouped ~name:"incr"
    [
      cold;
      pair "tc-128-assert-1" g [ (true, pendant); (false, pendant) ];
      pair "tc-128-retract-1" g [ (false, mid); (true, mid) ];
      pair "tc-128-assert-32" g [ (true, side); (false, side) ];
      pair "tc-128-retract-32"
        (Db.union g (Db.of_list side))
        [ (false, side); (true, side) ];
      Test.make ~name:"joins-rand-300-cold"
        (Staged.stage (fun () ->
             ignore (Dl_incr.create joins.Datalog.program rg)));
      pair_with joins.Datalog.program "joins-rand-300-retract-32" rg
        [ (false, cut32); (true, cut32) ];
    ]

(* ------------------------------------------------------------------ *)
(* RPQ probes: all-pairs and source-anchored evaluation of the Datalog
   translation on chain/grid/scale-free graphs, the view-rewriting
   automaton construction alone (pure automata work, no evaluation),
   and certain answers through a lossless rewriting — the direct vs
   rewritten trajectory at graph scale lives in E21.  Built on demand:
   picking the churn row's source evaluates the query from every node. *)

(* The source with the most answers to [q] on [g]. *)
let heaviest_source q g =
  fst
    (Const.Set.fold
       (fun s ((_, n) as best) ->
         let k = List.length (Rpq_translate.eval_from q g s) in
         if k > n then (s, k) else best)
       (Db.adom g) (Rpq_graph.node 0, -1))

let rpq_tests () =
  let star = Rpq.parse "e*" in
  let grid_q = Rpq.parse "(r|d)*" in
  let sf_q = Rpq.parse "(a|b)+" in
  let ksf_q = Rpq.parse "(k|k^)*.f" in
  let views = [ ("vk", Rpq.parse "k|k^"); ("vf", Rpq.parse "f") ] in
  let chain = Rpq_graph.chain 256 in
  let grid = Rpq_graph.grid 16 16 in
  let sf =
    Rpq_graph.scale_free ~labels:[ "a"; "b" ] ~nodes:512 ~edges:2048 ()
  in
  let kf =
    Db.union
      (Rpq_graph.scale_free ~labels:[ "k" ] ~nodes:128 ~edges:256 ())
      (Db.of_list
         (List.init 32 (fun i ->
              Fact.make "f" [ Rpq_graph.node i; Rpq_graph.node (i + 128) ])))
  in
  (* mondetbench serve-churn's graph shape and one of its two RPQs, from
     the source that reaches the most of it: the anchored evaluation
     behind that workload's RPQ misses *)
  let churn =
    Rpq_graph.scale_free ~seed:7919 ~labels:[ "knows"; "follows" ] ~nodes:1536
      ~edges:2000 ()
  in
  let churn_q = Rpq.parse "(knows|follows)*.follows" in
  let churn_src = heaviest_source churn_q churn in
  Test.make_grouped ~name:"rpq"
    [
      Test.make ~name:"chain-256-star"
        (Staged.stage (fun () -> ignore (Rpq_translate.eval star chain)));
      Test.make ~name:"grid-16-anchored"
        (Staged.stage (fun () ->
             ignore
               (Rpq_translate.eval_from grid_q grid (Rpq_graph.grid_node 0 0))));
      Test.make ~name:"scale-free-2k-anchored"
        (Staged.stage (fun () ->
             ignore (Rpq_translate.eval_from sf_q sf (Rpq_graph.node 0))));
      Test.make ~name:"churn-anchored-1536"
        (Staged.stage (fun () ->
             ignore
               (Rpq_translate.eval_from churn_q churn churn_src)));
      Test.make ~name:"rewrite-construct"
        (Staged.stage (fun () ->
             ignore (Rpq_views.rewrite ~views ksf_q)));
      Test.make ~name:"certain-kf-128"
        (Staged.stage
           (let rw = Rpq_views.rewrite ~views ksf_q in
            fun () -> ignore (Rpq_views.certain rw kf)));
    ]

(* ------------------------------------------------------------------ *)
(* Bytecode-VM probes on recursive workloads: one wide join, many
   narrow rounds, and wide rounds of fat joins.                         *)

let vm_tests =
  let strategies = [ ("vm", Dl_engine.Vm) ] in
  let per_strategy name mk =
    List.map
      (fun (sname, s) ->
        Test.make
          ~name:(Printf.sprintf "vm-%s-%s" name sname)
          (Staged.stage (mk s)))
      strategies
  in
  let join =
    (* one wide round: a three-way join over 614 edges, no recursion *)
    let g = chain_graph 512 in
    let q = Parse.query ~goal:"Q" "Q(x,w) <- E(x,y), E(y,z), E(z,w)." in
    per_strategy "join3-512" (fun s () ->
        ignore (Dl_engine.eval ~strategy:s q g))
  in
  let tc =
    (* many narrow-to-medium semi-naive rounds over a 128-chain *)
    let g = chain_graph 128 in
    let q =
      Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."
    in
    per_strategy "tc-128" (fun s () -> ignore (Dl_engine.eval ~strategy:s q g))
  in
  let sg =
    (* same-generation: wide rounds with a fat three-way join each *)
    let g = chain_graph 192 in
    let q =
      Parse.query ~goal:"S"
        "S(x,y) <- E(p,x), E(p,y). S(x,y) <- E(p,x), S(p,q), E(q,y)."
    in
    per_strategy "sg-192" (fun s () -> ignore (Dl_engine.eval ~strategy:s q g))
  in
  Test.make_grouped ~name:"engine" (join @ tc @ sg)

(* ------------------------------------------------------------------ *)
(* Running and reporting.                                              *)

let run tests =
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> (name, t) :: acc
      | _ -> acc)
    results []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let pretty t =
  if t > 1e9 then Printf.sprintf "%.2f s" (t /. 1e9)
  else if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
  else if t > 1e3 then Printf.sprintf "%.2f µs" (t /. 1e3)
  else Printf.sprintf "%.0f ns" t

let print_rows rows =
  Format.printf "  %-34s %16s@." "benchmark" "time/run";
  List.iter
    (fun (name, t) -> Format.printf "  %-34s %16s@." name (pretty t))
    rows

let micro () =
  Format.printf "@.### Bechamel micro-benchmarks (one per table/figure) ###@.";
  print_rows (run micro_tests)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json ?(path = "BENCH_eval.json") () =
  Format.printf "@.### Bechamel benchmarks -> %s ###@." path;
  (* explicit sequencing: OCaml evaluates [@] operands right-to-left, so
     the blocks would otherwise run in reverse order *)
  let base_rows = run micro_tests in
  let scale_rows = run scale_tests in
  let engine_rows = run engine_tests in
  let service_rows = run service_tests in
  let incr_rows = run incr_tests in
  let rpq_rows = run (rpq_tests ()) in
  let vm_rows = run vm_tests in
  let rows =
    base_rows @ scale_rows @ engine_rows @ service_rows @ incr_rows
    @ rpq_rows @ vm_rows
  in
  print_rows rows;
  let oc = open_out path in
  output_string oc "{\n";
  output_string oc "  \"schema\": \"mondet-bench/1\",\n";
  output_string oc "  \"unit\": \"ns_per_run\",\n";
  output_string oc "  \"benchmarks\": [\n";
  List.iteri
    (fun i (name, t) ->
      Printf.fprintf oc "    {\"name\": \"%s\", \"ns_per_run\": %.2f}%s\n"
        (json_escape name) t
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Format.printf "@.wrote %s (%d benchmarks).@." path (List.length rows)
