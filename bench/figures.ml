(* Regeneration of the paper's figures as machine-checked constructions.

   F1 — Figure 1: the grid-like canonical test and the HA/VA adjacency CQs.
   F2 — Figure 2: the approximation of Qstart (the marked axes) and its
        view image (S = C × D).
   F3 — Figure 3: the diamond chain, its view image, and the pebble-game
        separation behind Theorem 7.
   F4 — Figure 4: the long row of R-rectangles. *)

let pf = Format.printf

let tp2 =
  {
    Tiling.tiles = [ "w"; "x" ];
    hc = [ ("w", "w"); ("x", "x") ];
    vc = [ ("w", "w"); ("x", "x") ];
    init = [ "w" ];
    final = [ "w" ];
  }

let figure1 () =
  pf "@.### F1 — Figure 1: grid tests and HA/VA ###@.";
  let q = Reduction.query tp2 in
  pf "  %-10s %-8s %-14s %-14s %s@." "grid" "facts" "HA pairs" "VA pairs" "Q on valid tiling";
  List.iter
    (fun (n, m) ->
      let t = Reduction.grid_test tp2 ~tau:(fun _ _ -> "w") n m in
      let ha = List.length (Cq.eval Reduction.ha_cq t) in
      let va = List.length (Cq.eval Reduction.va_cq t) in
      pf "  %-10s %-8d %-14d %-14d %b@."
        (Printf.sprintf "%dx%d" n m)
        (Instance.size t) ha va
        (Dl_engine.holds_boolean q t))
    [ (2, 2); (3, 3); (4, 4); (5, 5) ];
  (* HA semantics: z2 is the right neighbour of z1 *)
  let t = Reduction.grid_test tp2 ~tau:(fun _ _ -> "w") 3 3 in
  let expected = 2 * 3 in
  pf "  HA count on 3x3 = (n-1)*m = %d: %b@." expected
    (List.length (Cq.eval Reduction.ha_cq t) = expected)

let figure2 () =
  pf "@.### F2 — Figure 2: Qstart approximations and their view images ###@.";
  let views = Reduction.views tp2 in
  let q = Reduction.query tp2 in
  pf "  %-6s %-12s %-12s %-10s %s@." "ℓ" "axes facts" "image facts" "S facts" "S = C×D";
  List.iter
    (fun l ->
      let ax = Reduction.axes l in
      let img = View.image views ax in
      let s = List.length (Instance.tuples img "S") in
      pf "  %-6d %-12d %-12d %-10d %b@." l (Instance.size ax)
        (Instance.size img) s
        (s = l * l))
    [ 1; 2; 3; 4; 5 ];
  let ax = Reduction.axes 3 in
  pf "  Qstart holds on the axes: %b@." (Dl_engine.holds_boolean q ax)

let figure3 () =
  pf "@.### F3 — Figure 3: diamonds and the (1,k) game (Theorem 7) ###@.";
  pf "  %-4s %-10s %-10s %-8s %-8s %s@." "k" "I_k facts" "J_k facts" "Q(I_k)" "Q(I'_k)" "(1,k) win";
  List.iter
    (fun k ->
      let ik = Diamonds.chain k in
      let jk = View.image Diamonds.views ik in
      let i' = Diamonds.unravelled_counterexample ~k ~depth:2 in
      let v_i = View.image Diamonds.views ik in
      let v_i' = View.image Diamonds.views i' in
      let t0 = Sys.time () in
      let win = Pebble.one_k_consistent ~k v_i v_i' in
      pf "  %-4d %-10d %-10d %-8b %-8b %b (%.2fs)@." k (Instance.size ik)
        (Instance.size jk)
        (Dl_engine.holds_boolean Diamonds.query ik)
        (Dl_engine.holds_boolean Diamonds.query i')
        win (Sys.time () -. t0))
    [ 1; 2; 3 ]

let figure4 () =
  pf "@.### F4 — Figure 4: the long row of R-rectangles ###@.";
  let row n =
    Cq.make ~head:[]
      (List.init n (fun i ->
           Cq.atom "R"
             [
               Cq.Var (Printf.sprintf "y%d" i);
               Cq.Var (Printf.sprintf "z%d" i);
               Cq.Var (Printf.sprintf "y%d" (i + 1));
               Cq.Var (Printf.sprintf "z%d" (i + 1));
             ]))
  in
  let k = 2 in
  let v_i = View.image Diamonds.views (Diamonds.chain k) in
  let i' = Diamonds.unravelled_counterexample ~k ~depth:2 in
  let v_i' = View.image Diamonds.views i' in
  pf "  %-8s %-26s %s@." "length" "into V(I_k) (chain)" "into V(I'_k) (unravelled)";
  List.iter
    (fun n ->
      pf "  %-8d %-26b %b@." n
        (Cq.holds_boolean (row n) v_i)
        (Cq.holds_boolean (row n) v_i'))
    [ 1; 2; 3; 4 ];
  pf "  (rows longer than the chain fit in neither; the unravelled image@.";
  pf "   rejects already at length k+1 — the Figure 4 argument)@."
