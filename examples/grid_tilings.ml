(* Theorems 6 and 8: the tiling reduction, grid-shaped canonical tests,
   and the TP* construction whose grids are untilable yet k-consistent.

   Run with:  dune exec examples/grid_tilings.exe *)

let section title = Format.printf "@.== %s ==@." title

let () =
  section "A tiling problem and its reduction (Theorem 6)";
  let tp =
    {
      Tiling.tiles = [ "w"; "x" ];
      hc = [ ("w", "w"); ("x", "x") ];
      vc = [ ("w", "w"); ("x", "x") ];
      init = [ "w" ];
      final = [ "w" ];
    }
  in
  let q = Reduction.query tp in
  let views = Reduction.views tp in
  Format.printf "Q_TP: %d rules (%a); V_TP: %d views@."
    (List.length q.Datalog.program)
    Dl_fragment.pp_fragment
    (Dl_fragment.classify q)
    (List.length views);

  section "Grid tests (Figure 1)";
  let good = Reduction.grid_test tp ~tau:(fun _ _ -> "w") 3 3 in
  Format.printf "valid 3×3 tiling: Q = %b  (False = the test fails, TP solvable)@."
    (Dl_engine.holds_boolean q good);
  let bad = Reduction.grid_test tp ~tau:(fun i _ -> if i = 2 then "x" else "w") 3 3 in
  Format.printf "horizontally broken tiling: Q = %b (violation detected)@."
    (Dl_engine.holds_boolean q bad);

  section "Proposition 10 on an unsolvable problem";
  let tpu = Tiling.simple_unsolvable in
  let qu = Reduction.query tpu in
  Format.printf "TP has a solution ≤4×4: %b@."
    (Tiling.has_solution ~max:4 tpu <> None);
  let all_pass = ref true in
  List.iter
    (fun ta ->
      List.iter
        (fun tb ->
          let t =
            Reduction.grid_test tpu
              ~tau:(fun i _ -> if i = 1 then ta else tb)
              2 1
          in
          if not (Dl_engine.holds_boolean qu t) then all_pass := false)
        tpu.Tiling.tiles)
    tpu.Tiling.tiles;
  Format.printf "all 2×1 grid tests satisfy Q_TP: %b (⇒ consistent with determinacy)@."
    !all_pass;

  section "The view image of the axes (Figure 2)";
  let ax = Reduction.axes 3 in
  let img = View.image views ax in
  Format.printf "I_3 axes: %d facts;  V(I_3): %d facts, S-facts: %d (the C×D product)@."
    (Instance.size ax) (Instance.size img)
    (List.length (Instance.tuples img "S"));

  section "Theorem 8: the parity problem TP*";
  let tps = Parity.tp_star in
  Format.printf "TP*: %d tiles, %d HC pairs, %d VC pairs@."
    (List.length tps.Tiling.tiles)
    (List.length tps.Tiling.hc)
    (List.length tps.Tiling.vc);
  List.iter
    (fun (n, m) ->
      Format.printf "  grid %d×%d: tilable %-5b   →2 I_TP* (duplicator wins): %b@."
        n m
        (Tiling.can_tile (Tiling.grid n m) tps)
        (Pebble.duplicator_wins ~k:2 (Tiling.grid n m) (Tiling.structure tps)))
    [ (3, 3); (4, 3); (4, 4) ];
  Format.printf
    "untilable but k-consistent ⇒ the MDL query Q_TP* is monotonically@.";
  Format.printf
    "determined over the UCQ views V_TP* yet has no Datalog rewriting.@.";
  Format.printf "@.done.@."
