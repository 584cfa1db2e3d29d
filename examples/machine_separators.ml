(* Theorem 9: separators may be arbitrarily expensive.  The query detects
   an encoded accepting run; the views expose only the input and the
   pre-run skeleton, so a separator has to replay the machine.

   Run with:  dune exec examples/machine_separators.exe *)

let section title = Format.printf "@.== %s ==@." title

let time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let () =
  section "Machines";
  List.iter
    (fun (m : Tm.t) ->
      Format.printf "  %-22s steps on 0^4: %d, 0^8: %d@." m.Tm.name
        (Tm.steps m "0000")
        (Tm.steps m "00000000"))
    [ Tm.zigzag; Tm.binary_counter; Tm.binary_counter_parity ];

  section "Run encodings and the query";
  let m = Tm.binary_counter_parity in
  let q = Th9.query m and views = Th9.views m in
  List.iter
    (fun w ->
      let i = Encode.encode_run m w in
      Format.printf "  input %-6s run instance: %6d facts, Q = %b@."
        ("0^" ^ string_of_int (String.length w))
        (Instance.size i)
        (Dl_engine.holds_boolean q i))
    [ "0"; "00"; "000"; "0000" ];

  section "The separator replays the machine";
  (* A separator takes an arbitrary view-schema instance; we feed it the
     (tiny) image of the input part plus the pre-run certificate, exactly
     what a full run's image provides (checked on small sizes below). *)
  let small_image w =
    let img = View.image views (Encode.encode_input w) in
    Instance.add (Fact.make "Vprerun" [ Const.named "ie" ]) img
  in
  List.iter
    (fun w ->
      let img = small_image w in
      let verdict, dt = time (fun () -> Th9.simulating_separator m img) in
      Format.printf
        "  |w| = %2d: view image %3d facts, separator = %-5b machine steps = %8d (%.4fs)@."
        (String.length w) (Instance.size img) verdict
        (Tm.steps m w) dt)
    [ "0"; "000"; "000000"; "000000000"; "000000000000";
      "000000000000000"; "000000000000000000" ];
  (* the small image coincides with the full run's image on small cases *)
  let coincide =
    List.for_all
      (fun w ->
        Instance.equal (small_image w)
          (View.image views (Encode.encode_run m w)))
      [ "0"; "00"; "000" ]
  in
  Format.printf "  (small image = full run's image on small cases: %b)@."
    coincide;
  Format.printf
    "@.view-image size grows linearly, separator cost exponentially:@.";
  Format.printf
    "no function of the view image bounds the separator's running time.@.";

  section "Determinacy identity on samples";
  let ok =
    List.for_all
      (fun w ->
        let i = Encode.encode_run m w in
        Dl_engine.holds_boolean q i
        = Th9.simulating_separator m (View.image views i))
      [ "0"; "00"; "000"; "0000" ]
  in
  Format.printf "Q(I) = separator(V(I)) on run encodings: %b@." ok;
  Format.printf "@.done.@."
