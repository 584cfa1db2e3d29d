let tile_rel t = "T_" ^ t

(* The reduction's queries, views, and test instances are pure functions of
   the tiling problem (and grid size), and the harnesses request the same
   handful over and over: cache them.  Cached instances also keep their
   secondary indexes warm across requests. *)
let memoize (tbl : ('a, 'b) Hashtbl.t) k f =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
      let v = f () in
      if Hashtbl.length tbl >= 128 then Hashtbl.reset tbl;
      Hashtbl.add tbl k v;
      v

let v = Cq.(fun s -> Var s)

let schema_sigma (tp : Tiling.t) =
  Schema.of_list
    ([
       ("XSucc", 2); ("YSucc", 2); ("C", 1); ("D", 1);
       ("XEnd", 1); ("YEnd", 1); ("XProj", 2); ("YProj", 2);
     ]
    @ List.map (fun t -> (tile_rel t, 1)) tp.Tiling.tiles)

let ha_cq =
  Cq.make
    ~head:[ "z1"; "z2"; "x1"; "x2"; "y" ]
    [
      Cq.atom "YProj" [ v "y"; v "z1" ];
      Cq.atom "YProj" [ v "y"; v "z2" ];
      Cq.atom "XProj" [ v "x1"; v "z1" ];
      Cq.atom "XProj" [ v "x2"; v "z2" ];
      Cq.atom "XSucc" [ v "x1"; v "x2" ];
    ]

let va_cq =
  Cq.make
    ~head:[ "z1"; "z2"; "x"; "y1"; "y2" ]
    [
      Cq.atom "YProj" [ v "y1"; v "z1" ];
      Cq.atom "YProj" [ v "y2"; v "z2" ];
      Cq.atom "XProj" [ v "x"; v "z1" ];
      Cq.atom "XProj" [ v "x"; v "z2" ];
      Cq.atom "YSucc" [ v "y1"; v "y2" ];
    ]

let query_tbl : (Tiling.t, Datalog.query) Hashtbl.t = Hashtbl.create 8

let query (tp : Tiling.t) =
  memoize query_tbl tp @@ fun () ->
  (* Qstart takes one marked step on each axis before recursing: without
     this, approximations with an empty axis have S = C×D = ∅ and the
     other axis's marks become invisible through the views, breaking
     Prop 10 for unsolvable problems (see EXPERIMENTS.md, finding 2). *)
  let base =
    Parse.program
      "Q <- XSucc(o,x), D(x), A(x), YSucc(o,y), C(y), B(y).
       A(x) <- XSucc(x,x2), A(x2), D(x2).
       A(x) <- XEnd(x).
       B(y) <- YSucc(y,y2), B(y2), C(y2).
       B(y) <- YEnd(y).
       Q <- C(u), YProj(y,z), XProj(x,z).
       Q <- D(u), YProj(y,z), XProj(x,z)."
  in
  let goal = Cq.atom "Q" [] in
  let pairs l = List.concat_map (fun a -> List.map (fun b -> (a, b)) l) l in
  let hc_rules =
    List.filter_map
      (fun (a, b) ->
        if Tiling.horizontally_compatible tp a b then None
        else
          Some
            (Datalog.rule goal
               (ha_cq.Cq.body
               @ [ Cq.atom (tile_rel a) [ v "z1" ]; Cq.atom (tile_rel b) [ v "z2" ] ])))
      (pairs tp.Tiling.tiles)
  in
  let vc_rules =
    List.filter_map
      (fun (a, b) ->
        if Tiling.vertically_compatible tp a b then None
        else
          Some
            (Datalog.rule goal
               (va_cq.Cq.body
               @ [ Cq.atom (tile_rel a) [ v "z1" ]; Cq.atom (tile_rel b) [ v "z2" ] ])))
      (pairs tp.Tiling.tiles)
  in
  let init_rules =
    List.filter_map
      (fun t ->
        if List.mem t tp.Tiling.init then None
        else
          Some
            (Datalog.rule goal
               [
                 Cq.atom "XSucc" [ v "o"; v "x" ];
                 Cq.atom "YSucc" [ v "o"; v "y" ];
                 Cq.atom "XProj" [ v "x"; v "z" ];
                 Cq.atom "YProj" [ v "y"; v "z" ];
                 Cq.atom (tile_rel t) [ v "z" ];
               ]))
      tp.Tiling.tiles
  in
  let final_rules =
    List.filter_map
      (fun t ->
        if List.mem t tp.Tiling.final then None
        else
          Some
            (Datalog.rule goal
               [
                 Cq.atom "XEnd" [ v "x" ];
                 Cq.atom "YEnd" [ v "y" ];
                 Cq.atom "XProj" [ v "x"; v "z" ];
                 Cq.atom "YProj" [ v "y"; v "z" ];
                 Cq.atom (tile_rel t) [ v "z" ];
               ]))
      tp.Tiling.tiles
  in
  Datalog.query (base @ hc_rules @ vc_rules @ init_rules @ final_rules) "Q"

let views_tbl : (Tiling.t, View.collection) Hashtbl.t = Hashtbl.create 8

let views (tp : Tiling.t) : View.collection =
  memoize views_tbl tp @@ fun () ->
  let grid_view =
    View.ucq "S"
      (Ucq.make
         (Cq.make ~head:[ "a"; "b" ]
            [ Cq.atom "C" [ v "a" ]; Cq.atom "D" [ v "b" ] ]
         :: List.map
              (fun t ->
                Cq.make ~head:[ "a"; "b" ]
                  [
                    Cq.atom "YProj" [ v "a"; v "s" ];
                    Cq.atom "XProj" [ v "b"; v "s" ];
                    Cq.atom (tile_rel t) [ v "s" ];
                  ])
              tp.Tiling.tiles))
  in
  let atomic =
    [
      View.atomic "VXSucc" "XSucc" 2;
      View.atomic "VYSucc" "YSucc" 2;
      View.atomic "VXEnd" "XEnd" 1;
      View.atomic "VYEnd" "YEnd" 1;
    ]
    @ List.map (fun t -> View.atomic ("V" ^ tile_rel t) (tile_rel t) 1) tp.Tiling.tiles
  in
  let special =
    [
      View.cq "VhC"
        (Cq.make ~head:[ "u"; "x"; "y"; "z" ]
           [
             Cq.atom "C" [ v "u" ];
             Cq.atom "XProj" [ v "x"; v "z" ];
             Cq.atom "YProj" [ v "y"; v "z" ];
           ]);
      View.cq "VhD"
        (Cq.make ~head:[ "u"; "x"; "y"; "z" ]
           [
             Cq.atom "D" [ v "u" ];
             Cq.atom "XProj" [ v "x"; v "z" ];
             Cq.atom "YProj" [ v "y"; v "z" ];
           ]);
      View.cq "VHA" ha_cq;
      View.cq "VVA" va_cq;
      View.cq "VI"
        (Cq.make ~head:[ "o"; "x"; "y"; "z" ]
           [
             Cq.atom "XSucc" [ v "o"; v "x" ];
             Cq.atom "XProj" [ v "x"; v "z" ];
             Cq.atom "YSucc" [ v "o"; v "y" ];
             Cq.atom "YProj" [ v "y"; v "z" ];
           ]);
      View.cq "VF"
        (Cq.make ~head:[ "x"; "y"; "z" ]
           [
             Cq.atom "XProj" [ v "x"; v "z" ];
             Cq.atom "XEnd" [ v "x" ];
             Cq.atom "YEnd" [ v "y" ];
             Cq.atom "YProj" [ v "y"; v "z" ];
           ]);
    ]
  in
  (grid_view :: atomic) @ special

let c s = Const.named s
let xi i = c (Printf.sprintf "x%d" i)
let yj j = c (Printf.sprintf "y%d" j)
let zij i j = c (Printf.sprintf "z%d_%d" i j)

let axes_tbl : (int, Instance.t) Hashtbl.t = Hashtbl.create 8

let axes l =
  memoize axes_tbl l @@ fun () ->
  let facts = ref [] in
  let add f = facts := f :: !facts in
  add (Fact.make "XSucc" [ c "o"; xi 1 ]);
  add (Fact.make "YSucc" [ c "o"; yj 1 ]);
  for i = 1 to l - 1 do
    add (Fact.make "XSucc" [ xi i; xi (i + 1) ]);
    add (Fact.make "YSucc" [ yj i; yj (i + 1) ])
  done;
  for i = 1 to l do
    add (Fact.make "D" [ xi i ]);
    add (Fact.make "C" [ yj i ])
  done;
  add (Fact.make "XEnd" [ xi l ]);
  add (Fact.make "YEnd" [ yj l ]);
  Instance.of_list !facts

let grid_test_tbl : (Tiling.t * string list * int * int, Instance.t) Hashtbl.t =
  Hashtbl.create 8

let grid_test (tp : Tiling.t) ~tau n m =
  (* materialize the tile assignment so the memo key captures it *)
  let taus =
    List.concat (List.init n (fun i -> List.init m (fun j -> tau (i + 1) (j + 1))))
  in
  memoize grid_test_tbl (tp, taus, n, m) @@ fun () ->
  let tau i j = List.nth taus (((i - 1) * m) + j - 1) in
  let facts = ref [] in
  let add f = facts := f :: !facts in
  add (Fact.make "XSucc" [ c "o"; xi 1 ]);
  add (Fact.make "YSucc" [ c "o"; yj 1 ]);
  for i = 1 to n - 1 do
    add (Fact.make "XSucc" [ xi i; xi (i + 1) ])
  done;
  for j = 1 to m - 1 do
    add (Fact.make "YSucc" [ yj j; yj (j + 1) ])
  done;
  add (Fact.make "XEnd" [ xi n ]);
  add (Fact.make "YEnd" [ yj m ]);
  for i = 1 to n do
    for j = 1 to m do
      add (Fact.make "XProj" [ xi i; zij i j ]);
      add (Fact.make "YProj" [ yj j; zij i j ]);
      add (Fact.make (tile_rel (tau i j)) [ zij i j ])
    done
  done;
  Instance.of_list !facts

(* ------------------------------------------------------------------ *)
(* The appendix's stratified rewriting of Q_TP over V_TP.              *)

(* Q*start: the start disjunct with C/D read off the projections of S *)
let star_start (_tp : Tiling.t) =
  Parse.query ~goal:"Qs"
    "Cstar(a) <- S(a,b).
     Dstar(b) <- S(a,b).
     A(x) <- VXSucc(x,x2), A(x2), Dstar(x2).
     A(x) <- VXEnd(x).
     B(y) <- VYSucc(y,y2), B(y2), Cstar(y2).
     B(y) <- VYEnd(y).
     Qs <- VXSucc(o,x), Dstar(x), A(x), VYSucc(o,y), Cstar(y), B(y)."

(* Q*verify: the verify disjuncts through the special views *)
let star_verify (tp : Tiling.t) =
  let v = Cq.(fun s -> Var s) in
  let goal = Cq.atom "Qv" [] in
  let pairs l = List.concat_map (fun a -> List.map (fun b -> (a, b)) l) l in
  let vt t z = Cq.atom ("V" ^ tile_rel t) [ v z ] in
  let hc =
    List.filter_map
      (fun (a, b) ->
        if Tiling.horizontally_compatible tp a b then None
        else
          Some
            (Datalog.rule goal
               [
                 Cq.atom "VHA" [ v "z1"; v "z2"; v "x1"; v "x2"; v "y" ];
                 vt a "z1"; vt b "z2";
               ]))
      (pairs tp.Tiling.tiles)
  in
  let vc =
    List.filter_map
      (fun (a, b) ->
        if Tiling.vertically_compatible tp a b then None
        else
          Some
            (Datalog.rule goal
               [
                 Cq.atom "VVA" [ v "z1"; v "z2"; v "x"; v "y1"; v "y2" ];
                 vt a "z1"; vt b "z2";
               ]))
      (pairs tp.Tiling.tiles)
  in
  let init =
    List.filter_map
      (fun t ->
        if List.mem t tp.Tiling.init then None
        else
          Some
            (Datalog.rule goal
               [ Cq.atom "VI" [ v "o"; v "x"; v "y"; v "z" ]; vt t "z" ]))
      tp.Tiling.tiles
  in
  let final =
    List.filter_map
      (fun t ->
        if List.mem t tp.Tiling.final then None
        else
          Some
            (Datalog.rule goal
               [ Cq.atom "VF" [ v "x"; v "y"; v "z" ]; vt t "z" ]))
      tp.Tiling.tiles
  in
  Datalog.query (hc @ vc @ init @ final) "Qv"

(* ProductTest: S is the product of its projections *)
let product_test j =
  let s = Instance.tuples j "S" in
  let firsts = List.sort_uniq Const.compare (List.map (fun t -> t.(0)) s) in
  let seconds = List.sort_uniq Const.compare (List.map (fun t -> t.(1)) s) in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          List.exists
            (fun t -> Const.equal t.(0) a && Const.equal t.(1) b)
            s)
        seconds)
    firsts

let stratified_rewriting tp =
  let qs = star_start tp in
  let qv = star_verify tp in
  fun j ->
    Instance.tuples j "VhC" <> []
    || Instance.tuples j "VhD" <> []
    || Dl_engine.holds_boolean qv j
    || (product_test j && Dl_engine.holds_boolean qs j)
