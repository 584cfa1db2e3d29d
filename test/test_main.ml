let () =
  Alcotest.run "mondet"
    [
      ("relational", Test_relational.suite);
      ("cq", Test_cq.suite);
      ("datalog", Test_datalog.suite);
      ("magic", Test_magic.suite);
      ("vm", Test_vm.suite);
      ("semi", Test_semi.suite);
      ("incr", Test_incr.suite);
      ("parse", Test_parse.suite);
      ("views", Test_views.suite);
      ("treewidth", Test_treewidth.suite);
      ("automata", Test_automata.suite);
      ("rpq", Test_rpq.suite);
      ("games", Test_games.suite);
      ("tiling", Test_tiling.suite);
      ("machine", Test_machine.suite);
      ("core", Test_core.suite);
      ("service", Test_service.suite);
      ("tcp", Test_tcp.suite);
    ]
