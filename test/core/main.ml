let () =
  Alcotest.run "proxjoin.core"
    [
      ("scoring", Test_scoring.suite);
      ("properties", Test_properties.suite);
      ("match_list", Test_match_list.suite);
      ("envelope", Test_envelope.suite);
      ("med_selection", Test_med_selection.suite);
      ("win", Test_win.suite);
      ("med", Test_med.suite);
      ("max", Test_max.suite);
      ("dedup", Test_dedup.suite);
      ("by_location", Test_by_location.suite);
      ("win_stream", Test_win_stream.suite);
      ("med_stream", Test_med_stream.suite);
      ("max_stream", Test_max_stream.suite);
      ("top_k", Test_top_k.suite);
      ("win_topk", Test_win_topk.suite);
      ("best_join", Test_best_join.suite);
      ("feasibility", Test_feasibility.suite);
    ]
