let () =
  Alcotest.run "hovercraft"
    [
      ("sim", Test_sim.suite);
      ("net", Test_net.suite);
      ("r2p2", Test_r2p2.suite);
      ("raft", Test_raft.suite);
      ("apps", Test_apps.suite);
      ("obs", Test_obs.suite);
      ("core", Test_core.suite);
      ("retention", Test_retention.suite);
      ("cluster", Test_cluster.suite);
      ("client", Test_client.suite);
      ("chaos", Test_chaos.suite);
      ("snapshot", Test_snapshot.suite);
      ("apply", Test_apply.suite);
      ("intake", Test_intake.suite);
      ("pipeline", Test_pipeline.suite);
      ("reconfig", Test_reconfig.suite);
      ("shard", Test_shard.suite);
      ("control", Test_control.suite);
      ("invariants", Test_invariants.suite);
      ("mc", Test_mc.suite);
      ("backend", Test_backend.suite);
    ]
