let () =
  Alcotest.run "dynacut"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("isa", Test_isa.suite);
      ("elf", Test_elf.suite);
      ("machine", Test_machine.suite);
      ("cc", Test_cc.suite);
      ("tracer", Test_tracer.suite);
      ("criu", Test_criu.suite);
      ("core", Test_core.suite);
      ("core-props", Test_core_props.suite);
      ("faults", Test_faults.suite);
      ("recover", Test_recover.suite);
      ("supervisor", Test_supervisor.suite);
      ("guestlib", Test_guestlib.suite);
      ("apps", Test_apps.suite);
      ("baselines", Test_baselines.suite);
      ("extensions", Test_extensions.suite);
      ("stacking", Test_stacking.suite);
      ("seccomp", Test_seccomp.suite);
      ("experiments", Test_experiments.suite);
      ("apps-cold", Test_apps_cold.suite);
      ("machine-edges", Test_machine_edges.suite);
      ("fleet", Test_fleet.suite);
      ("integrity", Test_integrity.suite);
      ("chaos", Test_chaos.suite);
      ("slice", Test_slice.suite);
      ("bbcache", Test_bbcache.suite);
      ("imageflow", Test_imageflow.suite);
    ]
