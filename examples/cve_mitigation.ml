(** Table 1 as a story: a new software version ships a vulnerable command
    (STRALGO, CVE-2021-32625); legacy clients never use it, so the
    operator blocks it with DynaCut until it is actually needed —
    "the longer new features are used and tested, the fewer bugs they
    are likely to have" (§3.2.4).

    Run with: dune exec examples/cve_mitigation.exe *)

let exploit = Printf.sprintf "STRALGO %s %s\n" (String.make 60 'b') (String.make 60 'b')

let () =
  (* act 1: the exploit against a vanilla server *)
  print_endline "-- vanilla rkv --";
  let v = Workload.boot Workload.rkv in
  Printf.printf "benign STRALGO abc abd -> %s\n" (Workload.rpc v "STRALGO abc abd\n");
  let (_ : string) = Workload.rpc v exploit in
  (match (Machine.proc_exn v.Workload.m v.Workload.pid).Proc.state with
  | Proc.Killed s -> Printf.printf "exploit result: server killed by %s\n" (Abi.signal_name s)
  | st -> Printf.printf "exploit result: %s\n" (Proc.state_to_string st));

  (* act 2: the same exploit against a DynaCut-customized server *)
  print_endline "\n-- rkv with STRALGO blocked by DynaCut --";
  let blocks = Common.rkv_feature_blocks [ "STRALGO abc abd\n" ] in
  let c = Workload.boot Workload.rkv in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let journals, _ =
    Dynacut.cut session ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "rkv_err" }
  in
  Printf.printf "exploit           -> %s\n" (Workload.rpc c exploit);
  Printf.printf "GET greeting      -> %s\n" (Workload.rpc c "GET greeting\n");
  Printf.printf "INFO              -> %s\n" (Workload.rpc c "INFO\n");
  assert (Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid));

  (* act 3: the feature is eventually needed — restore it, use it *)
  print_endline "\n-- feature needed: re-enable --";
  let (_ : Dynacut.timings) = Dynacut.reenable session journals in
  Printf.printf "STRALGO abcd abd  -> %s\n" (Workload.rpc c "STRALGO abcd abd\n");
  assert (Workload.rpc c "STRALGO abcd abd\n" = ":3");
  print_endline "cve mitigation OK"
