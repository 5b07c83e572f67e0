(** Over-elimination and the verifier (§3.2.3): profiling with too few
    sample inputs misclassifies wanted code as undesired. Instead of
    crashing the first user who hits it, DynaCut's verifier library
    restores the original byte at trap time, logs the false positive,
    and lets the request proceed — the end user then fixes the block
    list from the log.

    We provoke the situation deliberately: profile rkv's "wanted"
    behaviour with GET-only traffic, so tracediff wrongly classifies
    INCR (and friends) as undesired; then we run the full wanted mix
    under the verifier.

    Run with: dune exec examples/verifier_validation.exe *)

let () =
  (* deliberately thin wanted profile: GET + PING only *)
  let thin_wanted = [ "GET greeting\n"; "PING\n"; "BOGUS\n" ] in
  let cfg_of = Common.cfg_of_app Workload.rkv in
  let _, wanted_log =
    Workload.trace_requests ~app:Workload.rkv ~requests:thin_wanted ~nudge_at_ready:true ()
  in
  let _, undesired_log =
    Workload.trace_requests ~app:Workload.rkv
      ~requests:[ "SET a 1\n"; "INCR counter\n"; "EXISTS color\n" ]
      ~nudge_at_ready:true ()
  in
  let report =
    Tracediff.feature_blocks ~cfg_of ~wanted:[ wanted_log ] ~undesired:[ undesired_log ] ()
  in
  let blocks = report.Tracediff.undesired in
  Printf.printf
    "thin profile blames %d blocks (SET, but also INCR/EXISTS paths the\n\
     user actually wants)\n\n"
    (List.length blocks);

  let c = Workload.boot Workload.rkv in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let _ =
    Dynacut.cut session ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Verify }
  in

  (* the wanted traffic the thin profile missed *)
  Printf.printf "INCR counter  -> %s\n" (Workload.rpc c "INCR counter\n");
  Printf.printf "EXISTS color  -> %s\n" (Workload.rpc c "EXISTS color\n");
  Printf.printf "INCR counter  -> %s  (restored path, no trap)\n"
    (Workload.rpc c "INCR counter\n");

  let log = Dynacut.verifier_log session ~pid:c.Workload.pid in
  Printf.printf "\nverifier logged %d falsely-removed addresses:\n" (List.length log);
  List.iter (fun a -> Printf.printf "  0x%Lx\n" a) log;
  assert (List.length log > 0);
  assert (Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid));
  Printf.printf
    "\nthe server survived its own mis-profiling; the %d logged blocks go\n\
     back into the wanted set for the next profiling round\n"
    (List.length log);
  print_endline "verifier validation OK"
