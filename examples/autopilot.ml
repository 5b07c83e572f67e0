(** Fully automatic operation — the paper's §5 items working together
    with no operator in the loop:

    1. the server boots under the tracer; {!Autophase} watches syscalls
       and fires the init nudge at the first [accept] — nobody reads logs;
    2. a profiling workload runs; the init-only diff (CFG-normalized) is
       computed and wiped, libc included;
    3. a post-init seccomp denylist is installed through the same
       image-rewriting pipeline;
    4. the hardened, already-customized image is what future deploys
       restore from directly (§4.1 footnote 5).

    Run with: dune exec examples/autopilot.exe *)

let () =
  (* 1-2: automatic phase profiling *)
  let app = Workload.rkv in
  let init_log, serving_log =
    Workload.trace_requests_auto ~app ~requests:Workload.kv_wanted ()
  in
  let report =
    Tracediff.init_blocks
      ~cfg_of:(Common.cfg_of_app app)
      ~init:init_log ~serving:serving_log ()
  in
  Printf.printf
    "autophase: nudge fired on the first accept(); init coverage %d blocks,\n\
     serving %d, init-only %d (incl. %d inside libc.so)\n\n"
    (Drcov.bb_count init_log) (Drcov.bb_count serving_log)
    (List.length report.Tracediff.undesired)
    (List.length
       (List.filter
          (fun (b : Covgraph.block) -> b.Covgraph.b_module = "libc.so")
          report.Tracediff.undesired));

  (* 3: harden a fresh instance *)
  let c = Workload.boot app in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let _, t1 =
    Dynacut.cut session ~blocks:report.Tracediff.undesired
      ~policy:{ Dynacut.method_ = `Wipe; on_trap = `Kill }
  in
  let denied = [ Abi.sys_fork; Abi.sys_socket; Abi.sys_bind; Abi.sys_listen ] in
  let t2 = Dynacut.apply_seccomp session ~denied:(Some denied) in
  Format.printf "init wipe: %a@.seccomp:   %a@.@." Dynacut.pp_timings t1
    Dynacut.pp_timings t2;

  (* the hardened server still serves everything *)
  List.iter
    (fun r ->
      let resp = Workload.rpc c r in
      assert (String.length resp > 0))
    Workload.kv_wanted;
  Printf.printf "hardened server answered the full wanted mix\n";
  Printf.printf "GET greeting -> %s\n" (Workload.rpc c "GET greeting\n");

  (* 4: future deploys restore the hardened image directly *)
  let pid = c.Workload.pid in
  let path = Printf.sprintf "%s/dump-%d.img" session.Dynacut.tmpfs pid in
  Machine.post_signal c.Workload.m ~pid ~signum:Abi.sigkill;
  Machine.reap c.Workload.m ~pid;
  let p = Restore.restore_from_tmpfs c.Workload.m ~path in
  assert (p.Proc.seccomp = Some denied);
  Printf.printf "\nredeployed from the customized image; filter intact;\n";
  Printf.printf "GET greeting -> %s\n" (Workload.rpc c "GET greeting\n");
  assert (Workload.rpc c "GET greeting\n" = "$hello");
  print_endline "autopilot OK"
