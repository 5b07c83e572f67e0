(** Quickstart: the whole DynaCut pipeline in ~40 lines.

    1. trace wanted traffic (reads) and undesired traffic (SET) under the
       drcov-style collector, on throwaway runs of the server;
    2. tracediff the two coverage graphs to find the SET feature blocks;
    3. boot the Redis-like server under test on the simulated machine,
       last, so the fault hooks and the metrics clock follow it;
    4. cut: checkpoint, patch the blocks with int3, inject the SIGTRAP
       handler redirecting to the server's error path, restore;
    5. probe: SET now answers "-ERR", GET still works, and the server
       never restarted;
    6. re-enable and probe again.

    Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1-2. trace + diff (Common bundles the collector runs) *)
  let blocks = Common.rkv_feature_blocks [ "SET k v\n"; "SET k w\n" ] in

  (* 3. boot *)
  let c = Workload.boot Workload.rkv in
  Printf.printf "booted %s, pid %d\n%!" c.Workload.app.Workload.a_name c.Workload.pid;
  Printf.printf "tracediff found %d SET-only basic blocks:\n" (List.length blocks);
  List.iter
    (fun (b : Covgraph.block) ->
      Printf.printf "  %s+0x%x (%d bytes)\n" b.Covgraph.b_module b.Covgraph.b_off
        b.Covgraph.b_size)
    blocks;

  (* 4. the cut *)
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let journals, t =
    Dynacut.cut session ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "rkv_err" }
  in
  Format.printf "cut applied: %a@." Dynacut.pp_timings t;

  (* 5. probe the customized process *)
  Printf.printf "SET k v      -> %s\n" (Workload.rpc c "SET k v\n");
  Printf.printf "GET greeting -> %s\n" (Workload.rpc c "GET greeting\n");
  Printf.printf "PING         -> %s\n" (Workload.rpc c "PING\n");

  (* 6. change of scenario: bring SET back *)
  let t = Dynacut.reenable session journals in
  Format.printf "feature restored: %a@." Dynacut.pp_timings t;
  Printf.printf "SET k v      -> %s\n" (Workload.rpc c "SET k v\n");
  Printf.printf "GET k        -> %s\n" (Workload.rpc c "GET k\n");
  assert (Workload.rpc c "GET k\n" = "$v");
  print_endline "quickstart OK"
