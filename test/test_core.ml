(** End-to-end DynaCut tests: the full paper pipeline on a dispatcher
    server — trace under the collector, tracediff the feature, cut with
    each policy, exercise traps, re-enable, verify. *)

open Dsl

let libc = Test_machine.libc

(* A server with a request dispatcher: one byte selects the feature.
   'G' = read-only query (wanted), 'S' = mutation (to be disabled),
   anything else falls to the in-function error path, as §3.2.2 requires. *)
let dispatch_server =
  unit_ "dsrv"
    ~globals:[ global_q "value" [ 7L ]; global_zero "rbuf" 128; global_zero "obuf" 128 ]
    [
      func "do_get" [ "c" ]
        [
          do_ "strcpy" [ addr "obuf"; s "VAL=" ];
          do_ "itoa" [ addr "obuf" +: i 4; v "value" ];
          do_ "send" [ v "c"; addr "obuf"; call "strlen" [ addr "obuf" ] ];
          ret0;
        ];
      func "do_set" [ "c" ]
        [
          set "value" (v "value" +: i 1);
          do_ "send" [ v "c"; s "SET-OK"; i 6 ];
          ret0;
        ];
      func "handle" [ "c"; "cmd" ]
        [
          switch (v "cmd")
            [
              (71 (* G *), [ do_ "do_get" [ v "c" ] ]);
              (83 (* S *), [ label "feat_set"; do_ "do_set" [ v "c" ] ]);
            ]
            ~default:[ label "err_path"; do_ "send" [ v "c"; s "ERR"; i 3 ] ];
          ret0;
        ];
      func "main" []
        [
          decl "sfd" (call "socket" []);
          do_ "bind" [ v "sfd"; i 9200 ];
          do_ "listen" [ v "sfd" ];
          do_ "puts" [ s "ready" ];
          forever
            [
              decl "c" (call "accept" [ v "sfd" ]);
              decl "n" (call "recv" [ v "c"; addr "rbuf"; i 128 ]);
              when_ (v "n" >: i 0)
                [ do_ "handle" [ v "c"; load8 (addr "rbuf") ] ];
              do_ "close" [ v "c" ];
            ];
          ret0;
        ];
    ]

let boot () =
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  Vfs.add_self m.Machine.fs "dsrv" (Crt0.link_app ~libc dispatch_server);
  let p = Machine.spawn m ~exe_path:"dsrv" () in
  (match Machine.run m ~max_cycles:2_000_000 with
  | `Idle -> ()
  | _ -> Alcotest.fail "server did not reach accept");
  (m, p)

let request m cmd =
  let c = Net.connect m.Machine.net 9200 in
  Net.client_send c cmd;
  let (_ : _) = Machine.run m ~max_cycles:2_000_000 in
  Net.client_recv c

(** Trace the server handling [cmds]; returns the drcov log. A fresh
    machine each time, like re-running the target under DynamoRIO. *)
let trace_run (cmds : string list) : Drcov.log =
  let m, p = boot () in
  let col = Collector.attach m ~pid:p.Proc.pid in
  List.iter (fun cmd -> ignore (request m cmd)) cmds;
  Collector.detach col

(** The paper's feature identification: wanted = GET + error requests,
    undesired = SET requests. *)
let feature_blocks () =
  let wanted = trace_run [ "G"; "G"; "X"; "G" ] in
  let undesired = trace_run [ "G"; "S"; "S" ] in
  (Tracediff.feature_blocks ~wanted:[ wanted ] ~undesired:[ undesired ] ()).Tracediff.undesired

let test_tracediff_finds_feature () =
  let blocks = feature_blocks () in
  Alcotest.(check bool) "found undesired blocks" true (List.length blocks > 0);
  (* all identified blocks belong to the app, not libc *)
  List.iter
    (fun (b : Covgraph.block) ->
      Alcotest.(check string) "module" "dsrv" b.Covgraph.b_module)
    blocks;
  (* the feature entry (label feat_set) must be among them *)
  let exe = Crt0.link_app ~libc dispatch_server in
  let feat = Option.get (Self.find_symbol exe "feat_set") in
  Alcotest.(check bool) "contains feature entry" true
    (List.exists (fun (b : Covgraph.block) -> b.Covgraph.b_off = feat.Self.sym_off) blocks);
  (* ...and nothing that GET traffic needs: do_get's entry is not listed *)
  let get_entry = Option.get (Self.find_symbol exe "do_get") in
  Alcotest.(check bool) "do_get untouched" true
    (not
       (List.exists
          (fun (b : Covgraph.block) -> b.Covgraph.b_off = get_entry.Self.sym_off)
          blocks))

let test_cut_kill_policy () =
  let blocks = feature_blocks () in
  let m, p = boot () in
  Alcotest.(check string) "get before" "VAL=7" (request m "G");
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  let _journals, _t =
    Dynacut.cut session ~blocks ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Kill }
  in
  Alcotest.(check string) "get still works" "VAL=7" (request m "G");
  (* hitting the blocked feature kills the server (default SIGTRAP) *)
  let (_ : string) = request m "S" in
  match (Machine.proc_exn m p.Proc.pid).Proc.state with
  | Proc.Killed s -> Alcotest.(check int) "SIGTRAP" Abi.sigtrap s
  | st -> Alcotest.failf "expected SIGTRAP kill, got %s" (Proc.state_to_string st)

let test_cut_redirect_policy () =
  let blocks = feature_blocks () in
  let m, p = boot () in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  let _journals, t =
    Dynacut.cut session ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "err_path" }
  in
  Alcotest.(check bool) "timings positive" true (Dynacut.total_time t >= 0.);
  (* blocked feature now answers with the app's own error path *)
  Alcotest.(check string) "S gets ERR" "ERR" (request m "S");
  Alcotest.(check bool) "server alive" true (Proc.is_live (Machine.proc_exn m p.Proc.pid));
  (* wanted feature unaffected; state not mutated by the blocked SET *)
  Alcotest.(check string) "G still served" "VAL=7" (request m "G");
  Alcotest.(check bool) "handler was hit" true
    (Dynacut.handler_hits session ~pid:p.Proc.pid >= 1L)

let test_cut_terminate_policy () =
  let blocks = feature_blocks () in
  let m, p = boot () in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  let _ =
    Dynacut.cut session ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Terminate }
  in
  let (_ : string) = request m "S" in
  match (Machine.proc_exn m p.Proc.pid).Proc.state with
  | Proc.Exited c -> Alcotest.(check int) "handler exit status" Handler.blocked_exit_status c
  | st -> Alcotest.failf "expected exit(13), got %s" (Proc.state_to_string st)

let test_reenable_restores_feature () =
  let blocks = feature_blocks () in
  let m, p = boot () in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  let journals, _ =
    Dynacut.cut session ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "err_path" }
  in
  Alcotest.(check string) "blocked" "ERR" (request m "S");
  let (_ : Dynacut.timings) = Dynacut.reenable session journals in
  Alcotest.(check string) "re-enabled" "SET-OK" (request m "S");
  Alcotest.(check string) "state mutated again" "VAL=8" (request m "G");
  Alcotest.(check bool) "alive" true (Proc.is_live (Machine.proc_exn m p.Proc.pid))

let test_cut_wipe_policy () =
  let blocks = feature_blocks () in
  let m, p = boot () in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  let journals, _ =
    Dynacut.cut session ~blocks
      ~policy:{ Dynacut.method_ = `Wipe; on_trap = `Redirect "err_path" }
  in
  Alcotest.(check string) "wiped feature redirects" "ERR" (request m "S");
  Alcotest.(check string) "get fine" "VAL=7" (request m "G");
  (* wiping really zapped every byte: check memory is 0xCC over a block *)
  let p' = Machine.proc_exn m p.Proc.pid in
  let exe = Option.get (Vfs.find_self m.Machine.fs "dsrv") in
  let feat = Option.get (Self.find_symbol exe "feat_set") in
  let b =
    List.find
      (fun (b : Covgraph.block) -> b.Covgraph.b_off = feat.Self.sym_off)
      blocks
  in
  let va = Int64.add exe.Self.base (Int64.of_int b.Covgraph.b_off) in
  for k = 0 to b.Covgraph.b_size - 1 do
    Alcotest.(check int) "0xCC" 0xCC (Mem.peek8 p'.Proc.mem (Int64.add va (Int64.of_int k)))
  done;
  (* and reenable brings the bytes back *)
  let (_ : Dynacut.timings) = Dynacut.reenable session journals in
  Alcotest.(check string) "restored" "SET-OK" (request m "S")

let test_verify_policy_restores_and_logs () =
  (* Over-elimination check (§3.2.3): deliberately block a *wanted* block
     (do_get's body) under `Verify; the first GET trips the handler,
     which restores the byte and logs the false positive — and the
     request still succeeds. *)
  let m, p = boot () in
  let exe = Option.get (Vfs.find_self m.Machine.fs "dsrv") in
  let get_entry = Option.get (Self.find_symbol exe "do_get") in
  let blocks =
    [ { Covgraph.b_module = "dsrv"; b_off = get_entry.Self.sym_off; b_size = 3 } ]
  in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  let _ =
    Dynacut.cut session ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Verify }
  in
  Alcotest.(check string) "request survives verification" "VAL=7" (request m "G");
  let log = Dynacut.verifier_log session ~pid:p.Proc.pid in
  Alcotest.(check int) "one false positive logged" 1 (List.length log);
  let expected = Int64.add exe.Self.base (Int64.of_int get_entry.Self.sym_off) in
  Alcotest.(check int64) "logged address" expected (List.hd log);
  (* second GET takes the restored fast path: log stays at 1 *)
  Alcotest.(check string) "again" "VAL=7" (request m "G");
  Alcotest.(check int) "still one" 1
    (List.length (Dynacut.verifier_log session ~pid:p.Proc.pid))

let test_cut_preserves_connection () =
  (* a client mid-connection survives the rewrite (TCP repair) *)
  let blocks = feature_blocks () in
  let m, p = boot () in
  let c = Net.connect m.Machine.net 9200 in
  let (_ : _) = Machine.run m ~max_cycles:500_000 in
  (* server is now blocked in recv on this connection *)
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  let _ =
    Dynacut.cut session ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "err_path" }
  in
  Net.client_send c "G";
  let (_ : _) = Machine.run m ~max_cycles:2_000_000 in
  Alcotest.(check string) "request completed across cut" "VAL=7" (Net.client_recv c)

let test_unmap_policy () =
  let blocks = feature_blocks () in
  let m, p = boot () in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  let _ =
    Dynacut.cut session ~blocks ~policy:{ Dynacut.method_ = `Unmap_pages; on_trap = `Kill }
  in
  Alcotest.(check string) "get fine" "VAL=7" (request m "G");
  let (_ : string) = request m "S" in
  (* feature blocks were either unmapped (SIGSEGV) or wiped (SIGTRAP) *)
  match (Machine.proc_exn m p.Proc.pid).Proc.state with
  | Proc.Killed s ->
      Alcotest.(check bool) "killed by segv/trap" true (s = Abi.sigsegv || s = Abi.sigtrap)
  | st -> Alcotest.failf "expected kill, got %s" (Proc.state_to_string st)

let test_collector_nudge_phases () =
  (* nudge splits coverage into init and serving phases (§3.1) *)
  let m, p = boot () in
  let col = Collector.attach m ~pid:p.Proc.pid in
  (* boot() already ran initialization; nudge now and serve *)
  let (_ : Drcov.log) = Collector.nudge col in
  ignore (request m "G");
  let serving = Collector.detach col in
  Alcotest.(check bool) "serving coverage nonempty" true (Drcov.bb_count serving > 0)

let test_cfg_total_blocks () =
  let exe = Crt0.link_app ~libc dispatch_server in
  let cfg = Cfg.of_self exe in
  let n = Cfg.block_count cfg in
  Alcotest.(check bool) "plausible block count" true (n > 20 && n < 5000);
  (* every traced block must be a prefix-aligned piece of static code:
     executed blocks start at static block starts *)
  let log = trace_run [ "G"; "S"; "X" ] in
  let g = Covgraph.of_log log in
  let starts =
    List.map (fun (b : Cfg.block) -> b.Cfg.bb_off) (Cfg.real_blocks cfg)
  in
  List.iter
    (fun (b : Covgraph.block) ->
      if b.Covgraph.b_module = "dsrv" then
        Alcotest.(check bool)
          (Printf.sprintf "block 0x%x aligns with static CFG" b.Covgraph.b_off)
          true
          (List.mem b.Covgraph.b_off starts))
    (Covgraph.blocks g)

(* ---------- handler_hits / verifier_log observability ---------- *)

let test_counters_empty_session () =
  (* before any cut — and for unknown pids — both counters read empty *)
  let m, p = boot () in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  Alcotest.(check int64) "no hits before a cut" 0L
    (Dynacut.handler_hits session ~pid:p.Proc.pid);
  Alcotest.(check (list int64)) "no verifier log before a cut" []
    (Dynacut.verifier_log session ~pid:p.Proc.pid);
  Alcotest.(check int64) "unknown pid reads zero" 0L
    (Dynacut.handler_hits session ~pid:9999);
  Alcotest.(check (list int64)) "unknown pid reads empty" []
    (Dynacut.verifier_log session ~pid:9999)

let test_counters_multi_pid () =
  (* on a master/worker tree the counters are per-pid: only the worker
     that serves the blocked request accumulates hits *)
  let blocks = Common.web_feature_blocks Workload.ngx in
  let c = Workload.boot Workload.ngx in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let _ =
    Dynacut.cut session ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "ngx_declined" }
  in
  let pids = Dynacut.tree_pids session in
  Alcotest.(check int) "master + worker" 2 (List.length pids);
  List.iter
    (fun pid ->
      Alcotest.(check int64) (Printf.sprintf "pid %d starts at zero" pid) 0L
        (Dynacut.handler_hits session ~pid))
    pids;
  let (_ : string) = Workload.rpc c "PUT /u.txt HTTP/1.0\r\n\r\ndata" in
  let with_hits, without =
    List.partition (fun pid -> Dynacut.handler_hits session ~pid > 0L) pids
  in
  Alcotest.(check int) "exactly one pid served the trap" 1 (List.length with_hits);
  Alcotest.(check bool) "the master stayed clean" true
    (List.mem c.Workload.pid without);
  (* redirect mode logs nothing to the verifier log, on any pid *)
  List.iter
    (fun pid ->
      Alcotest.(check (list int64)) (Printf.sprintf "pid %d verifier empty" pid)
        [] (Dynacut.verifier_log session ~pid))
    pids

let test_counters_survive_reenable () =
  (* the injected library stays mapped across a re-enable, so the
     counters remain readable: hits persist, the log does not grow *)
  let blocks = feature_blocks () in
  let m, p = boot () in
  let pid = p.Proc.pid in
  let session = Dynacut.create m ~root_pid:pid in
  let journals, _ =
    Dynacut.cut session ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "err_path" }
  in
  Alcotest.(check string) "blocked" "ERR" (request m "S");
  let hits = Dynacut.handler_hits session ~pid in
  Alcotest.(check bool) "trap counted" true (hits >= 1L);
  let (_ : Dynacut.timings) = Dynacut.reenable session journals in
  Alcotest.(check string) "feature back" "SET-OK" (request m "S");
  Alcotest.(check int64) "hits persist across re-enable" hits
    (Dynacut.handler_hits session ~pid);
  Alcotest.(check (list int64)) "verifier log still empty" []
    (Dynacut.verifier_log session ~pid)

let test_counters_after_resident_lib_respawn () =
  (* regression: a later cut overwrites the pristine image with the
     handler lib already resident. A pid respawned from that image gets
     no fresh injection on the next cut (the reuse path), so the cut
     must re-record the lib base — otherwise handler_hits reads zero
     while traps are being taken *)
  let blocks = feature_blocks () in
  let m, p = boot () in
  let pid = p.Proc.pid in
  let session = Dynacut.create m ~root_pid:pid in
  let redirect = { Dynacut.method_ = `First_byte; on_trap = `Redirect "err_path" } in
  (* cut 1 injects the lib; the re-enable leaves it mapped *)
  let journals, _ = Dynacut.cut session ~blocks ~policy:redirect in
  let (_ : Dynacut.timings) = Dynacut.reenable session journals in
  (* cut 2's checkpoint re-saves the pristine image — lib inside — and
     the first blocked request kills the process *)
  let _ =
    Dynacut.cut session ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Terminate }
  in
  let (_ : string) = request m "S" in
  Alcotest.(check bool) "terminated" false (Proc.is_live (Machine.proc_exn m pid));
  let (_ : Proc.t) = Restore.respawn m ~path:(Dynacut.pristine_path session pid) in
  Dynacut.forget_pid session ~pid;
  (* cut 3 finds the lib resident and skips injection; the counter must
     still be wired up *)
  let _ = Dynacut.cut session ~blocks ~policy:redirect in
  Alcotest.(check string) "blocked again" "ERR" (request m "S");
  Alcotest.(check bool) "hits visible after resident-lib respawn" true
    (Dynacut.handler_hits session ~pid >= 1L)

let suite =
  [
    Alcotest.test_case "tracediff finds the feature" `Quick test_tracediff_finds_feature;
    Alcotest.test_case "counters: empty session and unknown pid" `Quick
      test_counters_empty_session;
    Alcotest.test_case "counters: per-pid across a worker tree" `Quick
      test_counters_multi_pid;
    Alcotest.test_case "counters: survive re-enable" `Quick
      test_counters_survive_reenable;
    Alcotest.test_case "counters: resident-lib respawn keeps them wired" `Quick
      test_counters_after_resident_lib_respawn;
    Alcotest.test_case "cut: kill policy" `Quick test_cut_kill_policy;
    Alcotest.test_case "cut: redirect policy (403-style)" `Quick test_cut_redirect_policy;
    Alcotest.test_case "cut: terminate-handler policy" `Quick test_cut_terminate_policy;
    Alcotest.test_case "re-enable restores the feature" `Quick test_reenable_restores_feature;
    Alcotest.test_case "cut: wipe policy" `Quick test_cut_wipe_policy;
    Alcotest.test_case "verifier restores + logs false positives" `Quick
      test_verify_policy_restores_and_logs;
    Alcotest.test_case "cut preserves live connections" `Quick test_cut_preserves_connection;
    Alcotest.test_case "cut: unmap policy" `Quick test_unmap_policy;
    Alcotest.test_case "collector nudge phases" `Quick test_collector_nudge_phases;
    Alcotest.test_case "static CFG aligns with dynamic blocks" `Quick test_cfg_total_blocks;
  ]
