(** Fault-injection tests for the transactional cut pipeline: a fault at
    any registered site during [cut] must leave the target alive and
    serving its pre-cut behaviour (rollback invariant), corrupted tmpfs
    images must be rejected at load, transient faults must be retried,
    and a chaos soak drives cut/reenable cycles against ngx under random
    single-site faults. *)

let redirect_policy =
  { Dynacut.method_ = `First_byte; on_trap = `Redirect "err_path" }

(* every site the dsrv cut pipeline reaches (tcp_repair needs an open
   connection and gets its own test below) *)
let cut_sites =
  [
    "criu.checkpoint";
    "criu.save";
    "criu.load";
    "rewrite.patch";
    "inject.lib";
    "inject.policy";
    "restore.process";
  ]

(* ---------- rollback invariant, one site at a time ---------- *)

let check_rollback_at site () =
  Fault.reset ();
  let blocks = Test_core.feature_blocks () in
  let m, p = Test_core.boot () in
  Alcotest.(check string) "pre-cut G" "VAL=7" (Test_core.request m "G");
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  Fault.arm site Fault.One_shot;
  let r = Dynacut.try_cut session ~blocks ~policy:redirect_policy () in
  Alcotest.(check bool) (site ^ " fired") true (Fault.fired site = 1);
  (match r.Dynacut.r_outcome with
  | `Rolled_back rb ->
      Alcotest.(check string) "error names the site"
        ("injected fault at " ^ site) rb.Dynacut.rb_error
  | `Applied | `Degraded -> Alcotest.failf "fault at %s did not roll back" site);
  Alcotest.(check bool) "no journals" true (r.Dynacut.r_journals = []);
  (* the tree is alive and shows its *pre-cut* behaviour: the feature is
     not blocked *)
  Alcotest.(check bool) "server alive" true
    (Proc.is_live (Machine.proc_exn m p.Proc.pid));
  Alcotest.(check string) "G unchanged" "VAL=7" (Test_core.request m "G");
  Alcotest.(check string) "S unchanged" "SET-OK" (Test_core.request m "S");
  (* a clean retry with the (one-shot) fault gone now succeeds *)
  let r2 = Dynacut.try_cut session ~blocks ~policy:redirect_policy () in
  (match r2.Dynacut.r_outcome with
  | `Applied -> ()
  | o -> Alcotest.failf "clean retry: %a" Dynacut.pp_outcome o);
  Alcotest.(check string) "feature now blocked" "ERR" (Test_core.request m "S");
  Fault.reset ()

let test_rollback_tcp_repair () =
  Fault.reset ();
  let blocks = Test_core.feature_blocks () in
  let m, p = Test_core.boot () in
  (* open a connection and let the server block in recv on it, so the
     restore stage has TCP state to repair *)
  let c = Net.connect m.Machine.net 9200 in
  let (_ : _) = Machine.run m ~max_cycles:500_000 in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  Fault.arm "restore.tcp_repair" Fault.One_shot;
  let r = Dynacut.try_cut session ~blocks ~policy:redirect_policy () in
  Alcotest.(check bool) "tcp_repair fired" true (Fault.fired "restore.tcp_repair" = 1);
  (match r.Dynacut.r_outcome with
  | `Rolled_back rb -> Alcotest.(check string) "stage" "restore" rb.Dynacut.rb_stage
  | `Applied | `Degraded -> Alcotest.fail "expected rollback");
  (* the mid-cut connection still completes its request after rollback *)
  Net.client_send c "G";
  let (_ : _) = Machine.run m ~max_cycles:2_000_000 in
  Alcotest.(check string) "in-flight request survives rollback" "VAL=7"
    (Net.client_recv c);
  Alcotest.(check string) "feature unchanged" "SET-OK" (Test_core.request m "S");
  Fault.reset ()

(* ---------- image corruption ---------- *)

let test_corrupt_image_rejected () =
  let m, p = Test_core.boot () in
  Machine.freeze m ~pid:p.Proc.pid;
  let img = Checkpoint.dump m ~pid:p.Proc.pid () in
  let path =
    Checkpoint.save_sealed m ~dir:"/tmpfs/t" ~pid:p.Proc.pid (Validate.encode_sealed img)
  in
  let blob = Option.get (Vfs.find m.Machine.fs path) in
  (* flip one byte in the middle of the payload *)
  let corrupt = Bytes.of_string blob in
  let k = Bytes.length corrupt / 2 in
  Bytes.set corrupt k (Char.chr (Char.code (Bytes.get corrupt k) lxor 0x40));
  Vfs.add m.Machine.fs path (Bytes.to_string corrupt);
  Alcotest.(check bool) "bit flip caught" true
    (match Restore.load_from_tmpfs m ~path with
    | _ -> false
    | exception Validate.Validate_error _ -> true);
  (* truncation *)
  Vfs.add m.Machine.fs path (String.sub blob 0 (String.length blob - 7));
  Alcotest.(check bool) "truncation caught" true
    (match Restore.load_from_tmpfs m ~path with
    | _ -> false
    | exception Validate.Validate_error _ -> true);
  (* and the good blob still loads *)
  Vfs.add m.Machine.fs path blob;
  let loaded = Restore.load_from_tmpfs m ~path in
  Alcotest.(check int) "round trip" img.Images.core.Images.c_pid
    loaded.Images.core.Images.c_pid

(* ---------- retry and degrade ---------- *)

let test_transient_fault_retried () =
  Fault.reset ();
  let blocks = Test_core.feature_blocks () in
  let m, p = Test_core.boot () in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  Fault.arm ~transient:true "criu.save" Fault.One_shot;
  let r = Dynacut.try_cut session ~blocks ~policy:redirect_policy () in
  (match r.Dynacut.r_outcome with
  | `Applied -> ()
  | o -> Alcotest.failf "expected applied after retry: %a" Dynacut.pp_outcome o);
  Alcotest.(check bool) "retried" true (r.Dynacut.r_retries >= 1);
  Alcotest.(check bool) "backoff charged" true (r.Dynacut.r_backoff_cycles > 0);
  Alcotest.(check string) "feature blocked" "ERR" (Test_core.request m "S");
  Fault.reset ()

let test_retry_class_fault_retried () =
  Fault.reset ();
  let blocks = Test_core.feature_blocks () in
  let m, p = Test_core.boot () in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  (* not flagged transient, but the caller declares criu.* retryable *)
  Fault.arm "criu.checkpoint" Fault.One_shot;
  let r =
    Dynacut.try_cut session ~retry_classes:[ "criu." ] ~blocks
      ~policy:redirect_policy ()
  in
  (match r.Dynacut.r_outcome with
  | `Applied -> ()
  | o -> Alcotest.failf "expected applied after retry: %a" Dynacut.pp_outcome o);
  Alcotest.(check bool) "retried" true (r.Dynacut.r_retries >= 1);
  Fault.reset ()

let test_degrade_falls_back_to_first_byte () =
  Fault.reset ();
  let blocks = Test_core.feature_blocks () in
  let m, p = Test_core.boot () in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  (* the aggressive method keeps failing; with ~degrade the transaction
     falls back to `First_byte instead of rolling back *)
  Fault.arm "rewrite.unmap" (Fault.Every_nth 1);
  let r =
    Dynacut.try_cut session ~degrade:true ~blocks
      ~policy:{ Dynacut.method_ = `Unmap_pages; on_trap = `Redirect "err_path" }
      ()
  in
  (match r.Dynacut.r_outcome with
  | `Degraded -> ()
  | o -> Alcotest.failf "expected degraded: %a" Dynacut.pp_outcome o);
  Alcotest.(check string) "feature still blocked" "ERR" (Test_core.request m "S");
  Alcotest.(check string) "wanted path fine" "VAL=7" (Test_core.request m "G");
  (* without ~degrade the same fault rolls the cut back *)
  Fault.reset ();
  Fault.arm "rewrite.unmap" (Fault.Every_nth 1);
  let m2, p2 = Test_core.boot () in
  let s2 = Dynacut.create m2 ~root_pid:p2.Proc.pid in
  let r2 =
    Dynacut.try_cut s2 ~blocks
      ~policy:{ Dynacut.method_ = `Unmap_pages; on_trap = `Redirect "err_path" }
      ()
  in
  (match r2.Dynacut.r_outcome with
  | `Rolled_back _ -> ()
  | o -> Alcotest.failf "expected rollback: %a" Dynacut.pp_outcome o);
  Alcotest.(check string) "unchanged" "SET-OK" (Test_core.request m2 "S");
  Fault.reset ()

(* ---------- chaos soak against ngx ---------- *)

let test_chaos_soak_ngx () =
  Fault.reset ();
  let app =
    List.find (fun (a : Workload.app) -> a.Workload.a_name = "ngx") Workload.all_apps
  in
  let blocks = Common.web_feature_blocks app in
  let c = Workload.spawn app in
  Workload.wait_ready c;
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let get = "GET /index.html HTTP/1.0\r\n\r\n" in
  let answers () =
    let resp = Workload.rpc c get in
    Alcotest.(check bool)
      (Printf.sprintf "GET answered (got %S)" resp)
      true
      (String.length resp > 0
      && String.sub resp 0 (min 12 (String.length resp)) = "HTTP/1.0 200")
  in
  answers ();
  let rng = Rng.create 1234 in
  let policy = { Dynacut.method_ = `First_byte; on_trap = `Redirect "ngx_declined" } in
  let chaos_sites = cut_sites @ [ "restore.tcp_repair"; "crit.encode" ] in
  for _cycle = 1 to 12 do
    Fault.reset ();
    Fault.arm (Rng.choose rng chaos_sites) Fault.One_shot;
    (match Dynacut.try_cut session ~blocks ~policy () with
    | { Dynacut.r_outcome = `Applied | `Degraded; r_journals; _ } ->
        answers ();
        (* the armed fault may fire here instead; a rolled-back reenable
           just leaves the feature blocked — still serving *)
        ignore (Dynacut.try_reenable session r_journals)
    | { Dynacut.r_outcome = `Rolled_back _; _ } -> ());
    Fault.reset ();
    (* the invariant: whatever the fault hit, ngx answers *)
    answers ()
  done;
  Alcotest.(check bool) "server alive after soak" true
    (Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid))

(* ---------- supervisor fault sites ---------- *)

(** A fault at [supervisor.promote] must leave the fleet atomic: the
    canary's cut is reverted and the other pids' transaction rolled
    back, so every pid is fully original; a clean retry then leaves
    every pid fully cut. *)
let test_promote_fault_fleet_invariant () =
  Fault.reset ();
  let app = Workload.ngx in
  let blocks = Common.web_feature_blocks app in
  let c = Workload.spawn app in
  Workload.wait_ready c;
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let effective = Dynacut.redirect_filter session ~sym:"ngx_declined" blocks in
  Alcotest.(check bool) "effective blocks nonempty" true (effective <> []);
  let base = (Common.app_exe app).Self.base in
  let byte_of pid (b : Covgraph.block) =
    Mem.peek8
      (Machine.proc_exn c.Workload.m pid).Proc.mem
      (Int64.add base (Int64.of_int b.Covgraph.b_off))
  in
  let originals = List.map (byte_of c.Workload.pid) effective in
  let check_fleet label want =
    List.iter
      (fun pid ->
        let got = List.map (byte_of pid) effective in
        Alcotest.(check (list int))
          (Printf.sprintf "%s: pid %d" label pid)
          want got)
      (Dynacut.tree_pids session)
  in
  let sup =
    Supervisor.create session
      ~config:{ Supervisor.default_config with Supervisor.canary_windows = 1 }
      ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "ngx_declined" }
  in
  let drive () =
    ignore (Workload.rpc ~max_cycles:800_000 c "GET /index.html HTTP/1.0\r\n\r\n")
  in
  Fault.arm "supervisor.promote" Fault.One_shot;
  (match Supervisor.guarded_cut sup ~canary:true ~drive () with
  | Supervisor.R_promotion_failed -> ()
  | r -> Alcotest.failf "expected promotion failure: %a" Supervisor.pp_rollout r);
  Alcotest.(check bool) "promote fired" true (Fault.fired "supervisor.promote" = 1);
  (* every pid fully original *)
  check_fleet "after failed promotion" originals;
  Alcotest.(check string) "feature unchanged"
    "HTTP/1.0 201" (String.sub (Workload.rpc c "PUT /u.txt HTTP/1.0\r\n\r\ndata") 0 12);
  (* the (one-shot) fault is gone: the same supervisor promotes cleanly *)
  (match Supervisor.guarded_cut sup ~canary:true ~drive () with
  | Supervisor.R_promoted -> ()
  | r -> Alcotest.failf "clean retry: %a" Supervisor.pp_rollout r);
  (* every pid fully cut *)
  check_fleet "after promotion" (List.map (fun _ -> 0xCC) effective);
  Alcotest.(check string) "feature blocked everywhere"
    "HTTP/1.0 403" (String.sub (Workload.rpc c "PUT /u.txt HTTP/1.0\r\n\r\ndata") 0 12);
  Fault.reset ()

(** A fault at [supervisor.reenable] while the breaker trips must leave
    the cut fully applied; the next tick retries and re-enables fully. *)
let test_reenable_fault_leaves_cut_intact () =
  Fault.reset ();
  (* a deliberately bad cut: the blocks only wanted GETs cover *)
  let wanted = Test_core.trace_run [ "S"; "X"; "S" ] in
  let undesired = Test_core.trace_run [ "G"; "G" ] in
  let blocks =
    (Tracediff.feature_blocks ~wanted:[ wanted ] ~undesired:[ undesired ] ())
      .Tracediff.undesired
  in
  let m, p = Test_core.boot () in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  let sup =
    Supervisor.create session
      ~config:{ Supervisor.default_config with Supervisor.max_traps = 1 }
      ~blocks ~policy:redirect_policy
  in
  (match Supervisor.guarded_cut sup ~canary:false ~drive:(fun () -> ()) () with
  | Supervisor.R_promoted -> ()
  | r -> Alcotest.failf "cut: %a" Supervisor.pp_rollout r);
  for _ = 1 to 2 do
    Alcotest.(check string) "G storms" "ERR" (Test_core.request m "G")
  done;
  Fault.arm "supervisor.reenable" Fault.One_shot;
  Supervisor.tick sup;
  Alcotest.(check bool) "reenable fired" true (Fault.fired "supervisor.reenable" = 1);
  (* the trip failed: the cut is still fully applied, no trip recorded *)
  Alcotest.(check bool) "cut still live" true (Supervisor.cut_live sup);
  Alcotest.(check int) "no trip recorded" 0 (Supervisor.trips sup);
  Alcotest.(check string) "still blocked" "ERR" (Test_core.request m "G");
  (* next tick re-detects the storm; the fault is gone, re-enable lands *)
  Supervisor.tick sup;
  Alcotest.(check bool) "re-enabled" false (Supervisor.cut_live sup);
  Alcotest.(check int) "trip recorded" 1 (Supervisor.trips sup);
  Alcotest.(check string) "fully original" "VAL=7" (Test_core.request m "G");
  Fault.reset ()

(** A fault at [restore.respawn] leaves the dead worker dead; the next
    tick retries the respawn and brings it back with the cut intact. *)
let test_respawn_fault_retried () =
  Fault.reset ();
  let wanted = Test_core.trace_run [ "S"; "X"; "S" ] in
  let undesired = Test_core.trace_run [ "G"; "G" ] in
  let blocks =
    (Tracediff.feature_blocks ~wanted:[ wanted ] ~undesired:[ undesired ] ())
      .Tracediff.undesired
  in
  let m, p = Test_core.boot () in
  let pid = p.Proc.pid in
  let session = Dynacut.create m ~root_pid:pid in
  let sup =
    Supervisor.create session
      ~config:{ Supervisor.default_config with Supervisor.max_traps = 1000 }
      ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Kill }
  in
  (match Supervisor.guarded_cut sup ~canary:false ~drive:(fun () -> ()) () with
  | Supervisor.R_promoted -> ()
  | r -> Alcotest.failf "cut: %a" Supervisor.pp_rollout r);
  let (_ : string) = Test_core.request m "G" in
  Alcotest.(check bool) "killed" false (Proc.is_live (Machine.proc_exn m pid));
  Fault.arm "restore.respawn" Fault.One_shot;
  Supervisor.tick sup;
  Alcotest.(check bool) "respawn fired" true (Fault.fired "restore.respawn" = 1);
  Alcotest.(check bool) "still dead" false (Proc.is_live (Machine.proc_exn m pid));
  Supervisor.tick sup;
  Alcotest.(check bool) "respawned on retry" true
    (Proc.is_live (Machine.proc_exn m pid));
  Alcotest.(check string) "serving again" "SET-OK" (Test_core.request m "S");
  Fault.reset ()

(* ---------- guarded rollout chaos soak ---------- *)

let test_guarded_chaos_soak () =
  Fault.reset ();
  let app = Workload.ngx in
  let blocks = Common.web_feature_blocks app in
  let c = Workload.spawn app in
  Workload.wait_ready c;
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let get = "GET /index.html HTTP/1.0\r\n\r\n" in
  let answers () =
    let resp = Workload.rpc c get in
    Alcotest.(check bool)
      (Printf.sprintf "GET answered (got %S)" resp)
      true
      (String.length resp > 0
      && String.sub resp 0 (min 12 (String.length resp)) = "HTTP/1.0 200")
  in
  answers ();
  let rng = Rng.create 4242 in
  let policy = { Dynacut.method_ = `First_byte; on_trap = `Redirect "ngx_declined" } in
  let config = { Supervisor.default_config with Supervisor.canary_windows = 1 } in
  let chaos_sites = List.map fst Fault.known_sites in
  (* a fault on the serving path (e.g. net.serve) aborts that one
     request; the soak's oracle is the post-cycle answers () check *)
  let drive () =
    try ignore (Workload.rpc ~max_cycles:800_000 c get)
    with Fault.Injected _ -> ()
  in
  for _cycle = 1 to 10 do
    Fault.reset ();
    Fault.arm (Rng.choose rng chaos_sites) Fault.One_shot;
    let sup = Supervisor.create session ~config ~blocks ~policy in
    (match Supervisor.guarded_cut sup ~canary:true ~drive () with
    | Supervisor.R_promoted ->
        drive ();
        Supervisor.tick sup;
        (* the armed fault may fire here instead; a rolled-back reenable
           just leaves the feature blocked — still serving *)
        ignore (Dynacut.try_reenable session (Supervisor.journals sup))
    | Supervisor.R_canary_rejected | Supervisor.R_promotion_failed
    | Supervisor.R_rolled_back _ ->
        ());
    Fault.reset ();
    (* the invariant: whatever the fault hit, ngx answers *)
    answers ()
  done;
  Alcotest.(check bool) "server alive after soak" true
    (Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid));
  (* every site this run reached is in the static registry *)
  let known = List.map fst Fault.known_sites in
  List.iter
    (fun s -> Alcotest.(check bool) ("site registered: " ^ s) true (List.mem s known))
    (Fault.sites ())

(* ---------- the static site registry ---------- *)

let test_known_sites_registry () =
  let known = List.map fst Fault.known_sites in
  let expected =
    cut_sites
    @ [
        "restore.tcp_repair";
        "restore.respawn";
        "rewrite.unmap";
        "crit.encode";
        "crit.decode";
        "supervisor.promote";
        "supervisor.reenable";
        "journal.lock";
        "journal.append";
        "recover.replay";
        "fleet.wave";
        "fleet.manifest";
        "fleet.reenable";
        "fleet.recut";
        "balancer.dispatch";
        "balancer.health";
        "net.accept_queue";
        "net.serve";
        "fleet.shed";
        "scrub.page";
        "integrity.repair";
        "slice.trace";
        "slice.compute";
        "bbcache.dispatch";
        "bbcache.flush";
      ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("registered: " ^ s) true (List.mem s known))
    expected;
  (* the registry holds nothing beyond the sites the suites exercise *)
  Alcotest.(check int) "registry size" (List.length expected) (List.length known);
  List.iter
    (fun (_, desc) ->
      Alcotest.(check bool) "described" true (String.length desc > 0))
    Fault.known_sites

let suite =
  List.map
    (fun site ->
      Alcotest.test_case ("rollback at " ^ site) `Quick (check_rollback_at site))
    cut_sites
  @ [
      Alcotest.test_case "rollback at restore.tcp_repair" `Quick
        test_rollback_tcp_repair;
      Alcotest.test_case "corrupt/truncated image rejected" `Quick
        test_corrupt_image_rejected;
      Alcotest.test_case "transient fault retried" `Quick test_transient_fault_retried;
      Alcotest.test_case "retry-class fault retried" `Quick
        test_retry_class_fault_retried;
      Alcotest.test_case "degrade falls back to first-byte" `Quick
        test_degrade_falls_back_to_first_byte;
      Alcotest.test_case "chaos soak vs ngx" `Slow test_chaos_soak_ngx;
      Alcotest.test_case "promote fault: fleet stays atomic" `Quick
        test_promote_fault_fleet_invariant;
      Alcotest.test_case "reenable fault: cut stays intact, retried" `Quick
        test_reenable_fault_leaves_cut_intact;
      Alcotest.test_case "respawn fault: retried next tick" `Quick
        test_respawn_fault_retried;
      Alcotest.test_case "guarded rollout chaos soak" `Slow test_guarded_chaos_soak;
      Alcotest.test_case "fault-site registry complete" `Quick
        test_known_sites_registry;
    ]
