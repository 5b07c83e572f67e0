(** Supervisor tests: the canary protocol on a master/worker tree
    (replaying bit-for-bit from a fixed seed), the trap meter it reads,
    and verifier feedback. *)

let exe () = Crt0.link_app ~libc:Test_machine.libc Test_core.dispatch_server

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let check_log_mentions log needles =
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("log mentions " ^ needle) true (contains ~needle log))
    needles

(** A deliberately bad cut for dsrv: the blocks only wanted GET traffic
    covers. Under [`Redirect "err_path"] the same-function filter keeps
    exactly the G dispatch arm inside [handle], so every subsequent GET
    traps — a deterministic trap storm. *)
let storm_blocks () =
  let wanted = Test_core.trace_run [ "S"; "X"; "S" ] in
  let undesired = Test_core.trace_run [ "G"; "G" ] in
  (Tracediff.feature_blocks ~wanted:[ wanted ] ~undesired:[ undesired ] ())
    .Tracediff.undesired

let redirect_policy =
  { Dynacut.method_ = `First_byte; on_trap = `Redirect "err_path" }

(* ---------- canary rollout on a master/worker tree ---------- *)

(** A maximally bad cut for ngx: the wanted GET path under `Terminate —
    the first GET kills the process that serves it. The canary must
    absorb the blast; the master must never see the cut. *)
let ngx_storm_block () =
  Supervisor.block_of_sym (Common.app_exe Workload.ngx) ~module_:"ngx"
    ~sym:"ngx_http_get"

let canary_run () =
  Fault.reset ();
  let c = Workload.boot Workload.ngx in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let pids = Dynacut.tree_pids session in
  Alcotest.(check int) "master + worker" 2 (List.length pids);
  let master = c.Workload.pid in
  let worker = List.hd (List.rev (List.filter (fun p -> p <> master) pids)) in
  let block = ngx_storm_block () in
  let vaddr =
    Int64.add (Common.app_exe Workload.ngx).Self.base
      (Int64.of_int block.Covgraph.b_off)
  in
  let byte_at pid =
    Mem.peek8 (Machine.proc_exn c.Workload.m pid).Proc.mem vaddr
  in
  let orig = byte_at worker in
  Alcotest.(check int) "same binary" orig (byte_at master);
  let sup =
    Supervisor.create session
      ~config:{ Supervisor.default_config with Supervisor.canary_windows = 1 }
      ~blocks:[ block ]
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Terminate }
  in
  let drive () =
    ignore
      (Workload.rpc ~max_cycles:800_000 c (Workload.http_get "/index.html"))
  in
  let rollout = Supervisor.guarded_cut sup ~drive () in
  Alcotest.(check bool) "canary rejected" true
    (rollout = Supervisor.R_canary_rejected);
  (* the bad cut never reached the master... *)
  Alcotest.(check int) "master untouched" orig (byte_at master);
  Alcotest.(check bool) "master alive" true
    (Proc.is_live (Machine.proc_exn c.Workload.m master));
  (* ...and the canary was reverted byte-identically (respawned from its
     pristine image after the storm killed it) *)
  Alcotest.(check int) "canary byte-original" orig (byte_at worker);
  Alcotest.(check bool) "canary alive again" true
    (Proc.is_live (Machine.proc_exn c.Workload.m worker));
  (* the tree serves wanted traffic as if nothing happened *)
  let resp = Workload.rpc c (Workload.http_get "/index.html") in
  Alcotest.(check bool)
    (Printf.sprintf "GET 200 after rejection (got %S)" resp)
    true
    (String.length resp >= 12 && String.sub resp 0 12 = "HTTP/1.0 200");
  Supervisor.render_log sup

let test_canary_rejects_bad_cut () =
  let log = canary_run () in
  check_log_mentions log [ "canary-cut"; "canary-rejected" ]

let test_canary_replay () =
  let a = canary_run () in
  let b = canary_run () in
  Alcotest.(check string) "two canary runs render identical logs" a b

(* ---------- healthy canary promotes ---------- *)

let test_canary_promotes_good_cut () =
  Fault.reset ();
  let blocks = Common.web_feature_blocks Workload.ngx in
  let c = Workload.boot Workload.ngx in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let sup =
    Supervisor.create session
      ~config:{ Supervisor.default_config with Supervisor.canary_windows = 1 }
      ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "ngx_declined" }
  in
  let drive () =
    ignore (Workload.rpc ~max_cycles:800_000 c (Workload.http_get "/index.html"))
  in
  (match Supervisor.guarded_cut sup ~drive () with
  | Supervisor.R_promoted -> ()
  | r -> Alcotest.failf "expected promotion: %a" Supervisor.pp_rollout r);
  (* every pid carries the cut: the first byte of each effective block
     is int3 in both master and worker *)
  let effective = Dynacut.redirect_filter session ~sym:"ngx_declined" blocks in
  Alcotest.(check bool) "effective blocks nonempty" true (effective <> []);
  let base = (Common.app_exe Workload.ngx).Self.base in
  List.iter
    (fun pid ->
      let p = Machine.proc_exn c.Workload.m pid in
      List.iter
        (fun (b : Covgraph.block) ->
          Alcotest.(check int)
            (Printf.sprintf "pid %d off 0x%x cut" pid b.Covgraph.b_off)
            0xCC
            (Mem.peek8 p.Proc.mem (Int64.add base (Int64.of_int b.Covgraph.b_off))))
        effective)
    (Dynacut.tree_pids session);
  (* the feature is blocked, wanted traffic unaffected *)
  let put = Workload.rpc c (Workload.http_put "/up.txt" "data") in
  Alcotest.(check bool) (Printf.sprintf "PUT blocked (got %S)" put) true
    (String.length put >= 12 && String.sub put 0 12 = "HTTP/1.0 403");
  let get = Workload.rpc c (Workload.http_get "/index.html") in
  Alcotest.(check bool) "GET still 200" true
    (String.length get >= 12 && String.sub get 0 12 = "HTTP/1.0 200")

(* ---------- trap meter across a counter reset ---------- *)

let test_trap_meter_reset () =
  (* a respawn from the working image (sealed at cut time, counter 0)
     drops the guest counter below the meter's baseline: the next delta
     is the raw count, not a negative or wrapped difference *)
  Fault.reset ();
  let m, p = Test_core.boot () in
  let pid = p.Proc.pid in
  let session = Dynacut.create m ~root_pid:pid in
  let (_ : Rewriter.journal list * Dynacut.timings) =
    Dynacut.cut session ~blocks:(storm_blocks ()) ~policy:redirect_policy
  in
  let meter = Dynacut.trap_meter () in
  Alcotest.(check int) "no traps yet" 0 (Dynacut.trap_delta meter session ~pid);
  for _ = 1 to 3 do
    Alcotest.(check string) "G traps" "ERR" (Test_core.request m "G")
  done;
  Alcotest.(check int) "three traps" 3 (Dynacut.trap_delta meter session ~pid);
  Machine.reap m ~pid;
  let (_ : Proc.t) = Restore.respawn m ~path:(Dynacut.image_path session pid) in
  Alcotest.(check string) "G traps after the respawn" "ERR" (Test_core.request m "G");
  let raw = Dynacut.handler_hits session ~pid in
  Alcotest.(check int64) "counter reset below the baseline" 1L raw;
  Alcotest.(check int) "delta is the raw count" (Int64.to_int raw)
    (Dynacut.trap_delta meter session ~pid)

(* ---------- verifier feedback ---------- *)

let test_verifier_feedback_shrinks_cut () =
  Fault.reset ();
  let m, p = Test_core.boot () in
  let pid = p.Proc.pid in
  let exe = exe () in
  let get_entry = Option.get (Self.find_symbol exe "do_get") in
  (* the real feature plus a deliberate false positive: do_get's entry *)
  let fp =
    { Covgraph.b_module = "dsrv"; b_off = get_entry.Self.sym_off; b_size = 3 }
  in
  let blocks = Test_core.feature_blocks () @ [ fp ] in
  let session = Dynacut.create m ~root_pid:pid in
  let sup =
    Supervisor.create session ~config:Supervisor.default_config ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Verify }
  in
  (match Supervisor.guarded_cut sup ~drive:(fun () -> ()) () with
  | Supervisor.R_promoted -> ()
  | r -> Alcotest.failf "cut: %a" Supervisor.pp_rollout r);
  (* nothing logged yet: feedback is a no-op *)
  Alcotest.(check int) "no false positives yet" 0 (Supervisor.verifier_feedback sup);
  (* the wanted GET trips the verifier, which restores the byte and logs
     the address (§3.2.3) — and the request still succeeds *)
  Alcotest.(check string) "GET survives verification" "VAL=7" (Test_core.request m "G");
  Alcotest.(check int) "one false positive folded back" 1
    (Supervisor.verifier_feedback sup);
  (* the supervisor re-cut the shrunk set: do_get is out, the cut is live *)
  Alcotest.(check bool) "shrunk set excludes do_get" false
    (List.exists
       (fun (b : Covgraph.block) -> b.Covgraph.b_off = get_entry.Self.sym_off)
       (Supervisor.blocks sup));
  Alcotest.(check bool) "re-cut live" true (Supervisor.cut_live sup);
  (* GETs now run trap-free *)
  Alcotest.(check string) "GET fast path" "VAL=7" (Test_core.request m "G");
  Alcotest.(check int) "log did not grow" 1
    (List.length (Dynacut.verifier_log session ~pid));
  check_log_mentions (Supervisor.render_log sup) [ "verifier-shrunk dropped=1" ]

let suite =
  [
    Alcotest.test_case "canary absorbs a bad cut" `Quick test_canary_rejects_bad_cut;
    Alcotest.test_case "canary rollout replays bit-for-bit" `Quick test_canary_replay;
    Alcotest.test_case "healthy canary promotes to the tree" `Quick
      test_canary_promotes_good_cut;
    Alcotest.test_case "verifier feedback shrinks and re-cuts" `Quick
      test_verifier_feedback_shrinks_cut;
    Alcotest.test_case "trap meter: delta across a counter reset" `Quick
      test_trap_meter_reset;
  ]
