(** Fleet orchestration: wave planning, the fleet manifest, rolling
    rollouts (complete + halt), the balancer, and fleet-wide crash
    recovery — all replay-exact from a fixed seed. *)

let lapp = Workload.ltpd
let lget = "GET /index.html HTTP/1.0\r\n\r\n"
let lput = "PUT /up.txt HTTP/1.0\r\n\r\nbody"
let lblocks = lazy (Common.web_feature_blocks lapp)

let lpolicy =
  { Dynacut.method_ = `First_byte; on_trap = `Redirect "ltpd_403" }

let quick_sup = { Supervisor.default_config with Supervisor.canary_windows = 1 }

let send fleet reqs =
  List.iter (fun r -> ignore (Fleet.request fleet r)) reqs

(* ---------- wave planning ---------- *)

let test_plan () =
  let pids = [ 1; 2; 3; 4; 5; 6; 7 ] in
  let plan = Rollout.plan ~pids ~waves:3 in
  Alcotest.(check (list (list int)))
    "contiguous, earlier waves carry the extra"
    [ [ 1; 2; 3 ]; [ 4; 5 ]; [ 6; 7 ] ]
    plan;
  Alcotest.(check (list (list int)))
    "one wave" [ pids ]
    (Rollout.plan ~pids ~waves:1);
  Alcotest.(check (list (list int)))
    "more waves than pids collapses to singletons"
    [ [ 1 ]; [ 2 ] ]
    (Rollout.plan ~pids:[ 1; 2 ] ~waves:5)

(* ---------- manifest ---------- *)

let test_manifest_roundtrip () =
  let fs = Vfs.create () in
  let man = Journal.Manifest.attach fs ~dir:"/tmpfs/fleet" in
  let entries =
    Journal.Manifest.
      [
        Wave_begin { wave = 1; pids = [ 100; 101 ] };
        Worker_cut { wave = 1; pid = 100 };
        Worker_cut { wave = 1; pid = 101 };
        Wave_done { wave = 1 };
        Wave_begin { wave = 2; pids = [ 102 ] };
        Worker_cut { wave = 2; pid = 102 };
      ]
  in
  List.iter (Journal.Manifest.append man) entries;
  let got, torn = Journal.Manifest.read man in
  Alcotest.(check bool) "not torn" false torn;
  Alcotest.(check int) "all entries" (List.length entries) (List.length got);
  Alcotest.(check bool) "roundtrip" true (got = entries);
  let s = Journal.Manifest.summarize got in
  Alcotest.(check (list int)) "wave 1 completed" [ 1 ]
    s.Journal.Manifest.m_completed;
  (match s.Journal.Manifest.m_open with
  | Some (2, [ 102 ], [ 102 ]) -> ()
  | _ -> Alcotest.fail "wave 2 should be open with pid 102 cut");
  Alcotest.(check bool) "not done" false s.Journal.Manifest.m_done;
  (* a torn tail yields the longest valid prefix, flagged *)
  (match Vfs.find fs "/tmpfs/fleet/manifest" with
  | Some raw ->
      Vfs.add fs "/tmpfs/fleet/manifest"
        (String.sub raw 0 (String.length raw - 3))
  | None -> Alcotest.fail "manifest file missing");
  let got', torn' = Journal.Manifest.read man in
  Alcotest.(check bool) "torn tail detected" true torn';
  Alcotest.(check int) "prefix survives"
    (List.length entries - 1)
    (List.length got');
  Journal.Manifest.clear man;
  let got'', torn'' = Journal.Manifest.read man in
  Alcotest.(check bool) "clear" true (got'' = [] && not torn'')

let test_manifest_halted_summary () =
  let s =
    Journal.Manifest.(
      summarize
        [
          Wave_begin { wave = 1; pids = [ 9 ] };
          Worker_cut { wave = 1; pid = 9 };
          Wave_done { wave = 1 };
          Wave_begin { wave = 2; pids = [ 10 ] };
          Rollout_halted { wave = 2 };
        ])
  in
  Alcotest.(check bool) "closed by halt" true
    (s.Journal.Manifest.m_open = None);
  Alcotest.(check (option int)) "halted wave" (Some 2)
    s.Journal.Manifest.m_halted

(* ---------- rolling rollout ---------- *)

let test_rollout_completes () =
  Obs.reset ();
  Fault.reset ();
  let fleet = Fleet.boot ~n:3 ~blocks:(Lazy.force lblocks) ~policy:lpolicy lapp in
  let drive () = send fleet [ lget ] in
  let outcome, reports =
    Fleet.rollout fleet
      ~config:Rollout.{ r_waves = 3; r_sup = quick_sup }
      ~drive ()
  in
  (match outcome with
  | Rollout.Completed { waves } -> Alcotest.(check int) "3 waves" 3 waves
  | o -> Alcotest.failf "rollout: %a" Rollout.pp_outcome o);
  Alcotest.(check int) "a report per wave" 3 (List.length reports);
  List.iter
    (fun (r : Rollout.wave_report) ->
      Alcotest.(check bool) "waves pause for a while" true
        (r.Rollout.wr_pause_cycles > 0L))
    reports;
  List.iter
    (fun w ->
      Alcotest.(check bool) "every worker carries the cut" true
        (Rollout.cut_live w))
    (Fleet.workers fleet);
  (* the manifest records the whole rollout as done *)
  let entries, torn = Journal.Manifest.read (Fleet.manifest fleet) in
  Alcotest.(check bool) "manifest intact" false torn;
  let s = Journal.Manifest.summarize entries in
  Alcotest.(check bool) "done" true s.Journal.Manifest.m_done;
  Alcotest.(check (list int)) "waves closed" [ 1; 2; 3 ]
    s.Journal.Manifest.m_completed;
  (* the cut fleet refuses the feature and serves the rest *)
  (match Fleet.request fleet lput with
  | `Reply (_, resp) ->
      Alcotest.(check bool) "PUT blocked" true
        (String.length resp > 12 && String.sub resp 9 3 = "403")
  | `Refused -> Alcotest.fail "fleet refused")

let test_rollout_halts_on_trap_storm () =
  Obs.reset ();
  Fault.reset ();
  let fleet = Fleet.boot ~n:3 ~blocks:(Lazy.force lblocks) ~policy:lpolicy lapp in
  let pids = Fleet.pids fleet in
  (* wave 2's canary sees undesired traffic and must reject *)
  let drive () =
    let wave = int_of_float (Obs.gauge_value (Obs.gauge "fleet.wave")) in
    if wave >= 2 then send fleet (List.init 12 (fun _ -> lput))
    else send fleet [ lget ]
  in
  let outcome, _ =
    Fleet.rollout fleet
      ~config:Rollout.{ r_waves = 2; r_sup = quick_sup }
      ~drive ()
  in
  (match outcome with
  | Rollout.Halted { wave = 2; reason = "canary-rejected" } -> ()
  | o -> Alcotest.failf "rollout: %a" Rollout.pp_outcome o);
  (* wave 1 stays cut, the halted wave is back to original *)
  let wave1 = List.hd (Rollout.plan ~pids ~waves:2) in
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "pid %d cut=%b" w.Rollout.w_pid
           (List.mem w.Rollout.w_pid wave1))
        (List.mem w.Rollout.w_pid wave1)
        (Rollout.cut_live w))
    (Fleet.workers fleet);
  let entries, _ = Journal.Manifest.read (Fleet.manifest fleet) in
  let s = Journal.Manifest.summarize entries in
  Alcotest.(check (option int)) "halt recorded" (Some 2)
    s.Journal.Manifest.m_halted;
  (* the fleet still serves wanted traffic *)
  match Fleet.request fleet lget with
  | `Reply (_, resp) ->
      Alcotest.(check bool) "GET ok" true
        (String.length resp > 12 && String.sub resp 9 3 = "200")
  | `Refused -> Alcotest.fail "fleet refused"

(* ---------- fleet recovery ---------- *)

let test_recover_unwinds_open_wave () =
  Obs.reset ();
  Fault.reset ();
  let fleet = Fleet.boot ~n:2 ~blocks:(Lazy.force lblocks) ~policy:lpolicy lapp in
  let m = Fleet.machine fleet and pids = Fleet.pids fleet in
  let w1 = Fleet.worker fleet ~pid:(List.hd pids) in
  (* simulate a controller crash mid-wave: the first member's cut has
     committed (manifest intent + Worker_cut), the wave never closed *)
  (match Dynacut.try_cut w1.Rollout.w_session ~blocks:(Lazy.force lblocks) ~policy:lpolicy () with
  | { Dynacut.r_outcome = `Applied; _ } -> ()
  | { Dynacut.r_outcome = `Rolled_back _; _ } -> Alcotest.fail "setup cut failed");
  let man = Fleet.manifest fleet in
  Journal.Manifest.append man
    (Journal.Manifest.Wave_begin { wave = 1; pids });
  Journal.Manifest.append man
    (Journal.Manifest.Worker_cut { wave = 1; pid = List.hd pids });
  let r = Fleet.recover m ~pids in
  Alcotest.(check (list int)) "the committed member is unwound"
    [ List.hd pids ] r.Fleet.fr_unwound;
  Alcotest.(check int) "interrupted wave" 1 r.Fleet.fr_wave;
  (* converged: the manifest now shows the wave halted, and a second
     recovery pass is a no-op *)
  let entries, _ = Journal.Manifest.read man in
  let s = Journal.Manifest.summarize entries in
  Alcotest.(check bool) "wave closed" true (s.Journal.Manifest.m_open = None);
  let r2 = Fleet.recover m ~pids in
  Alcotest.(check (list int)) "second pass no-op" [] r2.Fleet.fr_unwound;
  (* the unwound worker serves again *)
  match Fleet.request fleet lget with
  | `Reply (_, resp) ->
      Alcotest.(check bool) "GET ok" true
        (String.length resp > 12 && String.sub resp 9 3 = "200")
  | `Refused -> Alcotest.fail "fleet refused"

(* ---------- least-loaded dispatch (§6b) ---------- *)

let test_frozen_worker_zero_dispatches () =
  Obs.reset ();
  Fault.reset ();
  let fleet = Fleet.boot ~n:3 ~blocks:(Lazy.force lblocks) ~policy:lpolicy lapp in
  let m = Fleet.machine fleet and pids = Fleet.pids fleet in
  let cold = List.hd pids in
  Machine.freeze m ~pid:cold;
  for _ = 1 to 12 do
    match Fleet.request fleet lget with
    | `Reply (pid, resp) ->
        Alcotest.(check bool) "not the frozen worker" true (pid <> cold);
        Alcotest.(check string) "200" "200" (String.sub resp 9 3)
    | `Refused -> Alcotest.fail "fleet refused"
  done;
  Alcotest.(check int) "zero dispatches to the frozen worker" 0
    (Balancer.dispatches ~pid:cold);
  (* the decision log shows it skipped as frozen on every dispatch *)
  let ds = Balancer.decisions (Fleet.balancer fleet) in
  Alcotest.(check bool) "decisions recorded" true (List.length ds >= 12);
  List.iter
    (fun (d : Balancer.decision) ->
      match d.Balancer.d_verdict with
      | Balancer.Dispatched _ ->
          Alcotest.(check bool) "frozen pid in the skip list" true
            (List.assoc_opt cold d.Balancer.d_skipped = Some Balancer.Frozen)
      | _ -> ())
    ds;
  (* thawed, it rejoins the rotation (least-loaded: it goes first) *)
  Machine.thaw m ~pid:cold;
  for _ = 1 to 6 do
    ignore (Fleet.request fleet lget)
  done;
  Alcotest.(check bool) "serves again after thaw" true
    (Balancer.dispatches ~pid:cold > 0)

(* The bounded accept queues are the balancer's only load limit: with
   the machine never run, 2 x 8 dispatches fill both workers' queues
   (least-loaded alternates between them), the next is refused with
   each pid skipped as Backlog_full, and serving one queued connection
   admits again. *)
let test_backlog_full_refuses () =
  Obs.reset ();
  Fault.reset ();
  let fleet = Fleet.boot ~n:2 ~blocks:(Lazy.force lblocks) ~policy:lpolicy lapp in
  let b = Fleet.balancer fleet and pids = Fleet.pids fleet in
  let admit what =
    match Balancer.dispatch b lget with
    | `Ticket tk -> tk
    | `Refused -> Alcotest.failf "%s: refused" what
    | `Shed -> Alcotest.failf "%s: shed" what
  in
  let tickets =
    List.init (2 * Balancer.backlog_max) (fun i ->
        admit (Printf.sprintf "dispatch %d" (i + 1)))
  in
  (* equal load goes to the lower pid, so the queues fill in turn *)
  Alcotest.(check (list int)) "dispatches alternate, lower pid first"
    (List.concat (List.init Balancer.backlog_max (fun _ -> pids)))
    (List.map (fun tk -> tk.Balancer.tk_pid) tickets);
  (match Balancer.dispatch b lget with
  | `Refused -> ()
  | `Ticket _ -> Alcotest.fail "dispatched past two full queues"
  | `Shed -> Alcotest.fail "shed");
  (match List.rev (Balancer.decisions b) with
  | { Balancer.d_verdict = Balancer.All_skipped; d_skipped; _ } :: _ ->
      Alcotest.(check (list int)) "every pid skipped" pids (List.map fst d_skipped);
      List.iter
        (fun (pid, why) ->
          if why <> Balancer.Backlog_full then
            Alcotest.failf "pid %d skipped for another reason" pid)
        d_skipped
  | _ -> Alcotest.fail "the refusal was not logged as all-skipped");
  (* the first worker accepts and answers its oldest queued connection *)
  let t1 = List.hd tickets in
  let m = Fleet.machine fleet in
  let (_ : _) =
    Machine.run_until m ~max_cycles:2_000_000 ~pred:(fun () ->
        Net.client_pending t1.Balancer.tk_conn > 0)
  in
  (match Balancer.poll b t1 with
  | `Reply (_, resp) -> Alcotest.(check string) "queued request served" "200" (String.sub resp 9 3)
  | `Pending | `Timed_out _ -> Alcotest.fail "queued request not served");
  Balancer.finish b (admit "dispatch after a served connection")

(* ---------- manifest compaction ---------- *)

let test_manifest_checkpoint_compact () =
  let fs = Vfs.create () in
  let man = Journal.Manifest.attach fs ~dir:"/tmpfs/fleet" in
  List.iter (Journal.Manifest.append man)
    Journal.Manifest.
      [
        Wave_begin { wave = 1; pids = [ 100; 101 ] };
        Worker_cut { wave = 1; pid = 100 };
        Worker_cut { wave = 1; pid = 101 };
        Wave_done { wave = 1 };
        Wave_begin { wave = 2; pids = [ 102; 103 ] };
        Worker_cut { wave = 2; pid = 102 };
      ];
  let before = Journal.Manifest.summarize (fst (Journal.Manifest.read man)) in
  (* tear the tail: compaction must drop it and re-seal *)
  (match Vfs.find fs "/tmpfs/fleet/manifest" with
  | Some raw -> Vfs.add fs "/tmpfs/fleet/manifest" (raw ^ "\x07garbage")
  | None -> Alcotest.fail "manifest file missing");
  let _, torn = Journal.Manifest.read man in
  Alcotest.(check bool) "tail torn" true torn;
  Journal.Manifest.compact man;
  let entries, torn' = Journal.Manifest.read man in
  Alcotest.(check bool) "fully sealed after compaction" false torn';
  (* closed history folds into one checkpoint; the open wave's records
     are re-emitted verbatim so recovery can still unwind it *)
  (match entries with
  | Journal.Manifest.
      [
        Checkpoint { completed = [ 1 ]; halted = None; done_ = false };
        Wave_begin { wave = 2; pids = [ 102; 103 ] };
        Worker_cut { wave = 2; pid = 102 };
      ] ->
      ()
  | _ ->
      Alcotest.failf "unexpected compacted manifest: [%s]"
        (String.concat "; "
           (List.map
              (Format.asprintf "%a" Journal.Manifest.pp_entry)
              entries)));
  let after = Journal.Manifest.summarize entries in
  Alcotest.(check bool) "summary preserved" true (before = after);
  (* close the wave and re-compact: everything folds into the record *)
  Journal.Manifest.append man (Journal.Manifest.Wave_done { wave = 2 });
  Journal.Manifest.compact man;
  (match Journal.Manifest.read man with
  | ( [
        Journal.Manifest.Checkpoint
          { completed = [ 1; 2 ]; halted = None; done_ = false };
      ],
      false ) ->
      ()
  | entries2, _ ->
      Alcotest.failf "re-compaction kept %d entries" (List.length entries2));
  (* a checkpoint roundtrips like any entry *)
  Journal.Manifest.append man
    (Journal.Manifest.Checkpoint
       { completed = [ 9 ]; halted = Some 3; done_ = true });
  let all, torn'' = Journal.Manifest.read man in
  Alcotest.(check bool) "appended checkpoint intact" true (not torn'');
  match List.rev all with
  | Journal.Manifest.Checkpoint { completed = [ 9 ]; halted = Some 3; done_ = true }
    :: _ ->
      ()
  | _ -> Alcotest.fail "checkpoint did not roundtrip"

(* ---------- owner-keyed routing across reap + revive ---------- *)

let test_route_after_reap_revive () =
  Obs.reset ();
  Fault.reset ();
  let fleet = Fleet.boot ~n:2 ~blocks:(Lazy.force lblocks) ~policy:lpolicy lapp in
  let m = Fleet.machine fleet and pids = Fleet.pids fleet in
  let victim = List.nth pids 0 and other = List.nth pids 1 in
  (* the controller dies mid-restore: the victim's processes were reaped
     and their revival is recovery's job *)
  Fault.arm ~kill:true Restore_process Fault.One_shot;
  let w = Fleet.worker fleet ~pid:victim in
  (match
     Dynacut.try_cut w.Rollout.w_session ~blocks:(Lazy.force lblocks)
       ~policy:lpolicy ()
   with
  | (_ : Dynacut.cut_result) -> Alcotest.fail "controller survived its death"
  | exception Fault.Controller_killed _ -> ());
  Fault.reset ();
  let r = Fleet.recover m ~pids in
  (match List.assoc victim r.Fleet.fr_workers with
  | `Rolled_back -> ()
  | a ->
      Alcotest.failf "victim recovery: %s"
        (match a with
        | `Nothing -> "nothing"
        | `Thawed -> "thawed"
        | `Completed -> "completed"
        | _ -> "?"));
  (* the revived worker re-registered its listener under its own pid:
     drain the other worker and the request must route to the victim *)
  Balancer.drain (Fleet.balancer fleet) ~pid:other;
  (match Fleet.request fleet lget with
  | `Reply (pid, resp) ->
      Alcotest.(check int) "the revived worker serves" victim pid;
      Alcotest.(check string) "200" "200" (String.sub resp 9 3)
  | `Refused -> Alcotest.fail "fleet refused");
  Balancer.undrain (Fleet.balancer fleet) ~pid:other;
  match Fleet.request fleet lget with
  | `Reply (_, resp) -> Alcotest.(check string) "200" "200" (String.sub resp 9 3)
  | `Refused -> Alcotest.fail "fleet refused"

(* The kernel forgets a connection once the worker has closed it, so a
   serving machine's connection table does not grow with the requests it
   has handled. *)
let test_conn_table_bounded () =
  Obs.reset ();
  Fault.reset ();
  let fleet = Fleet.boot ~n:2 ~blocks:(Lazy.force lblocks) ~policy:lpolicy lapp in
  let m = Fleet.machine fleet in
  for i = 1 to 5_000 do
    match Fleet.request fleet lget with
    | `Reply (_, resp) ->
        if String.sub resp 9 3 <> "200" then Alcotest.failf "request %d: %s" i resp
    | `Refused -> Alcotest.failf "request %d not served" i
  done;
  (* connection ids are handed out in sequence from 1, and the boot and
     the requests open far fewer than 10000 connections *)
  let n = ref 0 in
  for id = 0 to 10_000 do
    if Option.is_some (Net.find_conn m.Machine.net id) then incr n
  done;
  if !n > 4 then Alcotest.failf "%d connections still in the kernel table" !n

(* ---------- the machine under test is created last ---------- *)

(* [Fleet.boot] takes its blocks as an argument, so discovery, which
   creates throwaway machines, always runs before the fleet machine
   exists, and the [Obs] clock and the [Fault] delay hook (both follow
   the last machine created) land on the fleet. The order the builder
   replaced at several call sites, spawn the fleet and then discover,
   left them on a discovery machine: once a major GC had collected it,
   a 100,000-cycle delay moved the fleet's clock by 0 and [Obs] events
   were stamped 0. *)
let test_boot_discovers_first () =
  Obs.reset ();
  Fault.reset ();
  let fleet =
    Fleet.boot ~n:2 ~blocks:(Common.web_feature_blocks lapp) ~policy:lpolicy lapp
  in
  let m = Fleet.machine fleet in
  Gc.full_major ();
  let c0 = m.Machine.clock in
  Alcotest.(check bool) "the fleet booted on its own clock" true (c0 > 0L);
  Fault.arm_mode Net_serve Fault.One_shot (Fault.Delay 100_000);
  Fault.site Net_serve;
  Alcotest.(check int64) "the delay lands on the fleet" (Int64.add c0 100_000L)
    m.Machine.clock;
  (match List.rev (Obs.events ()) with
  | e :: _ ->
      Alcotest.(check string) "the last event is the fault" "fault" e.Obs.ev_kind;
      Alcotest.(check int64) "stamped with the fleet's clock" c0 e.Obs.ev_clock
  | [] -> Alcotest.fail "the fault emitted no event");
  Obs.event ~kind:"test" "after the delay";
  match List.rev (Obs.events ()) with
  | e :: _ ->
      Alcotest.(check int64) "a later event reads the moved clock" m.Machine.clock
        e.Obs.ev_clock
  | [] -> Alcotest.fail "no event recorded"

let suite =
  [
    Alcotest.test_case "wave planning" `Quick test_plan;
    Alcotest.test_case "manifest roundtrip + torn tail" `Quick
      test_manifest_roundtrip;
    Alcotest.test_case "manifest halted summary" `Quick
      test_manifest_halted_summary;
    Alcotest.test_case "rollout completes" `Quick test_rollout_completes;
    Alcotest.test_case "rollout halts on trap storm" `Quick
      test_rollout_halts_on_trap_storm;
    Alcotest.test_case "recover unwinds open wave" `Quick
      test_recover_unwinds_open_wave;
    Alcotest.test_case "frozen worker gets zero dispatches" `Quick
      test_frozen_worker_zero_dispatches;
    Alcotest.test_case "backlog-full dispatch refuses" `Quick
      test_backlog_full_refuses;
    Alcotest.test_case "manifest checkpoint compaction" `Quick
      test_manifest_checkpoint_compact;
    Alcotest.test_case "owner-keyed routing after reap+revive" `Quick
      test_route_after_reap_revive;
    Alcotest.test_case "connection table stays bounded" `Quick test_conn_table_bounded;
    Alcotest.test_case "boot runs discovery before the fleet" `Quick
      test_boot_discovers_first;
  ]
