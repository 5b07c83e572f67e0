(** Fleet orchestration: wave planning, rolling rollouts (complete +
    halt), the balancer, and a worker's recovery through its own
    journal — all replay-exact from a fixed seed. *)

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
  (* the fleet still serves wanted traffic *)
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
  let actions =
    List.map
      (fun pid -> (pid, (Dynacut.recover m ~root_pid:pid).Dynacut.rec_action))
      pids
  in
  (match List.assoc victim actions with
  | `Rolled_back -> ()
  | a ->
      Alcotest.failf "victim recovery: %s"
        (match a with
        | `Nothing -> "nothing"
        | `Thawed -> "thawed"
        | `Completed -> "completed"
        | _ -> "?"));
  (* the revived worker re-registered its listener under its own pid:
     freeze the other worker and the request must route to the victim *)
  Machine.freeze m ~pid:other;
  (match Fleet.request fleet lget with
  | `Reply (pid, resp) ->
      Alcotest.(check int) "the revived worker serves" victim pid;
      Alcotest.(check string) "200" "200" (String.sub resp 9 3)
  | `Refused -> Alcotest.fail "fleet refused");
  Machine.thaw m ~pid:other;
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
   exists, and the [Obs] clock (it follows the last machine created)
   lands on the fleet. The order once used at several call sites, spawn
   the fleet and then discover, left it on a discovery machine: once a
   major GC had collected that machine, [Obs] events were stamped 0. *)
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
  Obs.event ~kind:"test" "after the collection";
  (match List.rev (Obs.events ()) with
  | e :: _ -> Alcotest.(check int64) "stamped with the fleet's clock" c0 e.Obs.ev_clock
  | [] -> Alcotest.fail "no event recorded");
  (match Fleet.request fleet lget with
  | `Reply _ -> ()
  | `Refused -> Alcotest.fail "the fleet refused a GET");
  Alcotest.(check bool) "the request moved the fleet's clock" true (m.Machine.clock > c0);
  Obs.event ~kind:"test" "after the request";
  match List.rev (Obs.events ()) with
  | e :: _ ->
      Alcotest.(check int64) "a later event reads the moved clock" m.Machine.clock
        e.Obs.ev_clock
  | [] -> Alcotest.fail "no event recorded"

let suite =
  [
    Alcotest.test_case "wave planning" `Quick test_plan;
    Alcotest.test_case "rollout completes" `Quick test_rollout_completes;
    Alcotest.test_case "rollout halts on trap storm" `Quick
      test_rollout_halts_on_trap_storm;
    Alcotest.test_case "frozen worker gets zero dispatches" `Quick
      test_frozen_worker_zero_dispatches;
    Alcotest.test_case "backlog-full dispatch refuses" `Quick
      test_backlog_full_refuses;
    Alcotest.test_case "owner-keyed routing after reap+revive" `Quick
      test_route_after_reap_revive;
    Alcotest.test_case "connection table stays bounded" `Quick test_conn_table_bounded;
    Alcotest.test_case "boot runs discovery before the fleet" `Quick
      test_boot_discovers_first;
  ]
