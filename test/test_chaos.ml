(** Directed fault strikes outside the coverage matrix: single faults
    over a whole fleet rollout, a controller death mid-wave recovered
    worker by worker. *)

let converges oracle fleet =
  match Chaos.fleet_converges oracle fleet with
  | r -> r
  | exception Chaos.Probe_failure msg -> Alcotest.fail msg

let no_violations what vs =
  Alcotest.(check (list string)) what []
    (List.map (Format.asprintf "%a" Oracle.pp_violation) vs)

(* one struck rollout over a fresh 4-worker fleet: the rollout's
   outcome, the fleet and its oracle context *)
let strike_rollout site mode =
  Fault.reset ();
  let fleet, oracle = Chaos.ltpd_fleet 4 in
  let outcome = ref None in
  let (_ : Chaos.outcome) =
    Chaos.strike site mode (fun () ->
        outcome := Some (Chaos.rollout fleet))
  in
  Fault.reset ();
  match !outcome with
  | Some o -> (o, fleet, oracle)
  | None -> Alcotest.failf "rollout under %s did not return" (Fault.Site.name site)

(* a corrupted journal frame never half-patches a worker: the canary's
   [Begin] does not read back, so its cut rolls back before the tree is
   frozen. The rollout halts at wave 1 with every worker original, and
   the fleet converges and serves *)
let test_corrupt_journal_clean () =
  let outcome, fleet, oracle = strike_rollout Journal_append Fault.Corrupt in
  (match outcome with
  | Rollout.Halted { wave = 1; reason } ->
      Alcotest.(check string) "refused at the journal"
        "canary-cut rolled back at journal" reason
  | o -> Alcotest.failf "expected a halt at wave 1: %a" Rollout.pp_outcome o);
  let (_ : Dynacut.recovery list) = converges oracle fleet in
  no_violations "every worker original" (Oracle.check_sides oracle ~cut:[])

(* a multi-fire tear: every 4th journal record is torn. The canary's
   three records read back, the member's [Begin] (the 4th) does not, so
   the member's cut rolls back and the rollout halts at wave 1. The
   halt reverts the canary with the spec still armed; the revert is an
   unwind path and runs with faults masked, so the canary's re-enable
   applies instead of rolling back and leaving it cut *)
let test_multi_fire_corrupt_journal_halt () =
  Fault.reset ();
  let fleet, oracle = Chaos.ltpd_fleet 4 in
  Fault.arm_mode Journal_append (Fault.Every_nth 4) Fault.Corrupt;
  let outcome = Chaos.rollout fleet in
  Alcotest.(check int) "the revert masked the spec" 1 (Fault.fired Journal_append);
  Fault.reset ();
  (match outcome with
  | Rollout.Halted { wave = 1; reason } ->
      Alcotest.(check string) "the member's tear halts the rollout"
        "member cut rolled back at journal" reason
  | o -> Alcotest.failf "expected a halt at wave 1: %a" Rollout.pp_outcome o);
  let (_ : Dynacut.recovery list) = converges oracle fleet in
  no_violations "every worker original" (Oracle.check_sides oracle ~cut:[])

(* a full disk at image-save time is a clean refusal: the canary's cut
   rolls back, the rollout halts at wave 1 with every worker original,
   and the fleet converges and serves *)
let test_enospc_clean_refusal () =
  let outcome, fleet, oracle = strike_rollout Criu_save Fault.Enospc in
  (match outcome with
  | Rollout.Halted { wave = 1; reason } ->
      Alcotest.(check string) "refused at the checkpoint"
        "canary-cut rolled back at checkpoint" reason
  | o -> Alcotest.failf "expected a halt at wave 1: %a" Rollout.pp_outcome o);
  let (_ : Dynacut.recovery list) = converges oracle fleet in
  no_violations "every worker original" (Oracle.check_sides oracle ~cut:[])

(* Wave 1 of a 6-worker, 2-wave rollout is three workers. The
   controller dies while it checkpoints the wave's third member. Each
   member's cut is its own journaled transaction, so per-worker
   recovery keeps the two that committed (the canary and the second
   member) cut and leaves the struck member, whose transaction never
   committed, and all of wave 2 original. *)
let test_mid_wave_kill_per_worker () =
  Fault.reset ();
  let fleet, oracle = Chaos.ltpd_fleet 6 in
  let m = Fleet.machine fleet and pids = Fleet.pids fleet in
  let committed, struck, wave2 =
    match Rollout.plan ~pids ~waves:2 with
    | [ [ c; s; t ]; w2 ] -> ([ c; s ], t, w2)
    | _ -> Alcotest.fail "expected two waves of three"
  in
  let outcome =
    Chaos.strike
      ~spec:(Fault.On_nth (Fault.hits Criu_checkpoint + 3))
      Criu_checkpoint Fault.Kill
      (fun () -> ignore (Chaos.rollout fleet : Rollout.outcome))
  in
  Alcotest.(check bool) "controller killed" true (outcome = `Killed);
  Fault.reset ();
  let recoveries = converges oracle fleet in
  (* the kill froze the struck member before its images were saved:
     only its journal holds an open transaction *)
  Alcotest.(check (list string)) "recovery thaws only the struck member"
    (List.map (fun pid -> if pid = struck then "thawed" else "nothing") pids)
    (List.map
       (fun r ->
         match r.Dynacut.rec_action with
         | `Nothing -> "nothing"
         | `Thawed -> "thawed"
         | `Rolled_back -> "rolled-back"
         | `Completed -> "completed")
       recoveries);
  no_violations "canary and second member stay cut"
    (Oracle.check_sides { oracle with Oracle.oc_pids = committed } ~cut:committed);
  no_violations "struck member and wave 2 original"
    (Oracle.check_sides { oracle with Oracle.oc_pids = struck :: wave2 } ~cut:[]);
  (* recovery hands the struck member back running *)
  let p = Machine.proc_exn m struck in
  Alcotest.(check bool) "the struck member is live and thawed" true
    (Proc.is_live p && not p.Proc.frozen);
  (* and routable: with every other worker frozen, the balancer sends
     the next request to the struck member *)
  let others = List.filter (fun pid -> pid <> struck) pids in
  List.iter (fun pid -> Machine.freeze m ~pid) others;
  (match Fleet.request fleet Chaos.get with
  | `Reply (pid, resp) ->
      Alcotest.(check int) "the struck member serves" struck pid;
      Alcotest.(check string) "200" "200" (String.sub resp 9 3)
  | `Refused -> Alcotest.fail "the struck member is never routed to");
  List.iter (fun pid -> Machine.thaw m ~pid) others

let suite =
  [
    Alcotest.test_case "corrupt journal caught cleanly" `Quick
      test_corrupt_journal_clean;
    Alcotest.test_case "enospc is a clean refusal" `Quick
      test_enospc_clean_refusal;
    Alcotest.test_case "multi-fire corrupt journal: halt reverts the canary" `Quick
      test_multi_fire_corrupt_journal_halt;
    Alcotest.test_case "mid-wave kill: per-worker recovery" `Quick
      test_mid_wave_kill_per_worker;
  ]
