(** Directed fault strikes outside the coverage matrix: single faults
    over a whole fleet rollout, a fault pair the matrix cannot express
    (a torn fleet manifest under a mid-wave controller death), and
    [Chaos.strike]'s own delay check. *)

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
    Chaos.strike (Fleet.machine fleet) site mode (fun () ->
        outcome := Some (Chaos.rollout fleet))
  in
  Fault.reset ();
  match !outcome with
  | Some o -> (o, fleet, oracle)
  | None -> Alcotest.failf "rollout under %s did not return" (Fault.Site.name site)

(* a corrupted journal frame never half-patches a worker: a reader
   drops it with the torn tail, and the transaction's commit removes
   the journal. The rollout completes, the fleet converges and serves *)
let test_corrupt_journal_clean () =
  let outcome, fleet, oracle = strike_rollout Journal_append Fault.Corrupt in
  Alcotest.(check string) "rollout completed" "completed(waves=2)"
    (Format.asprintf "%a" Rollout.pp_outcome outcome);
  let (_ : Fleet.recovery) = converges oracle fleet in
  no_violations "every worker cut" (Oracle.check_sides oracle ~cut:(Fleet.pids fleet))

(* A torn manifest write does not hide what the rollout records after
   it: the first entry (wave 1's [Wave_begin]) is written torn, every
   later entry lands on the valid prefix, and the completed rollout's
   compaction keeps both waves completed and the rollout done. *)
let test_torn_manifest_completed () =
  let outcome, fleet, oracle = strike_rollout Fleet_manifest Fault.Corrupt in
  Alcotest.(check string) "rollout completed" "completed(waves=2)"
    (Format.asprintf "%a" Rollout.pp_outcome outcome);
  let m = Fleet.machine fleet in
  let entries, torn =
    Journal.Manifest.read (Journal.Manifest.attach m.Machine.fs ~dir:Fleet.manifest_dir)
  in
  Alcotest.(check bool) "manifest sealed whole" false torn;
  Alcotest.(check (list string)) "both waves completed, rollout done"
    [ "checkpoint completed=[1;2] halted=- done=true" ]
    (List.map (Format.asprintf "%a" Journal.Manifest.pp_entry) entries);
  let (_ : Fleet.recovery) = converges oracle fleet in
  no_violations "every worker cut" (Oracle.check_sides oracle ~cut:(Fleet.pids fleet))

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
  let (_ : Fleet.recovery) = converges oracle fleet in
  no_violations "every worker original" (Oracle.check_sides oracle ~cut:[])

(* Wave 1 of a 6-worker, 2-wave rollout is three workers. The manifest's
   third entry, wave 1's second [Worker_cut], is written torn, and the
   controller dies while it cuts the wave's third member. The valid
   prefix then shows wave 1 open with only its canary cut, so recovery
   must unwind the canary; the oracle checks that from the prefix, not
   from recovery's own account of what it unwound. (The second member,
   whose record the tear lost, keeps its cut: the prefix cannot name
   it.) *)
let test_torn_manifest_mid_wave_kill () =
  Fault.reset ();
  let fleet, oracle = Chaos.ltpd_fleet 6 in
  let m = Fleet.machine fleet and pids = Fleet.pids fleet in
  let wave1, canary, third, wave2 =
    match Rollout.plan ~pids ~waves:2 with
    | [ ([ c; _; t ] as w1); w2 ] -> (w1, c, t, w2)
    | _ -> Alcotest.fail "expected two waves of three"
  in
  Fault.arm_mode Fleet_manifest
    (Fault.On_nth (Fault.hits Fleet_manifest + 3))
    Fault.Corrupt;
  let outcome =
    Chaos.strike
      ~spec:(Fault.On_nth (Fault.hits Criu_checkpoint + 3))
      m Criu_checkpoint Fault.Kill
      (fun () -> ignore (Chaos.rollout fleet : Rollout.outcome))
  in
  Alcotest.(check bool) "controller killed" true (outcome = `Killed);
  Alcotest.(check int) "manifest entry torn" 1 (Fault.fired Fleet_manifest);
  Fault.reset ();
  let entries, torn =
    Journal.Manifest.read
      (Journal.Manifest.attach m.Machine.fs ~dir:Fleet.manifest_dir)
  in
  Alcotest.(check bool) "manifest tail torn" true torn;
  Alcotest.(check (list string)) "valid prefix: wave 1 open, canary cut"
    [
      Format.asprintf "%a" Journal.Manifest.pp_entry
        (Journal.Manifest.Wave_begin { wave = 1; pids = wave1 });
      Format.asprintf "%a" Journal.Manifest.pp_entry
        (Journal.Manifest.Worker_cut { wave = 1; pid = canary });
    ]
    (List.map (Format.asprintf "%a" Journal.Manifest.pp_entry) entries);
  let r = converges oracle fleet in
  Alcotest.(check (list int)) "canary unwound" [ canary ] r.Fleet.fr_unwound;
  no_violations "struck member and wave 2 original"
    (Oracle.check_sides { oracle with Oracle.oc_pids = third :: wave2 } ~cut:[])

(* strike's delay check must see where the delay landed: machine B,
   created after A, takes the delay hook, so a delay armed while A
   serves is charged to B, and a strike on A must refuse even though
   A's own guest ran for more cycles than the delay *)
let test_strike_delay_elsewhere_refused () =
  Fault.reset ();
  let c = Workload.boot Workload.ltpd in
  let a = c.Workload.m in
  let b = Machine.create () in
  let clock0 = a.Machine.clock in
  let refused =
    match
      Chaos.strike a Net_serve (Fault.Delay 1_000) (fun () ->
          ignore (Workload.rpc c Chaos.get))
    with
    | (_ : Chaos.outcome) -> false
    | exception Chaos.Probe_failure _ -> true
  in
  Fault.reset ();
  Alcotest.(check bool) "A's guest ran more than the delay" true
    (Int64.sub a.Machine.clock clock0 > 1_000L);
  Alcotest.(check int) "the delay landed on B" 1_000 b.Machine.delayed;
  Alcotest.(check int) "and not on A" 0 a.Machine.delayed;
  Alcotest.(check bool) "strike refused" true refused

let suite =
  [
    Alcotest.test_case "corrupt journal caught cleanly" `Quick
      test_corrupt_journal_clean;
    Alcotest.test_case "torn manifest, completed rollout: both waves recorded" `Quick
      test_torn_manifest_completed;
    Alcotest.test_case "enospc is a clean refusal" `Quick
      test_enospc_clean_refusal;
    Alcotest.test_case "torn manifest + mid-wave kill unwinds the canary"
      `Quick test_torn_manifest_mid_wave_kill;
    Alcotest.test_case "strike refuses a delay charged elsewhere" `Quick
      test_strike_delay_elsewhere_refused;
  ]
