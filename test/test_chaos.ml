(** Chaos engine: schedule generation and replay determinism, fault-mode
    end-to-end semantics under the invariant oracles, and the ddmin
    shrinker reducing a deliberately broken invariant to a 1-minimal
    schedule that replays bit-for-bit from the seed. *)

(* ---------- schedules ---------- *)

let test_generate_deterministic () =
  let a = Schedule.generate ~seed:7 () in
  let b = Schedule.generate ~seed:7 () in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  Alcotest.(check bool) "at least one event" true
    (List.length a.Schedule.sc_events >= 1);
  (* no two events share a site: the registry arms one entry per site *)
  let sites = List.map (fun e -> e.Schedule.ev_site) a.Schedule.sc_events in
  Alcotest.(check int) "distinct sites" (List.length sites)
    (List.length (List.sort_uniq compare sites));
  let c = Schedule.generate ~seed:8 () in
  Alcotest.(check bool) "different seed, different schedule" true (a <> c);
  (* generated windows live inside the horizon and are non-empty *)
  List.iter
    (fun e ->
      match e.Schedule.ev_trigger with
      | Schedule.Nth n -> Alcotest.(check bool) "nth >= 1" true (n >= 1)
      | Schedule.Window (t0, t1) ->
          Alcotest.(check bool) "window non-empty" true (t1 > t0);
          Alcotest.(check bool) "window starts in horizon" true (t0 >= 0))
    (List.concat_map
       (fun seed -> (Schedule.generate ~seed ()).Schedule.sc_events)
       [ 1; 2; 3; 4; 5 ])

let test_replay_roundtrip () =
  List.iter
    (fun seed ->
      let s = Schedule.generate ~seed () in
      let s' = Schedule.of_replay (Schedule.to_replay s) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d round-trips" seed)
        true (s = s'))
    [ 1; 17; 400; 9999 ];
  (* every mode round-trips through its replay spelling *)
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Fault.mode_to_string m ^ " round-trips")
        true
        (Schedule.mode_of_string (Fault.mode_to_string m) = m))
    [ Fault.Fail; Fault.Kill; Fault.Delay 25_000; Fault.Corrupt;
      Fault.Enospc; Fault.Eio ];
  (* malformed files are rejected, not half-parsed *)
  let rejects text =
    match Schedule.of_replay text with
    | (_ : Schedule.t) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "wrong header rejected" true (rejects "not-a-replay\n");
  Alcotest.(check bool) "missing seed rejected" true
    (rejects "chaos-replay v1\nevent journal.lock fail nth 1\n");
  Alcotest.(check bool) "bad mode rejected" true
    (rejects "chaos-replay v1\nseed 3\nevent journal.lock explode nth 1\n");
  Alcotest.(check bool) "bad delay rejected" true
    (rejects "chaos-replay v1\nseed 3\nevent net.serve delay=zero nth 1\n");
  (* comments and blank lines are fine *)
  let s =
    Schedule.of_replay
      "chaos-replay v1\n# a comment\n\nseed 11\nevent criu.save corrupt nth 2\n"
  in
  Alcotest.(check int) "seed parsed" 11 s.Schedule.sc_seed;
  Alcotest.(check int) "one event" 1 (List.length s.Schedule.sc_events)

(* a well-formed file from a future format version must be refused with
   the dedicated exception — never half-parsed into a different
   schedule than the one that failed *)
let test_replay_future_version_rejected () =
  let v2 = "chaos-replay v2\nseed 3\nevent net.serve fail nth 1\n" in
  (match Schedule.of_replay v2 with
  | (_ : Schedule.t) -> Alcotest.fail "v2 file parsed as v1"
  | exception Schedule.Unsupported_version { uv_found; uv_supported } ->
      Alcotest.(check string) "found version" "v2" uv_found;
      Alcotest.(check string) "supported version" "v1" uv_supported);
  (* the registered printer renders both versions for the human *)
  (match Schedule.of_replay v2 with
  | (_ : Schedule.t) -> Alcotest.fail "v2 file parsed as v1"
  | exception e ->
      let msg = Printexc.to_string e in
      let has needle =
        let nl = String.length needle and hl = String.length msg in
        let rec go i =
          i + nl <= hl && (String.sub msg i nl = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "printer names versions (%s)" msg)
        true
        (has "v2" && has "v1"));
  (* a header that is not a replay header at all still gets the generic
     rejection, not the version error *)
  match Schedule.of_replay "chaos-replayv2\nseed 3\n" with
  | (_ : Schedule.t) -> Alcotest.fail "junk header parsed"
  | exception Invalid_argument _ -> ()
  | exception Schedule.Unsupported_version _ ->
      Alcotest.fail "junk header misread as a future version"

(* ---------- fault modes end-to-end under the oracles ---------- *)

let sched seed events =
  {
    Schedule.sc_seed = seed;
    sc_events =
      List.map
        (fun (site, mode, trig) ->
          { Schedule.ev_site = site; ev_mode = mode; ev_trigger = trig })
        events;
  }

(* a corrupted journal frame must be caught by the checksum layer at
   read time and never violate an invariant: the torn tail is dropped,
   the tree converges, the fleet serves *)
let test_corrupt_journal_clean () =
  let s = sched 301 [ ("journal.append", Fault.Corrupt, Schedule.Nth 1) ] in
  let r = Chaos.run s in
  Alcotest.(check bool) "the corruption fired" true
    (List.mem_assoc "journal.append" r.Chaos.r_fired);
  Alcotest.(check bool)
    (Format.asprintf "no violations: %a" Chaos.pp_report r)
    true (Chaos.passed r)

(* a full disk at image-save time is a clean refusal: the cut is denied,
   nothing half-done, every invariant holds *)
let test_enospc_clean_refusal () =
  let s = sched 302 [ ("criu.save", Fault.Enospc, Schedule.Nth 1) ] in
  let r = Chaos.run s in
  Alcotest.(check bool) "the enospc fired" true
    (List.mem_assoc "criu.save" r.Chaos.r_fired);
  (* the guard absorbs the typed storage error: the cut is refused — as
     a rolled-back canary (halted rollout) or an explicit refusal —
     never a stranded half-patched tree *)
  let has needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "refused cleanly" true
    (List.exists
       (fun n -> has "enospc" n || has "halted" n || has "rolled back" n)
       r.Chaos.r_notes);
  Alcotest.(check bool)
    (Format.asprintf "no violations: %a" Chaos.pp_report r)
    true (Chaos.passed r)

(* ---------- the shrinker on a deliberately broken invariant ---------- *)

(* the "invariant": criu.save must never fire. Any schedule containing a
   criu.save event that strikes violates it — so ddmin must strip every
   other event and hand back exactly the criu.save one. *)
let broken_oracle (_ : Oracle.ctx) : Oracle.violation list =
  if Fault.fired "criu.save" > 0 then
    [ Oracle.violation "demo-no-save-fault" "criu.save fired" ]
  else []

let test_shrink_to_minimal_and_replay () =
  let s =
    sched 303
      [
        ("net.serve", Fault.Fail, Schedule.Nth 2);
        ("criu.save", Fault.Enospc, Schedule.Nth 1);
        ("balancer.dispatch", Fault.Fail, Schedule.Nth 3);
      ]
  in
  let failing sc =
    not (Chaos.passed (Chaos.run ~extra_oracle:broken_oracle sc))
  in
  Alcotest.(check bool) "the full schedule violates" true (failing s);
  let minimal = Shrink.minimize ~failing s in
  Alcotest.(check int) "shrunk to one event" 1
    (List.length minimal.Schedule.sc_events);
  Alcotest.(check string) "the culprit event survives" "criu.save"
    (List.hd minimal.Schedule.sc_events).Schedule.ev_site;
  Alcotest.(check int) "seed unchanged" s.Schedule.sc_seed
    minimal.Schedule.sc_seed;
  (* the replay file reproduces the violation bit-for-bit: same report
     digest across two independent runs of the parsed schedule *)
  let replayed = Schedule.of_replay (Schedule.to_replay minimal) in
  Alcotest.(check bool) "replay parses back" true (replayed = minimal);
  let r1 = Chaos.run ~extra_oracle:broken_oracle replayed in
  let r2 = Chaos.run ~extra_oracle:broken_oracle replayed in
  Alcotest.(check bool) "replay still violates" true (not (Chaos.passed r1));
  Alcotest.(check int64) "bit-for-bit reproduction"
    (Chaos.report_digest r1) (Chaos.report_digest r2)

(* ---------- shrinker unit behavior (no fleet, pure) ---------- *)

let test_ddmin_pure () =
  (* failing = "contains both event A and event C": minimal is {A, C} *)
  let ev site = { Schedule.ev_site = site; ev_mode = Fault.Fail; ev_trigger = Schedule.Nth 1 } in
  let s =
    { Schedule.sc_seed = 5;
      sc_events = List.map ev [ "a"; "b"; "c"; "d"; "e"; "f" ] }
  in
  let failing (sc : Schedule.t) =
    let sites = List.map (fun e -> e.Schedule.ev_site) sc.Schedule.sc_events in
    List.mem "a" sites && List.mem "c" sites
  in
  let m = Shrink.minimize ~failing s in
  Alcotest.(check (list string)) "1-minimal pair" [ "a"; "c" ]
    (List.map (fun e -> e.Schedule.ev_site) m.Schedule.sc_events);
  (* single-event repro shrinks to itself *)
  let s1 = { Schedule.sc_seed = 5; sc_events = [ ev "x" ] } in
  let m1 = Shrink.minimize ~failing:(fun _ -> true) s1 in
  Alcotest.(check int) "singleton stays" 1 (List.length m1.Schedule.sc_events)

(* degenerate shrinker inputs: the contract is "the caller found a
   violating run; minimize only makes it smaller" — the empty, the
   singleton, and the already-1-minimal schedule must all come back
   unchanged, without calling [failing] more than ddmin needs *)
let test_ddmin_degenerate () =
  let ev site =
    { Schedule.ev_site = site; ev_mode = Fault.Fail; ev_trigger = Schedule.Nth 1 }
  in
  (* empty schedule: nothing to drop, no predicate call required *)
  let s0 = { Schedule.sc_seed = 9; sc_events = [] } in
  let calls = ref 0 in
  let m0 =
    Shrink.minimize ~failing:(fun _ -> incr calls; true) s0
  in
  Alcotest.(check int) "empty schedule stays empty" 0
    (List.length m0.Schedule.sc_events);
  Alcotest.(check int) "empty seed unchanged" 9 m0.Schedule.sc_seed;
  Alcotest.(check int) "empty schedule needs no runs" 0 !calls;
  (* single-fault schedule: comes back identical even when the predicate
     also fails on the (never-tried) empty subset *)
  let s1 = { Schedule.sc_seed = 10; sc_events = [ ev "criu.save" ] } in
  let m1 = Shrink.minimize ~failing:(fun _ -> true) s1 in
  Alcotest.(check bool) "singleton unchanged" true (m1 = s1);
  (* already-1-minimal: every event is load-bearing, so ddmin and the
     pruning pass must keep all of them in order *)
  let s3 =
    { Schedule.sc_seed = 11; sc_events = List.map ev [ "a"; "b"; "c" ] }
  in
  let failing (sc : Schedule.t) =
    List.length sc.Schedule.sc_events = 3
  in
  let m3 = Shrink.minimize ~failing s3 in
  Alcotest.(check (list string)) "1-minimal triple kept in order"
    [ "a"; "b"; "c" ]
    (List.map (fun e -> e.Schedule.ev_site) m3.Schedule.sc_events)

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
      Chaos.strike a "net.serve" (Fault.Delay 1_000) (fun () ->
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
    Alcotest.test_case "schedule generation deterministic" `Quick
      test_generate_deterministic;
    Alcotest.test_case "replay file round-trip + rejects" `Quick
      test_replay_roundtrip;
    Alcotest.test_case "replay future version refused" `Quick
      test_replay_future_version_rejected;
    Alcotest.test_case "ddmin pure semantics" `Quick test_ddmin_pure;
    Alcotest.test_case "ddmin degenerate inputs" `Quick test_ddmin_degenerate;
    Alcotest.test_case "corrupt journal caught cleanly" `Slow
      test_corrupt_journal_clean;
    Alcotest.test_case "enospc is a clean refusal" `Slow
      test_enospc_clean_refusal;
    Alcotest.test_case "broken invariant shrunk + replayed" `Slow
      test_shrink_to_minimal_and_replay;
    Alcotest.test_case "strike refuses a delay charged elsewhere" `Quick
      test_strike_delay_elsewhere_refused;
  ]
