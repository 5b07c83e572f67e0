(** Observability subsystem tests: registry basics (labeled series,
    histogram readback), the percentile core, bounded event-ring
    eviction, and the determinism contract — the same seed and scenario
    must reproduce the unified event stream and the JSON dump
    byte-for-byte. *)

(* Every test owns the global registry for its duration: reset on entry,
   and restore the bits that survive reset (enabled flag, ring capacity)
   before returning. *)
let scrubbed f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled true;
      Obs.set_ring_capacity 1024;
      Obs.reset ())
    f

(* ---------- registry basics ---------- *)

let test_counters () =
  scrubbed @@ fun () ->
  let a = Obs.counter ~labels:[ ("pid", "1"); ("op", "cut") ] "c" in
  (* same series regardless of label order *)
  let a' = Obs.counter ~labels:[ ("op", "cut"); ("pid", "1") ] "c" in
  let b = Obs.counter ~labels:[ ("pid", "2"); ("op", "cut") ] "c" in
  Obs.incr a;
  Obs.add a' 4;
  Obs.incr b;
  Alcotest.(check int) "labels canonicalised" 5 (Obs.counter_value a);
  Alcotest.(check int) "distinct labels distinct series" 1 (Obs.counter_value b);
  let g = Obs.gauge "g" in
  Obs.set_gauge g 2.5;
  Alcotest.(check (float 1e-9)) "gauge" 2.5 (Obs.gauge_value g);
  (* disabled registry: writes are no-ops, readback still works *)
  Obs.set_enabled false;
  Obs.incr a;
  Obs.set_gauge g 9.;
  Alcotest.(check int) "disabled incr ignored" 5 (Obs.counter_value a);
  Alcotest.(check (float 1e-9)) "disabled set ignored" 2.5 (Obs.gauge_value g)

let test_histogram () =
  scrubbed @@ fun () ->
  let h = Obs.histogram ~buckets:[ 1.; 10.; 100. ] "h" in
  List.iter (Obs.observe h) [ 5.; 0.5; 50.; 500.; 7. ];
  Alcotest.(check int) "count" 5 (Obs.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 562.5 (Obs.hist_sum h);
  Alcotest.(check (list (float 1e-9)))
    "raw values keep arrival order"
    [ 5.; 0.5; 50.; 500.; 7. ]
    (Obs.hist_values h);
  Alcotest.(check (float 1e-9)) "p0 = min" 0.5 (Obs.hist_percentile h 0.);
  Alcotest.(check (float 1e-9)) "p50 exact" 7. (Obs.hist_percentile h 50.);
  Alcotest.(check (float 1e-9)) "p100 = max" 500. (Obs.hist_percentile h 100.)

let test_spans () =
  scrubbed @@ fun () ->
  Obs.register_span "idle";
  let v = Obs.with_span "work" (fun () -> 41 + 1) in
  Alcotest.(check int) "with_span passes result" 42 v;
  let v', dt = Obs.timed_span "work" (fun () -> "ok") in
  Alcotest.(check string) "timed_span passes result" "ok" v';
  Alcotest.(check bool) "timed_span measures" true (dt >= 0.);
  Alcotest.(check (list string))
    "registered + completed spans, sorted" [ "idle"; "work" ]
    (Obs.span_names ());
  Alcotest.(check int) "two completions" 2 (List.length (Obs.span_seconds "work"));
  Alcotest.(check int) "pre-registered, never hit" 0
    (List.length (Obs.span_cycles "idle"));
  (* a span records even when its body raises *)
  (try Obs.with_span "work" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "exceptional completion recorded" 3
    (List.length (Obs.span_cycles "work"))

(* ---------- event ring ---------- *)

let test_ring_eviction () =
  scrubbed @@ fun () ->
  Obs.set_ring_capacity 4;
  for i = 1 to 10 do
    Obs.event ~kind:"t" (Printf.sprintf "e%d" i)
  done;
  let evs = Obs.events () in
  Alcotest.(check int) "bounded at capacity" 4 (List.length evs);
  Alcotest.(check (list string))
    "oldest evicted first, order kept"
    [ "e7"; "e8"; "e9"; "e10" ]
    (List.map (fun e -> e.Obs.ev_detail) evs);
  Alcotest.(check (list int))
    "seq numbers never reused" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Obs.ev_seq) evs);
  Alcotest.(check int) "dropped count" 6 (Obs.ring_dropped ());
  (* shrinking evicts immediately *)
  Obs.set_ring_capacity 2;
  Alcotest.(check (list string))
    "shrink evicts oldest" [ "e9"; "e10" ]
    (List.map (fun e -> e.Obs.ev_detail) (Obs.events ()));
  Alcotest.(check int) "dropped counts shrink evictions" 8 (Obs.ring_dropped ())

(* ---------- determinism: guard scenario replays bit-for-bit ---------- *)

(** One guarded cut on the dispatch server with blocks chosen so wanted
    GET traffic storms the trap handler (the [Test_supervisor] storm):
    the canary (the single-process tree's root) traps on every GET and
    is rejected and reverted — exercising every producer that feeds the
    unified stream: dynacut commits, journal appends, machine traps and
    supervisor decisions. *)
let guard_scenario () =
  Fault.reset ();
  Obs.reset ();
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
      ~config:{ Supervisor.max_traps = 2; canary_windows = 1 }
      ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "err_path" }
  in
  let drive () =
    for _ = 1 to 3 do
      ignore (Test_core.request m "G")
    done
  in
  (match Supervisor.guarded_cut sup ~drive () with
  | Supervisor.R_canary_rejected -> ()
  | r -> Alcotest.failf "expected a canary rejection: %a" Supervisor.pp_rollout r);
  (Obs.events (), Obs.dump_json ())

let test_guard_stream_replay () =
  scrubbed @@ fun () ->
  let evs1, dump1 = guard_scenario () in
  let evs2, dump2 = guard_scenario () in
  (* the unified stream carries every producer *)
  let kinds =
    List.sort_uniq compare (List.map (fun e -> e.Obs.ev_kind) evs1)
  in
  Alcotest.(check (list string))
    "all four producers present"
    [ "dynacut"; "journal"; "supervisor"; "trap" ]
    kinds;
  (* replay exactness: same seed, same scenario, same stream *)
  Alcotest.(check int) "same event count" (List.length evs1) (List.length evs2);
  List.iter2
    (fun a b ->
      Alcotest.(check int) "seq" a.Obs.ev_seq b.Obs.ev_seq;
      Alcotest.(check int64) "clock" a.Obs.ev_clock b.Obs.ev_clock;
      Alcotest.(check string) "kind" a.Obs.ev_kind b.Obs.ev_kind;
      Alcotest.(check string) "detail" a.Obs.ev_detail b.Obs.ev_detail)
    evs1 evs2;
  (* and the exposition is byte-identical *)
  Alcotest.(check string) "dump_json byte-identical" dump1 dump2;
  (* the host axis is the one intentionally unstable section: it must be
     absent unless asked for *)
  let has ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "default dump hides host axis" false
    (has ~needle:"spans_host_seconds" dump1);
  Alcotest.(check bool)
    "~host:true exposes it" true
    (has ~needle:"spans_host_seconds" (Obs.dump_json ~host:true ()))

(* percentiles with fewer than two samples: the degenerate cases the
   load generator hits when every request fails (or only one lands) *)
let test_percentile_degenerate () =
  Alcotest.(check (float 0.)) "empty list is 0" 0. (Obs.percentile_list 99. []);
  Alcotest.(check (float 0.)) "empty p50 is 0" 0. (Obs.percentile_list 50. []);
  Alcotest.(check (float 0.))
    "singleton is the sample at any percentile" 42.
    (Obs.percentile_list 99. [ 42. ]);
  Alcotest.(check (float 0.))
    "singleton p0 too" 42.
    (Obs.percentile_list 0. [ 42. ]);
  (* two samples interpolate between themselves *)
  Alcotest.(check (float 1e-9)) "pair p50 interpolates" 15.
    (Obs.percentile_list 50. [ 10.; 20. ]);
  Alcotest.(check (float 0.)) "pair p100 is the max" 20.
    (Obs.percentile_list 100. [ 10.; 20. ])

let suite =
  [
    Alcotest.test_case "counters, gauges, labels" `Quick test_counters;
    Alcotest.test_case "percentiles with <2 samples" `Quick
      test_percentile_degenerate;
    Alcotest.test_case "histogram readback" `Quick test_histogram;
    Alcotest.test_case "span recording" `Quick test_spans;
    Alcotest.test_case "ring bounded eviction" `Quick test_ring_eviction;
    Alcotest.test_case "guard stream replay + dump determinism" `Quick
      test_guard_stream_replay;
  ]
