(** The benchmark harness: one runner per table/figure of the paper's
    evaluation (see DESIGN.md §4 for the experiment index).

    Usage: [dune exec bench/main.exe] runs everything;
    [dune exec bench/main.exe -- fig6 fig8] runs a subset. *)

let fmt = Format.std_formatter

(* ---------- obs: pipeline breakdown + instrumentation overhead ---------- *)

(* What the observability registry reports and what it costs: the
   per-stage host-CPU breakdown of one ngx cut + re-enable (read back
   from the span host axis), then interleaved registry-on/registry-off
   repetitions of the same scenario to bound the instrumentation
   overhead. Emits BENCH_obs.json; the --quick smoke mode in ci.sh runs
   only this with fewer repetitions. *)
let quick = ref false

(* The host-time estimator behind every on/off comparison: one untimed
   warmup pair absorbs cold allocator/page-cache state, then [iters]
   pairs alternate their order so drift cancels instead of biasing, and
   each side keeps its *minimum* — the run least polluted by GC pauses
   and scheduler noise, which makes min-vs-min the stable estimator of
   an intrinsic cost. [on]/[off] return one sample in seconds. *)
let best_of_interleaved ~iters ~on ~off =
  ignore (on ());
  ignore (off ());
  let b_on = ref infinity and b_off = ref infinity in
  let on () = b_on := Float.min !b_on (on ())
  and off () = b_off := Float.min !b_off (off ()) in
  for i = 1 to iters do
    if i mod 2 = 0 then (on (); off ()) else (off (); on ())
  done;
  (!b_on, !b_off)

(* Host gates re-measure up to 3 times until [measure]'s reading (the
   last component) lands in [lo, hi], and fail loudly otherwise: a
   noisy sample is retried, a harness that keeps mis-measuring is not. *)
let within_band ~what ~show ~lo ~hi measure =
  let attempts = 3 in
  let band = Printf.sprintf "[%s, %s]" (show lo) (show hi) in
  let rec go k =
    let ((_, _, v) as r) = measure () in
    if v >= lo && v <= hi then r
    else if k < attempts then begin
      Format.fprintf fmt "  %s %s outside %s; re-measuring (%d/%d)@." what
        (show v) band (k + 1) attempts;
      go (k + 1)
    end
    else
      failwith
        (Printf.sprintf "%s %s outside %s after %d attempts" what (show v)
           band attempts)
  in
  go 1

let run_obs () =
  Common.section fmt "Observability: pipeline breakdown + registry overhead";
  let app = Workload.ngx in
  let blocks = Common.web_feature_blocks app in
  let methods = [| `First_byte; `Wipe; `Unmap_pages |] in
  let iters = if !quick then 9 else 11 in
  (* one scenario = boot a fresh ngx tree, then four cut + re-enable
     rounds on it, the rewrite method rotating across the rounds *)
  let scenario () =
    Fault.reset ();
    let c = Workload.boot app in
    let s = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
    for round = 0 to 3 do
      let policy =
        {
          Dynacut.method_ = methods.(round mod Array.length methods);
          on_trap = `Redirect "ngx_declined";
        }
      in
      let r = Dynacut.try_cut s ~blocks ~policy () in
      let re = Dynacut.try_reenable s r.Dynacut.r_journals in
      match (r.Dynacut.r_outcome, re.Dynacut.r_outcome) with
      | `Applied, `Applied -> ()
      | _ -> failwith "obs: benchmark cut did not apply"
    done
  in
  (* per-stage breakdown, one instrumented scenario *)
  Obs.set_enabled true;
  Obs.reset ();
  scenario ();
  let stages =
    [ "checkpoint"; "crit"; "rewrite"; "inject"; "restore"; "tcp_repair" ]
  in
  let breakdown =
    List.map
      (fun st -> (st, List.fold_left ( +. ) 0. (Obs.span_seconds st)))
      stages
  in
  List.iter
    (fun (st, s) -> Format.fprintf fmt "  stage %-12s %.6f s@." st s)
    breakdown;
  (* overhead: registry on vs off, best-of-interleaved. The registry
     cannot make the scenario faster, so a negative reading beyond
     jitter means the harness itself is broken — the result must land
     in the plausible [-1%, +5%] band. *)
  let time_with enabled =
    Obs.set_enabled enabled;
    Obs.reset ();
    (* start every sample from a settled heap: otherwise the enabled
       run's allocation debt is collected during the *disabled* run,
       which reads as impossible negative overhead *)
    Gc.compact ();
    let (), dt = Obs.timed_span "bench.obs_scenario" scenario in
    dt
  in
  let m_on, m_off, overhead_pct =
    within_band ~what:"obs: instrumentation overhead"
      ~show:(Printf.sprintf "%.2f%%") ~lo:(-1.) ~hi:5. (fun () ->
        let m_on, m_off =
          best_of_interleaved ~iters
            ~on:(fun () -> time_with true)
            ~off:(fun () -> time_with false)
        in
        (m_on, m_off, (m_on -. m_off) /. m_off *. 100.))
  in
  Obs.set_enabled true;
  Format.fprintf fmt "  scenario best-case: registry on %.6f s, off %.6f s@."
    m_on m_off;
  Format.fprintf fmt "  instrumentation overhead: %.2f%%@." overhead_pct;
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc "{\n  \"app\": %S,\n  \"iters\": %d" app.Workload.a_name iters;
  List.iter
    (fun (st, s) -> Printf.fprintf oc ",\n  \"stage_%s_s\": %.6f" st s)
    breakdown;
  Printf.fprintf oc ",\n  \"scenario_s_obs_on\": %.6f" m_on;
  Printf.fprintf oc ",\n  \"scenario_s_obs_off\": %.6f" m_off;
  Printf.fprintf oc ",\n  \"instr_overhead_pct\": %.4f\n}\n" overhead_pct;
  close_out oc;
  Format.fprintf fmt "  wrote BENCH_obs.json@."

(* ---------- fleet: fan-out throughput + rollout pause ---------- *)

(* The §6a fleet numbers: closed-loop requests through the least-
   loaded balancer as the worker count scales (virtual-clock
   throughput, served through the decoded-block code cache), the
   cache's host-time speedup at one worker over the interpreter
   reference, and the per-wave pause a rolling rollout imposes on a
   6-worker fleet. Emits BENCH_fleet.json; --quick shrinks the sweep for
   the ci smoke. *)
let run_fleet () =
  Common.section fmt "Fleet: fan-out throughput + rollout pause";
  let app = Workload.ltpd in
  let blocks = Common.web_feature_blocks app in
  let policy =
    { Dynacut.method_ = `First_byte; on_trap = `Redirect "ltpd_403" }
  in
  let counts = if !quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let requests = if !quick then 60 else 200 in
  let get = Workload.http_get "/index.html" in
  (* one closed loop of [requests] on a fresh [n]-worker fleet, through
     the code cache or, as the [reference], on the single-step
     interpreter (a degraded dispatcher keeps every step there);
     returns served, virtual cycles, guest instructions retired, cache
     hit rate and the loop's host seconds *)
  let serve ?(reference = false) n =
    Fault.reset ();
    let fleet = Fleet.boot ~n ~blocks ~policy app in
    let m = Fleet.machine fleet in
    if reference then Dispatch.degrade m.Machine.dispatcher;
    let start = m.Machine.clock in
    let retired () =
      List.fold_left (fun n (p : Proc.t) -> n + p.Proc.retired) 0 (Machine.all_procs m)
    in
    let retired0 = retired () in
    let served = ref 0 in
    Gc.compact ();
    let (), host_s =
      Obs.timed_span "bench.fleet_serve" (fun () ->
          for _ = 1 to requests do
            match Fleet.request fleet get with
            | `Reply _ -> incr served
            | `Refused -> ()
          done)
    in
    let cycles = Int64.sub m.Machine.clock start in
    let insns = retired () - retired0 in
    let hit_rate =
      let st = Dispatch.stats m.Machine.dispatcher in
      let lookups = st.Dispatch.st_hits + st.Dispatch.st_decodes in
      if lookups = 0 then 0.
      else float_of_int st.Dispatch.st_hits /. float_of_int lookups
    in
    (!served, cycles, insns, hit_rate, host_s)
  in
  let per_mcycle served cycles =
    float_of_int served /. (Int64.to_float cycles /. 1e6)
  in
  let sweep =
    List.map
      (fun n ->
        let ((served, cycles, _, hit_rate, _) as r) = serve n in
        Format.fprintf fmt
          "  workers=%d served=%d/%d cycles=%Ld  %.1f req/Mcycle  hit-rate \
           %.4f@."
          n served requests cycles (per_mcycle served cycles) hit_rate;
        (n, r))
      counts
  in
  (* the cache is a host-only accelerator: the interpreted reference
     must be the same program on the virtual axis, cycle for cycle *)
  let served_c, cycles_c, insns_c, _, _ = List.assoc 1 sweep in
  let served_i, cycles_i, insns_i, _, _ = serve ~reference:true 1 in
  if served_i <> served_c || cycles_i <> cycles_c then
    failwith
      (Printf.sprintf
         "fleet: cached run diverged from the interpreter at w1: served \
          %d vs %d, cycles %Ld vs %Ld"
         served_c served_i cycles_c cycles_i);
  Format.fprintf fmt "  w1 interp = cached: %d served in %Ld cycles@."
    served_i cycles_i;
  (* ci gate: the cache's benefit is a host number — reference/cached
     serve time at w1, best-of-interleaved, must stay >= 2x *)
  let host_s (_, _, _, _, s) = s in
  let s_cached, s_interp, host_speedup =
    within_band ~what:"fleet: host speedup at w1"
      ~show:(Printf.sprintf "%.2fx") ~lo:2. ~hi:infinity (fun () ->
        let s_cached, s_interp =
          best_of_interleaved
            ~iters:(if !quick then 5 else 7)
            ~on:(fun () -> host_s (serve 1))
            ~off:(fun () -> host_s (serve ~reference:true 1))
        in
        (s_cached, s_interp, s_interp /. s_cached))
  in
  let ns_per_insn s insns = s *. 1e9 /. float_of_int insns in
  let ns_cached = ns_per_insn s_cached insns_c and ns_interp = ns_per_insn s_interp insns_i in
  Format.fprintf fmt
    "  w1 host serve best-case: cached %.6f s, interp %.6f s — %.2fx \
     (%.1f vs %.1f ns per guest instruction)@."
    s_cached s_interp host_speedup ns_cached ns_interp;
  (* per-wave rollout pause on a 6-worker fleet *)
  Fault.reset ();
  let wn = 6 and waves = 3 in
  let fleet = Fleet.boot ~n:wn ~blocks ~policy app in
  let drive () = ignore (Fleet.request fleet get) in
  let config =
    Rollout.
      {
        r_waves = waves;
        r_sup =
          { Supervisor.default_config with Supervisor.canary_windows = 1 };
      }
  in
  let outcome, reports = Fleet.rollout fleet ~config ~drive () in
  (match outcome with
  | Rollout.Completed _ -> ()
  | o ->
      Format.fprintf fmt "  WARNING rollout: %a@." Rollout.pp_outcome o);
  List.iter
    (fun (r : Rollout.wave_report) ->
      Format.fprintf fmt "  wave %d (%d workers) pause %Ld cycles@."
        r.Rollout.wr_wave
        (List.length r.Rollout.wr_pids)
        r.Rollout.wr_pause_cycles)
    reports;
  let oc = open_out "BENCH_fleet.json" in
  Printf.fprintf oc "{\n  \"app\": %S,\n  \"requests\": %d" app.Workload.a_name
    requests;
  List.iter
    (fun (n, (served, cycles, _, hit_rate, _)) ->
      Printf.fprintf oc ",\n  \"served_w%d\": %d,\n  \"req_per_mcycle_w%d\": %.2f"
        n served n (per_mcycle served cycles);
      Printf.fprintf oc ",\n  \"cache_hit_rate_w%d\": %.4f" n hit_rate)
    sweep;
  Printf.fprintf oc ",\n  \"host_s_cached_w1\": %.6f" s_cached;
  Printf.fprintf oc ",\n  \"host_s_interp_w1\": %.6f" s_interp;
  Printf.fprintf oc ",\n  \"host_speedup_w1\": %.2f" host_speedup;
  Printf.fprintf oc ",\n  \"host_ns_per_insn_cached_w1\": %.1f" ns_cached;
  Printf.fprintf oc ",\n  \"host_ns_per_insn_interp_w1\": %.1f" ns_interp;
  Printf.fprintf oc ",\n  \"rollout_workers\": %d,\n  \"rollout_waves\": %d" wn
    waves;
  List.iter
    (fun (r : Rollout.wave_report) ->
      Printf.fprintf oc ",\n  \"wave%d_pause_cycles\": %Ld" r.Rollout.wr_wave
        r.Rollout.wr_pause_cycles)
    reports;
  Printf.fprintf oc "\n}\n";
  close_out oc;
  Format.fprintf fmt "  wrote BENCH_fleet.json@."

(* ---------- chaos: site x mode coverage ---------- *)

(* The §6c acceptance gate: the directed coverage matrix must exercise
   every registered fault site in every applicable mode (fail/kill
   everywhere, corrupt/enospc/eio at the storage sites), each probe
   passing its invariant oracles. Emits BENCH_chaos.json with the
   coverage table; any probe failure or coverage hole fails the bench.
   --quick changes nothing here: the matrix is the gate. *)
let run_chaos () =
  Common.section fmt "Chaos: site x mode coverage";
  let probes = Chaos.coverage_matrix () in
  let sites = Fault.Site.all in
  List.iter
    (fun site ->
      let mine = List.filter (fun p -> p.Chaos.p_site = site) probes in
      let cell (p : Chaos.probe) =
        Printf.sprintf "%s%s"
          (Fault.mode_to_string p.Chaos.p_mode)
          (if p.Chaos.p_ok then "" else "!FAIL")
      in
      Format.fprintf fmt "  %-22s %s@." (Fault.Site.name site)
        (String.concat " " (List.map cell mine)))
    sites;
  let failed = List.filter (fun p -> not p.Chaos.p_ok) probes in
  List.iter
    (fun (p : Chaos.probe) ->
      Format.fprintf fmt "  FAIL %s:%s — %s@." (Fault.Site.name p.Chaos.p_site)
        (Fault.mode_to_string p.Chaos.p_mode)
        p.Chaos.p_detail)
    failed;
  (* every applicable mode of every registered site must have a passing
     probe — an unexercised mode is a coverage hole, not a skip *)
  let holes =
    List.concat_map
      (fun site ->
        List.filter_map
          (fun mode ->
            if
              List.exists
                (fun p ->
                  p.Chaos.p_site = site && p.Chaos.p_mode = mode
                  && p.Chaos.p_ok)
                probes
            then None
            else Some (site, mode))
          (Fault.applicable_modes site))
      sites
  in
  Format.fprintf fmt "  %d probes (%d failed), %d holes@." (List.length probes)
    (List.length failed) (List.length holes);
  (* the per-site table first, the verdict last *)
  let oc = open_out "BENCH_chaos.json" in
  Printf.fprintf oc "{\n  \"sites\": %d,\n  \"probes\": %d" (List.length sites)
    (List.length probes);
  List.iter
    (fun site ->
      let mine =
        List.filter (fun p -> p.Chaos.p_site = site && p.Chaos.p_ok) probes
      in
      Printf.fprintf oc ",\n  \"%s\": %S" (Fault.Site.name site)
        (String.concat " "
           (List.map (fun p -> Fault.mode_to_string p.Chaos.p_mode) mine)))
    sites;
  Printf.fprintf oc ",\n  \"probe_failures\": %d" (List.length failed);
  Printf.fprintf oc ",\n  \"coverage_holes\": %d\n}\n" (List.length holes);
  close_out oc;
  Format.fprintf fmt "  wrote BENCH_chaos.json@.";
  if failed <> [] || holes <> [] then
    failwith
      (Printf.sprintf "chaos: %d probe failures, %d coverage holes"
         (List.length failed) (List.length holes))

(* ---------- slice: sliced-away wins + tracing overhead ---------- *)

(* The dataflow-slicing ledger: how many covered blocks the slicer cuts
   *beyond* the coverage diff on ltpd and rkv (the Sliced_away class is
   disjoint from the classic one by construction — candidates live
   inside the wanted coverage), whether the cut survives the verifier
   convergence loop with the wanted feature intact, that a seeded
   counterexample restores a wrongly sliced block bit-for-bit
   reproducibly, and what the per-instruction tracer costs while
   attached (min-vs-min, same discipline as BENCH_obs.json). Two seeded
   profiling runs must produce byte-identical observability dumps.
   Emits BENCH_slice.json. *)
let run_slice () =
  Common.section fmt "Slice: sliced-away candidates, verify loop, overhead";
  let apps = [ Workload.ltpd; Workload.rkv ] in
  let per_app =
    List.map
      (fun app ->
        let name = app.Workload.a_name in
        Fault.reset ();
        Obs.reset ();
        let p = Slicelab.profile app in
        Format.fprintf fmt
          "  %s: %d covered blocks, %d slice points -> %d sliced away (%d own)@."
          name p.Slicelab.p_report.Tracediff.n_covered
          p.Slicelab.p_report.Tracediff.n_slice_points
          (List.length p.Slicelab.p_report.Tracediff.sliced)
          (List.length p.Slicelab.p_blocks);
        if p.Slicelab.p_blocks = [] then
          failwith (Printf.sprintf "slice: no sliced-away candidates on %s" name);
        let classic, overlap =
          Slicelab.coverage_diff_overlap app p.Slicelab.p_blocks
        in
        if overlap <> 0 then
          failwith
            (Printf.sprintf
               "slice: %d of %s's sliced-away blocks overlap the coverage \
                diff — the class is not additive"
               overlap name);
        Format.fprintf fmt
          "  %s: coverage diff finds %d blocks; all %d sliced-away blocks \
           are extra@."
          name classic
          (List.length p.Slicelab.p_blocks);
        (* cut the candidates and let the verifier evict false
           positives; the wanted feature must come through intact *)
        let v =
          Slicelab.cut_and_converge app ~blocks:p.Slicelab.p_blocks ()
        in
        Format.fprintf fmt "  %s: %a" name Slicelab.pp_converge v;
        (match v.Slicelab.v_rollout with
        | Supervisor.R_promoted -> ()
        | r ->
            failwith
              (Format.asprintf "slice: %s rollout %a" name Supervisor.pp_rollout
                 r));
        if v.Slicelab.v_kept = [] then
          failwith
            (Printf.sprintf
               "slice: verifier evicted every candidate on %s — no win" name);
        List.iter
          (fun r ->
            let reply = Workload.rpc v.Slicelab.v_ctx r in
            let ok =
              if name = "rkv" then
                String.length reply > 0 && reply.[0] = '$' && reply <> "$-1"
              else
                String.length reply >= 12
                && String.sub reply 0 12 = "HTTP/1.0 200"
            in
            if not ok then
              failwith
                (Printf.sprintf "slice: %s wanted feature broken post-cut: %s"
                   name reply))
          (Slicelab.drive_requests app);
        (name, p, classic, v))
      apps
  in
  (* seeded counterexample: the converged cut only exercised the GET
     drive, so the other verbs' arms stay cut — probing one (HEAD) must
     trap, restore the block bit-for-bit, serve the reply intact, and
     surface the eviction through verifier feedback; the whole scenario
     must replay identically from the same seed *)
  let counterexample () =
    let app = Workload.ltpd in
    Fault.reset ();
    let p = Slicelab.profile app in
    let base = (Common.app_exe app).Self.base in
    (* pristine first bytes of every candidate, from an uncut instance *)
    let pc = Workload.boot app in
    let pristine_byte (b : Covgraph.block) =
      Mem.peek8
        (Machine.proc_exn pc.Workload.m pc.Workload.pid).Proc.mem
        (Int64.add base (Int64.of_int b.Covgraph.b_off))
    in
    let pristine =
      List.map (fun b -> (b, pristine_byte b)) p.Slicelab.p_blocks
    in
    let v = Slicelab.cut_and_converge app ~blocks:p.Slicelab.p_blocks () in
    let c = v.Slicelab.v_ctx in
    let probe, expect = Slicelab.probe_request app in
    let reply = Workload.rpc c probe in
    let elen = String.length expect in
    if String.length reply < elen || String.sub reply 0 elen <> expect then
      failwith ("slice: probe not served through the verifier: " ^ reply);
    let before = Supervisor.blocks v.Slicelab.v_sup in
    let dropped_n = Supervisor.verifier_feedback v.Slicelab.v_sup in
    if dropped_n = 0 then
      failwith "slice: probe produced no verifier counterexample";
    let after = Supervisor.blocks v.Slicelab.v_sup in
    let dropped = List.filter (fun b -> not (List.mem b after)) before in
    (* bit-for-bit: the restored first byte equals the linked binary's *)
    List.iter
      (fun (b : Covgraph.block) ->
        let live =
          Mem.peek8
            (Machine.proc_exn c.Workload.m c.Workload.pid).Proc.mem
            (Int64.add base (Int64.of_int b.Covgraph.b_off))
        in
        let want = List.assoc b pristine in
        if live <> want then
          failwith
            (Printf.sprintf "slice: restored block %s+0x%x byte %02x != %02x"
               b.Covgraph.b_module b.Covgraph.b_off live want))
      dropped;
    List.map
      (fun (b : Covgraph.block) -> (b.Covgraph.b_module, b.Covgraph.b_off))
      dropped
  in
  let cex1 = counterexample () in
  let cex2 = counterexample () in
  if cex1 <> cex2 then
    failwith "slice: seeded counterexample scenario did not replay identically";
  Format.fprintf fmt
    "  counterexample: %d block(s) restored bit-for-bit, replayed identically@."
    (List.length cex1);
  (* tracing overhead: serve the profiling mix with and without the
     slicer attached, best-of-interleaved (the obs discipline). The
     per-instruction step is allowed to be expensive — the check bounds
     it (and catches a hook that never detaches: the off runs would
     slow down and push the ratio under 1) *)
  let serve ~sliced =
    Gc.compact ();
    let c = Workload.boot ~seed:44 Workload.ltpd in
    let sl =
      if sliced then
        Some
          (Slicer.attach c.Workload.m ~pid:c.Workload.pid
             ~wanted_out:(Slicelab.wanted_out_of Workload.ltpd) ())
      else None
    in
    let (), dt =
      Obs.timed_span "bench.slice_serve" (fun () ->
          List.iter
            (fun r -> ignore (Workload.rpc c r))
            (Slicelab.profile_requests Workload.ltpd))
    in
    Option.iter Slicer.detach sl;
    dt
  in
  let iters = if !quick then 3 else 7 in
  (* the tracer must cost something (>= 1x beyond jitter) and stay
     within the band of the untraced run; both execute on the code
     cache, and the slicer adds a bounded amount of work per
     instruction *)
  let m_on, m_off, ratio =
    within_band ~what:"slice: tracing overhead" ~show:(Printf.sprintf "%.2fx")
      ~lo:0.98 ~hi:25. (fun () ->
        let m_on, m_off =
          best_of_interleaved ~iters
            ~on:(fun () -> serve ~sliced:true)
            ~off:(fun () -> serve ~sliced:false)
        in
        (m_on, m_off, m_on /. m_off))
  in
  Format.fprintf fmt
    "  serve best-case: slicer on %.6f s, off %.6f s — %.2fx@." m_on m_off
    ratio;
  (* determinism: two seeded profiles dump byte-identical registries
     and identical slices *)
  let dump () =
    Obs.reset ();
    let p = Slicelab.profile Workload.rkv in
    (p.Slicelab.p_points, Obs.dump_json ())
  in
  let pts1, d1 = dump () in
  let pts2, d2 = dump () in
  if pts1 <> pts2 then failwith "slice: two seeded profiles sliced differently";
  if not (String.equal d1 d2) then
    failwith "slice: two seeded profiles dumped different registries";
  Format.fprintf fmt
    "  determinism: seeded profiles byte-identical (%d bytes, %d points)@."
    (String.length d1) (List.length pts1);
  let oc = open_out "BENCH_slice.json" in
  Printf.fprintf oc "{\n  \"apps\": [%s]"
    (String.concat ", "
       (List.map (fun (n, _, _, _) -> Printf.sprintf "%S" n) per_app));
  List.iter
    (fun (n, p, classic, v) ->
      Printf.fprintf oc ",\n  \"%s_covered\": %d" n
        p.Slicelab.p_report.Tracediff.n_covered;
      Printf.fprintf oc ",\n  \"%s_slice_points\": %d" n
        p.Slicelab.p_report.Tracediff.n_slice_points;
      Printf.fprintf oc ",\n  \"%s_sliced_away\": %d" n
        (List.length p.Slicelab.p_blocks);
      Printf.fprintf oc ",\n  \"%s_coverage_diff\": %d" n classic;
      Printf.fprintf oc ",\n  \"%s_extra_beyond_coverage_diff\": %d" n
        (List.length p.Slicelab.p_blocks);
      Printf.fprintf oc ",\n  \"%s_kept_after_verify\": %d" n
        (List.length v.Slicelab.v_kept);
      Printf.fprintf oc ",\n  \"%s_verifier_restored\": %d" n
        (List.length v.Slicelab.v_restored);
      Printf.fprintf oc ",\n  \"%s_converge_rounds\": %d" n
        v.Slicelab.v_rounds)
    per_app;
  Printf.fprintf oc ",\n  \"counterexample_blocks\": %d" (List.length cex1);
  Printf.fprintf oc ",\n  \"serve_s_slicer_on\": %.6f" m_on;
  Printf.fprintf oc ",\n  \"serve_s_slicer_off\": %.6f" m_off;
  Printf.fprintf oc ",\n  \"tracing_overhead_x\": %.2f" ratio;
  Printf.fprintf oc ",\n  \"deterministic\": true\n}\n";
  close_out oc;
  Format.fprintf fmt "  wrote BENCH_slice.json@."

(* ---------- experiment registry ---------- *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ("fig2", "memory footprint maps (605.mcf_s, ltpd)", fun () -> ignore (Fig2.run fmt));
    ("fig4", "tracediff feature discovery output", fun () -> ignore (Fig4.run fmt));
    ("fig6", "feature-customization latency breakdown", fun () -> ignore (Fig6.run fmt));
    ("fig7", "init-code removal latency + validation", fun () -> ignore (Fig7.run fmt));
    ("fig8", "rkv throughput timeline (disable/re-enable SET)", fun () -> ignore (Fig8.run fmt));
    ("fig9", "executed vs removed basic blocks", fun () -> ignore (Fig9.run fmt));
    ("fig10", "live blocks over time vs RAZOR/Chisel", fun () -> ignore (Fig10.run fmt));
    ("table1", "Redis CVE mitigation", fun () -> ignore (Table1.run fmt));
    ("security", "PLT removal + BROP gadget census (§4.2)", fun () -> ignore (Security.run fmt));
    ("ablation", "policy / normalization / autophase / libcut ablations", fun () -> ignore (Ablation.run fmt));
    ("obs", "observability breakdown + registry overhead", run_obs);
    ("fleet", "fan-out throughput + rollout pause per wave (§6a)", run_fleet);
    ("chaos", "site x mode fault coverage + invariant oracles (§6c)", run_chaos);
    ("slice", "dataflow slicing: sliced-away wins + tracing overhead (§7)", run_slice);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  quick := List.mem "--quick" args;
  let args = List.filter (fun a -> a <> "--quick") args in
  let to_run =
    match args with
    (* --quick alone = the obs smoke run (ci.sh's fast bench gate) *)
    | [] when !quick ->
        List.filter (fun (id, _, _) -> id = "obs") experiments
    | [] | [ "all" ] -> experiments
    | names ->
        List.map
          (fun n ->
            match List.find_opt (fun (id, _, _) -> id = n) experiments with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %S; available: %s\n" n
                  (String.concat ", " (List.map (fun (id, _, _) -> id) experiments));
                exit 2)
          names
  in
  Format.fprintf fmt "DynaCut reproduction benchmark harness (%d experiments)@."
    (List.length to_run);
  List.iter
    (fun (id, desc, f) ->
      Format.fprintf fmt "@.>>> %s — %s@." id desc;
      let (), dt = Obs.timed_span ("bench." ^ id) f in
      Format.fprintf fmt "<<< %s done in %.2fs (host CPU)@." id dt)
    to_run;
  Format.fprintf fmt "@.All experiments complete.@."
