(** dynacut — the command-line front end.

    Mirrors the tooling around the paper's artifact: run guest apps on
    the simulated machine, collect drcov traces, diff them (tracediff),
    apply a dynamic cut and interact with the customized process, inspect
    checkpoint images (crit), disassemble binaries, and regenerate the
    paper's tables/figures (report).

    Everything runs against in-memory machines: trace files and images
    can be exported to the host filesystem for inspection. *)

open Cmdliner

let find_app name =
  match
    List.find_opt (fun (a : Workload.app) -> a.Workload.a_name = name) Workload.all_apps
  with
  | Some a -> a
  | None ->
      Printf.eprintf "unknown app %S; known: %s\n" name
        (String.concat ", "
           (List.map (fun (a : Workload.app) -> a.Workload.a_name) Workload.all_apps));
    exit 2

let app_arg =
  let doc = "Guest application (ltpd | ngx | rkv | 600.perlbench_s | ...)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

(* APP as an optional positional, for commands where --list-fault-sites
   can stand alone *)
let app_opt_arg =
  let doc = "Guest application (ltpd | ngx | rkv | 600.perlbench_s | ...)." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let require_app = function
  | Some a -> find_app a
  | None ->
      prerr_endline "missing APP argument";
      exit 2

let list_fault_sites_arg =
  let doc =
    "List every registered fault-injection site with a one-line \
     description. Standing alone (no APP) the listing prints \
     immediately and the command exits; combined with a run (APP \
     given) it prints after the run, so --verbose shows the per-site \
     fired count from the metric registry (fault.fired{site=...}) for \
     the faults that actually fired."
  in
  Arg.(value & flag & info [ "list-fault-sites" ] ~doc)

let verbose_arg =
  let doc = "Verbose output (for --list-fault-sites: per-site fired counts)." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let print_fault_sites ?(verbose = false) () =
  List.iter
    (fun site ->
      let name = Fault.Site.name site and desc = Fault.Site.description site in
      if verbose then
        Printf.printf "%-22s fired=%-4d %s\n" name (Fault.registry_fired site) desc
      else Printf.printf "%-22s %s\n" name desc)
    Fault.Site.all

(* the machine-readable registry dump behind --list-fault-sites --json:
   the shape (one object per site with "site", "modes", "fired",
   "description") is a stable contract *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let print_fault_sites_json () =
  let site_obj site =
    let modes =
      String.concat ", "
        (List.map
           (fun m -> Printf.sprintf "%S" (Fault.mode_to_string m))
           (Fault.applicable_modes site))
    in
    Printf.sprintf
      "  {\"site\": %S, \"modes\": [%s], \"fired\": %d, \"description\": \
       \"%s\"}"
      (Fault.Site.name site) modes (Fault.registry_fired site)
      (json_escape (Fault.Site.description site))
  in
  Printf.printf "[\n%s\n]\n"
    (String.concat ",\n" (List.map site_obj Fault.Site.all))

let inject_fault_arg =
  let doc =
    "Arm a deterministic fault at a pipeline site before cutting \
     (repeatable). $(docv) is \
     SITE[:once|nth=N|on=N|p=F][:MODE][:transient] with MODE one of \
     kill, corrupt, enospc, eio (default: a plain injected failure; \
     corrupt, enospc and eio apply at the storage sites criu.save, \
     journal.lock and journal.append), e.g. 'criu.save', \
     'restore.tcp_repair:nth=2', 'journal.append:once:corrupt'. \
     ':kill' simulates controller death (no rollback runs; recover with \
     $(b,dynacut recover)). See --list-fault-sites for the full site \
     registry."
  in
  Arg.(value & opt_all string [] & info [ "inject-fault" ] ~docv:"SPEC" ~doc)

let fault_seed_arg =
  let doc =
    "Seed for the fault scheduler's PRNG: probabilistic 'p=F' specs and \
     the damage a corrupt-mode fault does to a stored blob both draw \
     from it. The seed in use is printed so any fault-injected run can \
     be replayed bit-for-bit."
  in
  Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"N" ~doc)

let arm_faults ?seed specs =
  Fault.reset ();
  (match seed with
  | None -> ()
  | Some n ->
      Fault.seed n;
      Printf.printf "fault-seed %d\n" n);
  List.iter
    (fun spec_str ->
      try
        let site, spec, transient, mode = Fault.parse_spec spec_str in
        Fault.arm_mode ~transient site spec mode
      with Invalid_argument e ->
        Printf.eprintf "bad --inject-fault %S: %s\n" spec_str e;
        exit 2)
    specs

let out_arg =
  let doc = "Write output to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc =
    "After the run, write the observability registry — counters, \
     histograms, the unified event ring, and the pipeline span breakdown \
     (checkpoint / crit / rewrite / inject / restore / tcp_repair, plus \
     journal and recover spans) including per-stage host-CPU seconds — \
     as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let write_metrics = function
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Obs.dump_json ~host:true ());
      close_out oc;
      Printf.printf "wrote %s\n" path

let emit out content =
  match out with
  | None -> print_string content
  | Some path ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      Printf.printf "wrote %s (%d bytes)\n" path (String.length content)

(* ---------- run ---------- *)

let run_cmd =
  let requests =
    let doc = "Send $(docv) to the server after boot (repeatable)." in
    Arg.(value & opt_all string [] & info [ "r"; "request" ] ~docv:"REQ" ~doc)
  in
  let action app reqs =
    let c = Workload.boot (find_app app) in
    Printf.printf "%s ready (pid %d)\n" app c.Workload.pid;
    List.iter
      (fun r ->
        let r = Scanf.unescaped r in
        let resp = Workload.rpc c r in
        Printf.printf ">> %S\n<< %S\n" r resp)
      reqs;
    if reqs = [] && (find_app app).Workload.a_port = None then begin
      let st = Workload.run_to_exit c in
      Printf.printf "%s\n" (Proc.state_to_string st)
    end;
    print_string (Workload.console c)
  in
  let doc = "Boot a guest application and optionally drive requests." in
  Cmd.v (Cmd.info "run" ~doc) Term.(const action $ app_arg $ requests)

(* ---------- trace ---------- *)

let trace_cmd =
  let requests =
    let doc = "Request to send during the serving phase (repeatable)." in
    Arg.(value & opt_all string [] & info [ "r"; "request" ] ~docv:"REQ" ~doc)
  in
  let init_out =
    let doc = "Also dump the initialization-phase coverage to $(docv)." in
    Arg.(value & opt (some string) None & info [ "init-coverage" ] ~docv:"FILE" ~doc)
  in
  let action app reqs out init_out =
    let app = find_app app in
    let reqs = List.map Scanf.unescaped reqs in
    let init, serving =
      Workload.trace_requests ~app ~requests:reqs ~nudge_at_ready:true ()
    in
    (match (init, init_out) with
    | Some log, Some path -> emit (Some path) (Drcov.to_string log)
    | _ -> ());
    emit out (Drcov.to_string serving)
  in
  let doc = "Run an app under the coverage collector; print drcov logs." in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const action $ app_arg $ requests $ out_arg $ init_out)

(* ---------- tracediff ---------- *)

let tracediff_cmd =
  let wanted =
    let doc = "drcov log of wanted behaviour (host file, repeatable)." in
    Arg.(non_empty & opt_all file [] & info [ "w"; "wanted" ] ~docv:"FILE" ~doc)
  in
  let undesired =
    let doc = "drcov log of undesired behaviour (host file, repeatable)." in
    Arg.(non_empty & opt_all file [] & info [ "u"; "undesired" ] ~docv:"FILE" ~doc)
  in
  let read_log path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    try Drcov.of_string s
    with Drcov.Drcov_malformed { offset; reason } ->
      Printf.eprintf "malformed drcov log %s: line %d: %s\n" path offset reason;
      exit 2
  in
  let action wanted undesired =
    let report =
      Tracediff.feature_blocks
        ~wanted:(List.map read_log wanted)
        ~undesired:(List.map read_log undesired)
        ()
    in
    Format.printf "%a" Tracediff.pp_report report
  in
  let doc = "Diff wanted vs undesired coverage logs (the paper's tracediff.py)." in
  let man =
    [
      `S "EXIT STATUS";
      `P "0: report printed.";
      `P
        "2: a drcov log was malformed (truncated, bit-flipped, or \
         trailing garbage); the offending file and line are reported.";
    ]
  in
  Cmd.v (Cmd.info "tracediff" ~doc ~man) Term.(const action $ wanted $ undesired)

(* ---------- slice ---------- *)

(* The slice is anchored at the wanted feature's success outputs, which
   is fixed per app (the web servers' read-only GET path; rkv's GET
   hits). FEATURE names that profile; anything else is a usage error. *)
let check_slice_feature (app : Workload.app) = function
  | None -> ()
  | Some f ->
      let known = if app.Workload.a_name = "rkv" then "get" else "read-only" in
      if String.lowercase_ascii f <> known then begin
        Printf.eprintf "no sliceable feature %S for %s (anchored feature: %s)\n"
          f app.Workload.a_name known;
        exit 2
      end

let slice_sample_arg =
  let doc =
    "Sampled tracing: each accepted connection is traced with \
     probability $(docv), drawn from a seeded splitmix64 stream. Gaps \
     under-approximate the slice and are repaid by the verifier \
     counterexample loop."
  in
  Arg.(value & opt (some float) None & info [ "sample" ] ~docv:"P" ~doc)

let slice_seed_arg =
  let doc = "Machine and sampled-tracing seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let slice_cmd =
  let feature =
    let doc =
      "Wanted feature whose success outputs anchor the slice: \
       'read-only' (web servers) or 'get' (rkv). Defaults to the app's \
       anchored feature; other names are rejected."
    in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FEATURE" ~doc)
  in
  let action app feature sample seed verbose metrics =
    let app = find_app app in
    check_slice_feature app feature;
    let sample = Option.map (fun p -> (Rng.create seed, p)) sample in
    let p = Slicelab.profile ~seed ?sample app in
    Format.printf "%a@." Slicer.pp_stats p.Slicelab.p_stats;
    Format.printf
      "%d covered blocks, %d slice points -> %d sliced away (%d own-module \
       cut candidates)@."
      p.Slicelab.p_report.Tracediff.n_covered
      p.Slicelab.p_report.Tracediff.n_slice_points
      (List.length p.Slicelab.p_report.Tracediff.sliced)
      (List.length p.Slicelab.p_blocks);
    if verbose then
      Format.printf "%a" Tracediff.pp_slice_report p.Slicelab.p_report;
    write_metrics metrics;
    if p.Slicelab.p_blocks = [] then exit 6
  in
  let doc =
    "Profile an app under the dataflow slicing tracer and dump slice \
     stats plus the sliced-away cut candidates (covered blocks no \
     wanted-output slice touches)."
  in
  let man =
    [
      `S "EXIT STATUS";
      `P "0: slice computed; at least one sliced-away cut candidate found.";
      `P "2: usage error (unknown app or feature).";
      `P
        "6: the slice covers every covered block — no sliced-away \
         candidates to cut.";
    ]
  in
  Cmd.v (Cmd.info "slice" ~doc ~man)
    Term.(
      const action $ app_arg $ feature $ slice_sample_arg $ slice_seed_arg
      $ verbose_arg $ metrics_out_arg)

(* ---------- cut ---------- *)

let feature_blocks (app : Workload.app) feature =
  match (app.Workload.a_name, feature) with
  | ("ltpd" | "ngx"), "put-delete" ->
      ( Common.web_feature_blocks app,
        if app.Workload.a_name = "ltpd" then "ltpd_403" else "ngx_declined" )
  | "rkv", cmd -> (Common.rkv_feature_blocks [ cmd ^ " somekey someval\n" ], "rkv_err")
  | _ ->
      Printf.eprintf "no feature %S for %s\n" feature app.Workload.a_name;
      exit 2

let exit_status_man extra =
  [
    `S "EXIT STATUS";
    `P "0: the cut is live.";
    `P "2: usage error (unknown app, feature, or fault spec).";
    `P
      "3: the transaction rolled back — the target process tree is \
       byte-identical to its pre-cut state and still serving.";
  ]
  @ extra

let cut_cmd =
  let feature =
    let doc =
      "Feature to disable: 'put-delete' (web servers), or an rkv command \
       name such as SET, STRALGO, SETRANGE, CONFIG."
    in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FEATURE" ~doc)
  in
  let probe =
    let doc = "Request to send to the customized server (repeatable)." in
    Arg.(value & opt_all string [] & info [ "r"; "request" ] ~docv:"REQ" ~doc)
  in
  let reenable =
    let doc = "Re-enable the feature afterwards and probe again." in
    Arg.(value & flag & info [ "reenable" ] ~doc)
  in
  let slice =
    let doc =
      "Cut the $(b,Sliced_away) candidate class instead of a coverage \
       diff: profile the app under the dataflow slicing tracer, cut \
       every covered block outside the wanted-output slice under the \
       'Verify' trap policy, and converge by verifier feedback — each \
       false positive is restored bit-for-bit, evicted from the cut, \
       and re-joins the slice as a counterexample. FEATURE and \
       --reenable are ignored."
    in
    Arg.(value & flag & info [ "slice" ] ~doc)
  in
  let slice_action app probes faults seed list_sites verbose metrics =
    arm_faults ?seed faults;
    let p = Slicelab.profile app in
    Format.printf "%a@." Slicer.pp_stats p.Slicelab.p_stats;
    let v =
      Slicelab.cut_and_converge app ~blocks:p.Slicelab.p_blocks
        ~on_counterexample:(fun (b : Covgraph.block) ->
          Slicer.add_counterexample p.Slicelab.p_slicer
            ~module_:b.Covgraph.b_module ~off:b.Covgraph.b_off;
          Format.printf "verifier counterexample: %s+0x%x re-joins the slice@."
            b.Covgraph.b_module b.Covgraph.b_off)
        ()
    in
    Format.printf "%a" Slicelab.pp_converge v;
    List.iter
      (fun req ->
        let req = Scanf.unescaped req in
        Printf.printf ">> %S\n<< %S\n" req (Workload.rpc v.Slicelab.v_ctx req))
      probes;
    if faults <> [] then print_endline (Fault.report ());
    if list_sites then print_fault_sites ~verbose ();
    write_metrics metrics;
    match v.Slicelab.v_rollout with
    | Supervisor.R_promoted -> ()
    | _ -> exit 3
  in
  let action app feature probes reenable slice faults seed list_sites verbose
      metrics =
    if list_sites && app = None then begin
      print_fault_sites ~verbose ();
      exit 0
    end;
    let app = require_app app in
    if slice then begin
      slice_action app probes faults seed list_sites verbose metrics;
      exit 0
    end;
    let feature =
      match feature with
      | Some f -> f
      | None ->
          prerr_endline "missing FEATURE argument";
          exit 2
    in
    let blocks, redirect = feature_blocks app feature in
    arm_faults ?seed faults;
    let c = Workload.boot app in
    let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
    let r =
      Dynacut.try_cut session ~blocks
        ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect redirect }
        ()
    in
    Format.printf "cut %d blocks: %a (%a)@." (List.length blocks)
      Dynacut.pp_outcome r.Dynacut.r_outcome Dynacut.pp_timings
      r.Dynacut.r_timings;
    if r.Dynacut.r_retries > 0 then
      Format.printf "retries: %d (%d backoff cycles)@." r.Dynacut.r_retries
        r.Dynacut.r_backoff_cycles;
    List.iter
      (fun req ->
        let req = Scanf.unescaped req in
        Printf.printf ">> %S\n<< %S\n" req (Workload.rpc c req))
      probes;
    let rolled_back =
      match r.Dynacut.r_outcome with `Rolled_back _ -> true | _ -> false
    in
    if reenable && not rolled_back then begin
      let t = Dynacut.reenable session r.Dynacut.r_journals in
      Format.printf "re-enabled: %a@." Dynacut.pp_timings t;
      List.iter
        (fun req ->
          let req = Scanf.unescaped req in
          Printf.printf ">> %S\n<< %S\n" req (Workload.rpc c req))
        probes
    end;
    if faults <> [] then print_endline (Fault.report ());
    if list_sites then print_fault_sites ~verbose ();
    write_metrics metrics;
    (* exit 0: cut applied; exit 3: transaction rolled
       back — target untouched and still serving *)
    if rolled_back then exit 3
  in
  let doc = "Dynamically disable a feature of a running server, then probe it." in
  Cmd.v
    (Cmd.info "cut" ~doc ~man:(exit_status_man []))
    Term.(
      const action $ app_opt_arg $ feature $ probe $ reenable $ slice
      $ inject_fault_arg $ fault_seed_arg $ list_fault_sites_arg $ verbose_arg
      $ metrics_out_arg)

(* ---------- guard ---------- *)

(* the wanted GET handler a --storm cut adds to the undesired set *)
let storm_sym (app : Workload.app) =
  match app.Workload.a_name with
  | "ngx" -> "ngx_http_get"
  | "ltpd" -> "ltpd_handle_get"
  | "rkv" -> "rkv_cmd_get"
  | n ->
      Printf.eprintf "--storm is not supported for %s\n" n;
      exit 2

let guard_cmd =
  let feature =
    let doc = "Feature to disable (same choices as $(b,cut)); default put-delete \
               for the web servers, SET for rkv." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FEATURE" ~doc)
  in
  let probe =
    let doc = "Request mix driven in each observation window and soak \
               round (repeatable); defaults to the app's wanted-traffic mix." in
    Arg.(value & opt_all string [] & info [ "r"; "request" ] ~docv:"REQ" ~doc)
  in
  let storm =
    let doc =
      "Deliberately add the app's wanted GET path to the undesired set, \
       provoking a trap storm — a demo of the canary rejecting a bad cut."
    in
    Arg.(value & flag & info [ "storm" ] ~doc)
  in
  let max_traps =
    let doc =
      "Traps the canary may take before it is rejected. Defaults to the \
       supervisor's budget — except under --slice, where 'Verify' traps \
       are self-healing restore events, so the default is effectively \
       unbounded."
    in
    Arg.(value & opt (some int) None & info [ "max-traps" ] ~docv:"N" ~doc)
  in
  let slices =
    let doc =
      "With $(b,--slice): post-rollout soak rounds, each driving traffic \
       and then folding verifier false positives back into the cut."
    in
    Arg.(value & opt int 8 & info [ "slices" ] ~docv:"N" ~doc)
  in
  let slice =
    let doc =
      "Guard a cut of the $(b,Sliced_away) candidate class: profile the \
       app under the dataflow slicing tracer first, cut the candidates \
       under the 'Verify' trap policy, and during the soak feed every \
       verifier-restored false positive back into the slice as a \
       counterexample. FEATURE and --storm are ignored."
    in
    Arg.(value & flag & info [ "slice" ] ~doc)
  in
  let action app feature probes storm slice max_traps slices faults seed
      list_sites verbose metrics =
    if list_sites && app = None then begin
      print_fault_sites ~verbose ();
      exit 0
    end;
    let app = require_app app in
    let slicer = ref None in
    let blocks, on_trap =
      if slice then begin
        let p = Slicelab.profile app in
        Format.printf "%a@." Slicer.pp_stats p.Slicelab.p_stats;
        slicer := Some p.Slicelab.p_slicer;
        (p.Slicelab.p_blocks, `Verify)
      end
      else begin
        let feature =
          match feature with
          | Some f -> f
          | None -> if app.Workload.a_name = "rkv" then "SET" else "put-delete"
        in
        let blocks, redirect = feature_blocks app feature in
        (* A storm cut includes the wanted GET path. `Redirect would silently
           drop it (same-function filter), so the storm uses `Terminate: the
           first wanted request kills the canary — a maximally bad cut. *)
        if storm then
          ( blocks
            @ [
                Supervisor.block_of_sym (Common.app_exe app)
                  ~module_:app.Workload.a_name ~sym:(storm_sym app);
              ],
            `Terminate )
        else (blocks, `Redirect redirect)
      end
    in
    arm_faults ?seed faults;
    let max_traps =
      match max_traps with
      | Some n -> n
      | None ->
          if slice then 100_000
          else Supervisor.default_config.Supervisor.max_traps
    in
    let c = Workload.boot app in
    let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
    let config = { Supervisor.default_config with Supervisor.max_traps } in
    let sup =
      Supervisor.create session ~config ~blocks
        ~policy:{ Dynacut.method_ = `First_byte; on_trap }
    in
    let reqs =
      match probes with
      | [] ->
          if app.Workload.a_name = "rkv" then [ "GET somekey\n" ]
          else Workload.web_wanted
      | l -> List.map Scanf.unescaped l
    in
    let drive () =
      List.iter (fun r -> ignore (Workload.rpc c r)) reqs;
      ignore (Machine.run c.Workload.m ~max_cycles:20_000)
    in
    let finish code =
      print_endline (Supervisor.render_log sup);
      if faults <> [] then print_endline (Fault.report ());
      if list_sites then print_fault_sites ~verbose ();
      write_metrics metrics;
      exit code
    in
    let rollout = Supervisor.guarded_cut sup ~drive () in
    Format.printf "rollout: %a@." Supervisor.pp_rollout rollout;
    (match rollout with
    | Supervisor.R_rolled_back _ -> finish 3
    | Supervisor.R_canary_rejected | Supervisor.R_promotion_failed -> finish 4
    | Supervisor.R_promoted -> ());
    (match !slicer with
    | Some sl ->
        for _ = 1 to slices do
          drive ();
          (* `Verify traps restore blocks in place; evict them from the
             cut and re-join them to the slice as counterexamples *)
          let before = Supervisor.blocks sup in
          if Supervisor.verifier_feedback sup > 0 then begin
            let after = Supervisor.blocks sup in
            List.iter
              (fun (b : Covgraph.block) ->
                if not (List.mem b after) then begin
                  Slicer.add_counterexample sl ~module_:b.Covgraph.b_module
                    ~off:b.Covgraph.b_off;
                  Format.printf
                    "verifier counterexample: %s+0x%x re-joins the slice@."
                    b.Covgraph.b_module b.Covgraph.b_off
                end)
              before
          end
        done
    | None -> ());
    finish 0
  in
  let doc =
    "Apply a cut under supervision: a canary rollout, and verifier \
     feedback under --slice."
  in
  let man =
    exit_status_man
      [
        `P
          "4: the rollout was stopped by the canary gate — the canary was \
           rejected or promotion failed; every pid is byte-original.";
      ]
  in
  Cmd.v
    (Cmd.info "guard" ~doc ~man)
    Term.(
      const action $ app_opt_arg $ feature $ probe $ storm $ slice
      $ max_traps $ slices $ inject_fault_arg $ fault_seed_arg $ list_fault_sites_arg $ verbose_arg
      $ metrics_out_arg)

(* ---------- recover ---------- *)

let recover_cmd =
  let feature =
    let doc = "Feature the dead controller was cutting (same choices as \
               $(b,cut)); default put-delete for the web servers, SET for rkv." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FEATURE" ~doc)
  in
  let probe =
    let doc = "Request to send to the recovered server (repeatable)." in
    Arg.(value & opt_all string [] & info [ "r"; "request" ] ~docv:"REQ" ~doc)
  in
  let crash_at =
    let doc =
      "Stage the crash: arm a kill-mode fault at site $(docv) (see \
       --list-fault-sites), run a cut that dies there mid-flight, then \
       recover the orphaned tree as a fresh controller. Without this \
       flag the command just runs recovery on whatever journal the \
       tree's tmpfs holds."
    in
    Arg.(value & opt (some string) None & info [ "crash-at" ] ~docv:"SITE" ~doc)
  in
  let action app feature probes crash_at faults seed list_sites verbose metrics =
    if list_sites && app = None then begin
      print_fault_sites ~verbose ();
      exit 0
    end;
    let app = require_app app in
    let feature =
      match feature with
      | Some f -> f
      | None -> if app.Workload.a_name = "rkv" then "SET" else "put-delete"
    in
    let blocks, redirect = feature_blocks app feature in
    arm_faults ?seed faults;
    let c = Workload.boot app in
    (match crash_at with
    | None -> ()
    | Some name ->
        let site =
          match Fault.Site.of_name name with
          | Some site -> site
          | None ->
              Printf.eprintf "unknown --crash-at site %S; see --list-fault-sites\n" name;
              exit 2
        in
        Fault.arm ~kill:true site Fault.One_shot;
        let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
        (match
           Dynacut.try_cut session ~blocks
             ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect redirect }
             ()
         with
        | _ ->
            Printf.eprintf
              "controller survived --crash-at %s (site never reached)\n" name;
            exit 2
        | exception Fault.Controller_killed { site = s } ->
            Format.printf "controller killed at %s@." (Fault.Site.name s)));
    match Dynacut.recover c.Workload.m ~root_pid:c.Workload.pid with
    | r ->
        Format.printf "recover: %a@." Dynacut.pp_recovery r;
        List.iter
          (fun req ->
            let req = Scanf.unescaped req in
            Printf.printf ">> %S\n<< %S\n" req (Workload.rpc c req))
          probes;
        let code =
          match Dynacut.stranded c.Workload.m ~root_pid:c.Workload.pid with
          | _ :: _ as pids ->
              Printf.printf "stranded: pids [%s] not live and thawed\n"
                (String.concat ";" (List.map string_of_int pids));
              5
          | [] -> (
              match r.Dynacut.rec_action with
              | `Nothing -> 0
              | `Thawed | `Rolled_back -> 6
              | `Completed -> 7)
        in
        if list_sites then print_fault_sites ~verbose ();
        write_metrics metrics;
        exit code
    | exception e ->
        Printf.eprintf "recover failed: %s\n" (Printexc.to_string e);
        if list_sites then print_fault_sites ~verbose ();
        write_metrics metrics;
        exit 3
  in
  let doc =
    "Recover a process tree orphaned by a dead controller from its \
     crash-consistency journal."
  in
  let man =
    [
      `S "EXIT STATUS";
      `P "0: the journal was absent or empty — nothing to recover.";
      `P "2: usage error (unknown app, feature, or crash site), or the \
          staged crash never fired.";
      `P "3: recovery itself failed; the journal is intact, re-run it.";
      `P
        "6: an interrupted transaction was found and undone — the tree \
         was thawed or rolled back to its pristine images and is \
         byte-identical to its pre-cut state.";
      `P
        "5: after recovery the tree cannot serve: a pid of the tree, or \
         one a pristine image names, is not live and thawed (an intent \
         record damaged on storage after it was written hid the \
         interrupted transaction; a record torn as it is written never \
         gets that far, its cut rolls back). The pids are printed; this \
         code overrides 0, 6 and 7.";
      `P
        "7: the dead controller had already committed (or finished \
         aborting); only its cleanup was lost and has been redone.";
    ]
  in
  Cmd.v
    (Cmd.info "recover" ~doc ~man)
    Term.(
      const action $ app_opt_arg $ feature $ probe $ crash_at $ inject_fault_arg
      $ fault_seed_arg $ list_fault_sites_arg $ verbose_arg $ metrics_out_arg)

(* ---------- stats ---------- *)

let default_feature (app : Workload.app) = function
  | Some f -> f
  | None -> if app.Workload.a_name = "rkv" then "SET" else "put-delete"

let stats_cmd =
  let feature =
    let doc =
      "Feature to cut while gathering metrics (same choices as $(b,cut)); \
       default put-delete for the web servers, SET for rkv."
    in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FEATURE" ~doc)
  in
  let probe =
    let doc =
      "Request to drive against the customized server (repeatable); \
       defaults to the app's wanted-traffic mix."
    in
    Arg.(value & opt_all string [] & info [ "r"; "request" ] ~docv:"REQ" ~doc)
  in
  let json =
    let doc = "Dump the registry as JSON instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let host =
    let doc =
      "Include the per-span host-CPU seconds section in the JSON dump. \
       Host times are real measurements and therefore not reproducible \
       across runs; without this flag the JSON is byte-identical for the \
       same seed and scenario."
    in
    Arg.(value & flag & info [ "host" ] ~doc)
  in
  let action app feature probes json host out faults seed list_sites
      verbose =
    if list_sites then begin
      print_fault_sites ~verbose ();
      exit 0
    end;
    let app = require_app app in
    let feature = default_feature app feature in
    let blocks, redirect = feature_blocks app feature in
    arm_faults ?seed faults;
    let c = Workload.boot app in
    let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
    let r =
      Dynacut.try_cut session ~blocks
        ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect redirect }
        ()
    in
    let reqs =
      match probes with
      | [] ->
          if app.Workload.a_name = "rkv" then [ "GET somekey\n" ]
          else Workload.web_wanted
      | l -> List.map Scanf.unescaped l
    in
    List.iter (fun req -> ignore (Workload.rpc c req)) reqs;
    ignore (Machine.run c.Workload.m ~max_cycles:20_000);
    emit out (if json then Obs.dump_json ~host () else Obs.dump_text ());
    match r.Dynacut.r_outcome with `Rolled_back _ -> exit 3 | _ -> ()
  in
  let doc =
    "Cut a feature, drive traffic, and dump the observability registry \
     (metrics, pipeline spans, unified event ring) in one shot. Every \
     machine runs on the decoded-block code cache, so the metrics include \
     its bbcache.hits, bbcache.decodes and bbcache.flushes counters."
  in
  let man =
    exit_status_man []
    @ [
        `S "DETERMINISM";
        `P
          "The default (and --json) output is derived from virtual-clock \
           instrumentation only: the same seed and the same scenario \
           produce byte-identical dumps. Only --host adds wall-measured \
           data.";
      ]
  in
  Cmd.v
    (Cmd.info "stats" ~doc ~man)
    Term.(
      const action $ app_opt_arg $ feature $ probe $ json $ host $ out_arg
      $ inject_fault_arg $ fault_seed_arg $ list_fault_sites_arg
      $ verbose_arg)

(* ---------- fleet ---------- *)

let require_server (app : Workload.app) =
  if app.Workload.a_port = None then begin
    Printf.eprintf "%s is a batch app; fleet needs a server (ltpd | ngx | rkv)\n"
      app.Workload.a_name;
    exit 2
  end

let wanted_mix (app : Workload.app) =
  if app.Workload.a_name = "rkv" then Workload.kv_wanted else Workload.web_wanted

let undesired_mix (app : Workload.app) =
  if app.Workload.a_name = "rkv" then Workload.kv_undesired
  else Workload.web_undesired

let fleet_cmd =
  let feature =
    let doc =
      "Feature to roll out across the fleet (same choices as $(b,cut)); \
       default put-delete for the web servers, SET for rkv."
    in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FEATURE" ~doc)
  in
  let workers =
    let doc = "Number of fleet workers behind the least-loaded balancer." in
    Arg.(value & opt int 6 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let waves =
    let doc = "Number of rollout waves the fleet is chunked into." in
    Arg.(value & opt int 3 & info [ "waves" ] ~docv:"K" ~doc)
  in
  let storm_wave =
    let doc =
      "From wave $(docv) onward, drive the app's undesired mix instead of \
       the wanted mix — that wave's canary breaches its trap SLO and the \
       rollout halts with earlier waves still cut (exit 4)."
    in
    Arg.(value & opt (some int) None & info [ "storm-wave" ] ~docv:"K" ~doc)
  in
  let sites_json =
    let doc =
      "With $(b,--list-fault-sites): dump the registry as a JSON array \
       (site, applicable modes, fired count, description) instead of the \
       human listing."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let action app feature workers waves storm_wave faults seed list_sites
      sites_json verbose metrics =
    let print_sites () =
      if sites_json then print_fault_sites_json ()
      else print_fault_sites ~verbose ()
    in
    if list_sites && app = None then begin
      print_sites ();
      exit 0
    end;
    let app = require_app app in
    require_server app;
    let feature = default_feature app feature in
    let blocks, redirect = feature_blocks app feature in
    arm_faults ?seed faults;
    let fleet =
      Fleet.boot ~n:workers ~blocks
        ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect redirect }
        app
    in
    let m = Fleet.machine fleet and pids = Fleet.pids fleet in
    (* an injected fault on the serving path refuses the request, as
       the chaos probes' rollout traffic counts it: part of the run,
       not its end *)
    let refused = ref 0 in
    let send reqs =
      List.iter
        (fun r ->
          match Fleet.request fleet r with
          | (_ : [ `Reply of int * string | `Refused ]) -> ()
          | exception e when Chaos.refusal_of_exn e <> None -> incr refused)
        reqs
    in
    let drive () =
      let w = int_of_float (Obs.gauge_value (Obs.gauge "fleet.wave")) in
      match storm_wave with
      | Some k when w >= k ->
          (* the balancer spreads the batch across the whole fleet, so
             repeat the mix per worker to breach the canary's per-window
             trap SLO *)
          for _ = 1 to workers do
            send (undesired_mix app)
          done
      | _ -> send (wanted_mix app)
    in
    let config =
      Rollout.
        {
          r_waves = waves;
          r_sup =
            { Supervisor.default_config with Supervisor.canary_windows = 1 };
        }
    in
    let finish code =
      if faults <> [] then print_endline (Fault.report ());
      if list_sites then print_sites ();
      write_metrics metrics;
      exit code
    in
    match Fleet.rollout fleet ~config ~drive () with
    | exception Fault.Controller_killed { site } ->
        (* a :kill fault staged a controller death mid-rollout: a fresh
           controller recovers each worker through its own journal *)
        Format.printf "controller killed at %s@." (Fault.Site.name site);
        List.iter
          (fun pid ->
            Format.printf "recover: pid=%d %a@." pid Dynacut.pp_recovery
              (Dynacut.recover m ~root_pid:pid))
          pids;
        finish 6
    | outcome, reports ->
        List.iter
          (fun (r : Rollout.wave_report) ->
            Format.printf "wave %d pids=[%s] pause=%Ld cycles@."
              r.Rollout.wr_wave
              (String.concat ";" (List.map string_of_int r.Rollout.wr_pids))
              r.Rollout.wr_pause_cycles)
          reports;
        Format.printf "rollout: %a@." Rollout.pp_outcome outcome;
        let pid_counter name pid =
          Obs.counter_value
            (Obs.counter ~labels:[ ("pid", string_of_int pid) ] name)
        in
        let rows =
          Fleet.workers fleet
          |> List.sort (fun a b -> compare a.Rollout.w_pid b.Rollout.w_pid)
          |> List.map (fun (w : Rollout.worker) ->
                 let p = Machine.proc_exn m w.Rollout.w_pid in
                 [
                   string_of_int w.Rollout.w_pid;
                   p.Proc.comm;
                   Proc.state_to_string p.Proc.state;
                   (if w.Rollout.w_wave < 0 then "-"
                    else string_of_int w.Rollout.w_wave);
                   w.Rollout.w_state;
                   Int64.to_string w.Rollout.w_since;
                   string_of_int (pid_counter "machine.traps" w.Rollout.w_pid);
                   string_of_int (pid_counter "fleet.dispatches" w.Rollout.w_pid);
                 ])
        in
        print_string
          (Table.render
             ~headers:
               [ "PID"; "COMM"; "STATE"; "WAVE"; "LAST"; "SINCE"; "TRAPS"; "REQS" ]
             rows);
        print_newline ();
        Format.printf "refused %d@."
          (Obs.counter_value (Obs.counter "fleet.refused") + !refused);
        finish (match outcome with Rollout.Completed _ -> 0 | Rollout.Halted _ -> 4)
  in
  let doc =
    "Boot N workers of one app behind the least-loaded balancer and \
     roll a cut out wave-by-wave with a canary gating each wave."
  in
  let man =
    [
      `S "EXIT STATUS";
      `P "0: the rollout completed every wave.";
      `P "2: usage error (unknown app, feature, fault spec, or a batch \
          app without a port).";
      `P
        "4: the rollout halted — a wave's canary was rejected or a member \
         cut rolled back; the interrupted wave was reverted to original \
         while earlier waves stay cut.";
      `P
        "6: a staged ':kill' fault killed the controller mid-rollout and \
         each worker recovered through its own journal (per-pid applied \
         XOR unchanged: a worker whose cut committed stays cut, the rest \
         are original).";
    ]
  in
  Cmd.v
    (Cmd.info "fleet" ~doc ~man)
    Term.(
      const action $ app_opt_arg $ feature $ workers $ waves $ storm_wave
      $ inject_fault_arg $ fault_seed_arg $ list_fault_sites_arg $ sites_json
      $ verbose_arg $ metrics_out_arg)

(* ---------- top ---------- *)

let top_cmd =
  let feature =
    let doc =
      "Feature to roll out under supervision (same choices as $(b,cut)); \
       default put-delete for the web servers, SET for rkv."
    in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FEATURE" ~doc)
  in
  let storm =
    let doc =
      "Cut the app's wanted GET path too, provoking a trap storm (same \
       semantics as $(b,guard --storm)) so the summary shows the canary's \
       rejection."
    in
    Arg.(value & flag & info [ "storm" ] ~doc)
  in
  let slices =
    let doc = "Rounds of wanted traffic after the rollout." in
    Arg.(value & opt int 8 & info [ "slices" ] ~docv:"N" ~doc)
  in
  let pid_counter name pid =
    Obs.counter_value
      (Obs.counter ~labels:[ ("pid", string_of_int pid) ] name)
  in
  let action app feature storm slices =
    let app = require_app app in
    let feature = default_feature app feature in
    let blocks, redirect = feature_blocks app feature in
    let blocks, on_trap =
      if storm then
        ( blocks
          @ [
              Supervisor.block_of_sym (Common.app_exe app)
                ~module_:app.Workload.a_name ~sym:(storm_sym app);
            ],
          `Terminate )
      else (blocks, `Redirect redirect)
    in
    Fault.reset ();
    let c = Workload.boot app in
    let m = c.Workload.m in
    let session = Dynacut.create m ~root_pid:c.Workload.pid in
    let sup =
      Supervisor.create session ~config:Supervisor.default_config ~blocks
        ~policy:{ Dynacut.method_ = `First_byte; on_trap }
    in
    let reqs =
      if app.Workload.a_name = "rkv" then [ "GET somekey\n" ]
      else Workload.web_wanted
    in
    let drive () =
      List.iter (fun r -> ignore (Workload.rpc c r)) reqs;
      ignore (Machine.run m ~max_cycles:20_000)
    in
    let rollout = Supervisor.guarded_cut sup ~drive () in
    for _ = 1 to slices do
      drive ()
    done;
    let rows =
      Machine.all_procs m
      |> List.map (fun (p : Proc.t) -> p.Proc.pid)
      |> List.sort compare
      |> List.map (fun pid ->
             let p = Machine.proc_exn m pid in
             [
               string_of_int pid;
               p.Proc.comm;
               Proc.state_to_string p.Proc.state;
               string_of_int (pid_counter "machine.traps" pid);
             ])
    in
    print_string
      (Table.render ~headers:[ "PID"; "COMM"; "STATE"; "TRAPS" ] rows);
    print_newline ();
    Format.printf "rollout: %a@." Supervisor.pp_rollout rollout;
    Format.printf "steps=%d syscalls=%d traps=%d@."
      (Obs.counter_value (Obs.counter "machine.steps"))
      (Obs.counter_value (Obs.counter "machine.syscalls"))
      (Obs.counter_value (Obs.counter "machine.traps"))
  in
  let doc =
    "Guarded rollout, then a per-pid state and trap summary table from the \
     metric registry ($(b,dynacut fleet) has the fleet view)."
  in
  Cmd.v
    (Cmd.info "top" ~doc)
    Term.(
      const action $ app_opt_arg $ feature $ storm $ slices)

(* ---------- crit ---------- *)

let crit_cmd =
  let mode =
    let doc = "One of: decode (image to text), mems (VMA table)." in
    Arg.(value & pos 1 string "mems" & info [] ~docv:"MODE" ~doc)
  in
  let action app mode out =
    let c = Workload.boot (find_app app) in
    Machine.freeze c.Workload.m ~pid:c.Workload.pid;
    let img = Checkpoint.dump c.Workload.m ~pid:c.Workload.pid () in
    match mode with
    | "decode" -> emit out (Crit.decode_to_text (Images.encode img))
    | "mems" -> emit out (Crit.show_mems img)
    | m ->
        Printf.eprintf "unknown crit mode %S\n" m;
        exit 2
  in
  let doc = "Checkpoint an app and inspect its images (the CRIT tool)." in
  Cmd.v (Cmd.info "crit" ~doc) Term.(const action $ app_arg $ mode $ out_arg)

(* ---------- disasm ---------- *)

let disasm_cmd =
  let action app out =
    let exe = Common.app_exe (find_app app) in
    let buf = Buffer.create 65536 in
    let fmt = Format.formatter_of_buffer buf in
    Self.pp fmt exe;
    List.iter
      (fun (s : Self.section) ->
        if s.Self.sec_prot.Self.p_x then begin
          Format.fprintf fmt "@.-- %s --@." s.Self.sec_name;
          Decode.pp_listing fmt s.Self.sec_data
            ~base:(Int64.add exe.Self.base (Int64.of_int s.Self.sec_off))
        end)
      exe.Self.sections;
    Format.pp_print_flush fmt ();
    emit out (Buffer.contents buf)
  in
  let doc = "Disassemble a guest binary's executable sections." in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(const action $ app_arg $ out_arg)

(* ---------- report ---------- *)

let report_cmd =
  let which =
    let doc = "Experiments to run (fig2 fig6 fig7 fig8 fig9 fig10 table1 security)." in
    Arg.(value & pos_all string [] & info [] ~docv:"EXP" ~doc)
  in
  let action which =
    let fmt = Format.std_formatter in
    let all =
      [
        ("fig2", fun () -> ignore (Fig2.run fmt));
        ("fig6", fun () -> ignore (Fig6.run fmt));
        ("fig7", fun () -> ignore (Fig7.run fmt));
        ("fig8", fun () -> ignore (Fig8.run fmt));
        ("fig9", fun () -> ignore (Fig9.run fmt));
        ("fig10", fun () -> ignore (Fig10.run fmt));
        ("table1", fun () -> ignore (Table1.run fmt));
        ("security", fun () -> ignore (Security.run fmt));
      ]
    in
    let selected =
      match which with
      | [] -> all
      | names -> List.filter (fun (n, _) -> List.mem n names) all
    in
    List.iter (fun (_, f) -> f ()) selected
  in
  let doc = "Regenerate the paper's tables and figures." in
  Cmd.v (Cmd.info "report" ~doc) Term.(const action $ which)

let () =
  let doc = "dynamic and adaptive program customization (Middleware '23)" in
  let info = Cmd.info "dynacut" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            trace_cmd;
            tracediff_cmd;
            slice_cmd;
            cut_cmd;
            guard_cmd;
            recover_cmd;
            fleet_cmd;
            stats_cmd;
            top_cmd;
            crit_cmd;
            disasm_cmd;
            report_cmd;
          ]))
