(** Figure 10: number of live basic blocks over time — DynaCut vs the
    static debloaters (RAZOR, Chisel) on the Lighttpd stand-in.

    Scenario (paper §4.2): the server serves read-only pages most of the
    time; the administrator opens a short window (t=8..9) for uploading
    files with HTTP PUT, then closes it; the program terminates at t=12.

    DynaCut's schedule, executed for real on the machine:
    - launch from a customized image: never-executed blocks are wiped
      (what a static debloater would also drop) but init code is kept —
      live = every block the workloads ever execute;
    - t=2 "Finish initialization": init-only blocks and the PUT/DELETE
      feature blocks are disabled — live = serving code only;
    - t=8 "Enable HTTP PUT/DELETE": the feature journal is restored;
    - t=9: disabled again;
    - t=12: terminate — live = 0.

    RAZOR (trained on all traces, one ring of CFG expansion) and Chisel
    (trace-minimal) are flat lines: their cut cannot follow the phases. *)

type result = {
  f10_total : int;
  f10_dynacut : Timeline.track;
  f10_razor : Timeline.track;
  f10_chisel : Timeline.track;
  f10_functional : bool;  (** GET kept working at every phase *)
}

let times = [ 0.; 2.; 8.; 9.; 12. ]

let blocks_of_static ~name (bs : Cfg.block list) : Covgraph.block list =
  List.map
    (fun (b : Cfg.block) ->
      { Covgraph.b_module = name; b_off = b.Cfg.bb_off; b_size = b.Cfg.bb_size })
    bs

let run fmt =
  Common.section fmt "Figure 10: live basic blocks over time (ltpd)";
  let app = Workload.ltpd in
  let name = app.Workload.a_name in
  (* --- traces --- *)
  let init_only, init_log, _serving_all = Common.init_only_blocks app in
  let feature_blocks =
    Common.own_blocks name (Common.web_feature_blocks app)
  in
  let _, wanted_log =
    Workload.trace_requests ~app ~requests:Workload.web_wanted ~nudge_at_ready:true ()
  in
  let _, undesired_log =
    Workload.trace_requests ~app ~requests:Workload.web_undesired ~nudge_at_ready:true ()
  in
  let all_cov =
    Covgraph.normalize ~cfg_of:(Common.cfg_of_app app)
      (Covgraph.of_logs [ init_log; wanted_log; undesired_log ])
  in
  let exe = Common.app_exe app in
  let cfg = Cfg.of_self exe in
  let static = Cfg.real_blocks cfg in
  let total = List.length static in
  (* --- DynaCut, for real --- *)
  let never_executed =
    List.filter
      (fun (b : Cfg.block) ->
        not (Covgraph.mem_off all_cov ~module_:name ~off:b.Cfg.bb_off))
      static
  in
  let c = Workload.boot app in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let disabled = Hashtbl.create 512 in
  let count_disabled blocks = List.iter (fun (b : Covgraph.block) -> Hashtbl.replace disabled b.Covgraph.b_off ()) blocks in
  let live () = total - Hashtbl.length disabled in
  let get_ok () =
    let r = Workload.rpc c (Workload.http_get "/index.html") in
    let sub = "hello from ltpd" and n = String.length r in
    let sl = String.length sub in
    let rec go i = i + sl <= n && (String.sub r i sl = sub || go (i + 1)) in
    go 0
  in
  (* launch profile: never-executed code wiped *)
  let nv_blocks = blocks_of_static ~name never_executed in
  let _ = Dynacut.cut session ~blocks:nv_blocks ~policy:{ Dynacut.method_ = `Wipe; on_trap = `Kill } in
  count_disabled nv_blocks;
  let ok0 = get_ok () in
  let live0 = live () in
  (* t=2: drop init + features *)
  let own_init = Common.own_blocks name init_only in
  let _ = Dynacut.cut session ~blocks:own_init ~policy:{ Dynacut.method_ = `Wipe; on_trap = `Kill } in
  count_disabled own_init;
  let feat_journals, _ =
    Dynacut.cut session ~blocks:feature_blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "ltpd_403" }
  in
  count_disabled feature_blocks;
  let ok2 = get_ok () in
  let put_blocked =
    let r = Workload.rpc c (Workload.http_put "/w.txt" "x") in
    let n = String.length r in
    n >= 12 && String.sub r 9 3 = "403"
  in
  let live2 = live () in
  (* t=8: open the PUT window *)
  let (_ : Dynacut.timings) = Dynacut.reenable session feat_journals in
  List.iter (fun (b : Covgraph.block) -> Hashtbl.remove disabled b.Covgraph.b_off) feature_blocks;
  let put_ok =
    let r = Workload.rpc c (Workload.http_put "/w.txt" "window-upload") in
    let n = String.length r in
    n >= 12 && String.sub r 9 3 = "201"
  in
  let live8 = live () in
  (* t=9: close it again *)
  let _ =
    Dynacut.cut session ~blocks:feature_blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "ltpd_403" }
  in
  count_disabled feature_blocks;
  let ok9 = get_ok () in
  let live9 = live () in
  (* t=12: terminate *)
  Machine.post_signal c.Workload.m ~pid:c.Workload.pid ~signum:Abi.sigkill;
  let dynacut_track =
    Timeline.make ~name:"DynaCut" ~total
      [
        { Timeline.ph_label = "boot (customized launch image)"; ph_time = 0.; ph_live = live0 };
        { Timeline.ph_label = "finish initialization"; ph_time = 2.; ph_live = live2 };
        { Timeline.ph_label = "enable HTTP PUT/DELETE"; ph_time = 8.; ph_live = live8 };
        { Timeline.ph_label = "window closed"; ph_time = 9.; ph_live = live9 };
        { Timeline.ph_label = "terminate program"; ph_time = 12.; ph_live = 0 };
      ]
  in
  (* --- static baselines --- *)
  let _, rz = Razor.debloat ~level:Razor.L1 exe ~coverage:all_cov in
  let ch = Chisel.debloat exe ~coverage:all_cov ~oracle:Chisel.no_oracle in
  let razor_track = Timeline.flat ~name:"RAZOR" ~total ~kept:rz.Razor.s_kept ~times in
  let chisel_track =
    Timeline.flat ~name:"CHISEL" ~total ~kept:ch.Chisel.c_stats.Razor.s_kept ~times
  in
  let functional = ok0 && ok2 && put_blocked && put_ok && ok9 in
  if not functional then
    Format.fprintf fmt
      "  (checks: boot GET %b, post-init GET %b, PUT blocked %b, PUT in window %b, final GET %b)@."
      ok0 ok2 put_blocked put_ok ok9;
  Timeline.pp fmt [ dynacut_track; razor_track; chisel_track ];
  Format.fprintf fmt
    "@.max live under DynaCut: %.1f%% of %d static blocks (RAZOR flat %.1f%%, Chisel flat %.1f%%)@."
    (Timeline.max_live_percent dynacut_track)
    total
    (Timeline.max_live_percent razor_track)
    (Timeline.max_live_percent chisel_track);
  Format.fprintf fmt "functional at every phase: %s@."
    (if functional then "yes (GET served; PUT 403 outside window, 201 inside)" else "NO");
  {
    f10_total = total;
    f10_dynacut = dynacut_track;
    f10_razor = razor_track;
    f10_chisel = chisel_track;
    f10_functional = functional;
  }
