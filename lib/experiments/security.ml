(** §4.2 attack-surface analyses:

    - {b PLT-entry removal}: how many *executed* PLT entries are
      init-only and get wiped after initialization (paper: Nginx 43/56,
      Lighttpd 33/57 at full scale), whether the [fork] entry survives,
      and what that means for ret2plt;
    - {b BROP}: the gadget census of the process image before and after
      init-code removal (wipe policy), plus the two BROP preconditions
      the paper names — usable PLT entries (e.g. [write]) and a
      fork-respawn primitive. *)

type plt_row = {
  sp_app : string;
  sp_total : int;
  sp_executed : int;
  sp_removed : int;
  sp_fork_removed : bool;
  sp_removed_names : string list;
}

let plt_for (app : Workload.app) : plt_row =
  let _, init_log, serving_log = Common.init_only_blocks app in
  let exe = Common.app_exe app in
  let report =
    Pltlive.analyse exe
      ~init:(Covgraph.of_log init_log)
      ~serving:(Covgraph.of_log serving_log)
  in
  let removed = Pltlive.removable report in
  {
    sp_app = app.Workload.a_name;
    sp_total = List.length report.Pltlive.pr_entries;
    sp_executed = List.length (Pltlive.executed report);
    sp_removed = List.length removed;
    sp_fork_removed =
      List.exists (fun (e : Pltlive.plt_entry) -> e.Pltlive.pe_name = "fork") removed;
    sp_removed_names = List.map (fun (e : Pltlive.plt_entry) -> e.Pltlive.pe_name) removed;
  }

type brop_row = {
  sb_app : string;
  sb_gadgets_before : int;
  sb_gadgets_after : int;
  sb_fork_plt_gone : bool;
}

(** Gadget census before/after wiping the init-only code in the image. *)
let brop_for (app : Workload.app) : brop_row =
  let init_blocks, init_log, serving_log = Common.init_only_blocks app in
  let c = Workload.boot app in
  Machine.freeze c.Workload.m ~pid:c.Workload.pid;
  let img = Checkpoint.dump c.Workload.m ~pid:c.Workload.pid () in
  let before = Gadget.of_image img in
  (* wipe init-only blocks + init-only PLT stubs in the image *)
  let exe = Common.app_exe app in
  let plt_report =
    Pltlive.analyse exe
      ~init:(Covgraph.of_log init_log)
      ~serving:(Covgraph.of_log serving_log)
  in
  let to_wipe = init_blocks @ Pltlive.removable_blocks plt_report in
  let (_ : Rewriter.patch list) = Rewriter.wipe_blocks img to_wipe in
  let after = Gadget.of_image img in
  {
    sb_app = app.Workload.a_name;
    sb_gadgets_before = before.Gadget.g_gadgets;
    sb_gadgets_after = after.Gadget.g_gadgets;
    sb_fork_plt_gone =
      List.exists
        (fun (e : Pltlive.plt_entry) -> e.Pltlive.pe_name = "fork")
        (Pltlive.removable plt_report);
  }

let run fmt =
  Common.section fmt "Section 4.2: PLT-entry removal and BROP viability";
  let rows = List.map plt_for [ Workload.ngx; Workload.ltpd ] in
  Format.fprintf fmt "%s@."
    (Table.render
       ~headers:[ "app"; "PLT entries"; "executed"; "init-only (removed)"; "fork removed" ]
       (List.map
          (fun r ->
            [
              r.sp_app;
              string_of_int r.sp_total;
              string_of_int r.sp_executed;
              string_of_int r.sp_removed;
              (if r.sp_fork_removed then "yes" else "no");
            ])
          rows));
  List.iter
    (fun r ->
      Format.fprintf fmt "  %s removed PLT entries: %s@." r.sp_app
        (String.concat ", " r.sp_removed_names))
    rows;
  Format.fprintf fmt "@.BROP gadget census (before/after init-code wipe):@.";
  let brops = List.map brop_for [ Workload.ngx; Workload.ltpd ] in
  Format.fprintf fmt "%s@."
    (Table.render
       ~headers:[ "app"; "gadgets before"; "gadgets after"; "reduction"; "fork PLT gone" ]
       (List.map
          (fun b ->
            [
              b.sb_app;
              string_of_int b.sb_gadgets_before;
              string_of_int b.sb_gadgets_after;
              Printf.sprintf "%.1f%%"
                (100.
                *. float_of_int (b.sb_gadgets_before - b.sb_gadgets_after)
                /. float_of_int (max 1 b.sb_gadgets_before));
              (if b.sb_fork_plt_gone then "yes" else "no");
            ])
          brops));
  Format.fprintf fmt
    "@.BROP needs (1) a respawning worker — blocked when the fork PLT entry is@.\
     wiped after the worker is created — and (2) an output PLT entry like@.\
     write() to leak memory; both preconditions degrade with the wipe above.@.";
  (rows, brops)
