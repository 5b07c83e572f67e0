(** Figure 7: DynaCut's overhead for removing initialization code from
    process images — checkpoint/restore time vs code-update time per
    application, with the .text and CRIU-image sizes the paper tabulates
    under the chart.

    The removal uses the aggressive wipe policy (init code is never
    needed again, so there is nothing to redirect to), and each run ends
    with a *functional validation*: servers must still answer the full
    request mix, SPEC kernels must still finish with the same checksum
    as an untouched run. *)

type row = {
  f7_app : string;
  f7_code_size : int;  (** .text bytes *)
  f7_image_size : int;  (** CRIU image bytes (all processes) *)
  f7_ckpt_restore : float;  (** checkpoint + restore seconds *)
  f7_code_update : float;  (** image rewriting seconds *)
  f7_blocks_removed : int;
  f7_validated : bool;
}

let apps : Workload.app list =
  [
    Workload.ltpd;
    Workload.ngx;
    Workload.spec_app Spec.perlbench;
    Workload.spec_app Spec.mcf;
    Workload.spec_app Spec.omnetpp;
    Workload.spec_app Spec.xalancbmk;
    Workload.spec_app Spec.x264;
    Workload.spec_app Spec.leela;
  ]

let spec_console_result (c : Workload.ctx) =
  (* the "<name>: result N" line *)
  let s = Workload.console c in
  match String.index_opt s ':' with
  | _ ->
      let lines = String.split_on_char '\n' s in
      List.find_opt
        (fun l ->
          let n = String.length l in
          let has_result =
            let sub = "result" in
            let sl = String.length sub in
            let rec go i = i + sl <= n && (String.sub l i sl = sub || go (i + 1)) in
            go 0
          in
          has_result)
        lines
      |> Option.value ~default:""

let vanilla_spec_result (k : Spec.kernel) =
  let c = Workload.boot (Workload.spec_app k) in
  let (_ : Proc.state) = Workload.run_to_exit c in
  spec_console_result c

let measure (app : Workload.app) : row =
  let init_blocks, _, _ = Common.init_only_blocks app in
  let c = Workload.boot app in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let _journals, t =
    Dynacut.cut session ~blocks:init_blocks
      ~policy:{ Dynacut.method_ = `Wipe; on_trap = `Kill }
  in
  let image_size =
    List.fold_left
      (fun acc pid ->
        acc
        + Images.image_size
            (Validate.decode_sealed
               (Option.get
                  (Vfs.find c.Workload.m.Machine.fs (Dynacut.image_path session pid)))))
      0 (Dynacut.tree_pids session)
  in
  (* functional validation on the rewritten process *)
  let validated =
    if app.Workload.a_port <> None then (
      let reqs =
        if app.Workload.a_name = "rkv" then Workload.kv_wanted else Workload.web_wanted
      in
      List.for_all
        (fun r ->
          let resp = Workload.rpc c r in
          String.length resp > 0
          && Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid))
        reqs)
    else begin
      let k = Spec.find app.Workload.a_name in
      match Workload.run_to_exit c with
      | Proc.Exited 0 -> spec_console_result c = vanilla_spec_result k
      | _ -> false
    end
  in
  let exe = Option.get (Vfs.find_self c.Workload.m.Machine.fs app.Workload.a_name) in
  {
    f7_app = app.Workload.a_name;
    f7_code_size = Self.text_size exe;
    f7_image_size = image_size;
    f7_ckpt_restore = t.Dynacut.t_checkpoint +. t.Dynacut.t_restore;
    f7_code_update = t.Dynacut.t_disable +. t.Dynacut.t_handler;
    f7_blocks_removed = List.length init_blocks;
    f7_validated = validated;
  }

let run fmt =
  Common.section fmt "Figure 7: overhead of initialization-code removal";
  let rows = List.map measure apps in
  Format.fprintf fmt "%s@."
    (Table.render
       ~headers:
         [
           "app"; "code size"; "image size"; "ckpt+restore(s)"; "code update(s)";
           "init BBs removed"; "still correct";
         ]
       (List.map
          (fun r ->
            [
              r.f7_app;
              Table.human_bytes r.f7_code_size;
              Table.human_bytes r.f7_image_size;
              Printf.sprintf "%.4f" r.f7_ckpt_restore;
              Printf.sprintf "%.4f" r.f7_code_update;
              string_of_int r.f7_blocks_removed;
              (if r.f7_validated then "yes" else "NO");
            ])
          rows));
  Format.fprintf fmt "@.%s@."
    (Table.stacked_bars ~unit:"s" ~segments:[ "checkpoint/restore"; "code update" ]
       (List.map (fun r -> (r.f7_app, [ r.f7_ckpt_restore; r.f7_code_update ])) rows));
  rows
