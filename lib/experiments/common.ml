(** Shared plumbing for the paper-reproduction experiments. *)

let section fmt title =
  Format.fprintf fmt "@.=== %s ===@.@." title

(** Coverage of one traced server session handling [requests], split by
    the init nudge. *)
let server_phases (app : Workload.app) ~(requests : string list) :
    Drcov.log * Drcov.log =
  match Workload.trace_requests ~app ~requests ~nudge_at_ready:true () with
  | Some init_log, serving -> (init_log, serving)
  | None, _ -> assert false

(** Merged (init + serving) coverage of a server session. *)
let server_total_coverage (app : Workload.app) ~(requests : string list) :
    Covgraph.t =
  let init_log, serving = server_phases app ~requests in
  Covgraph.of_logs [ init_log; serving ]

(* a forward declaration would be circular; the provider lives below but
   is needed by the block-identification helpers, so define it first *)

(** Cached CFG provider over a machine filesystem: module names are fs
    paths of SELF binaries, so [cfg_of] resolves any traced module
    (the app binary and libc.so alike). *)
let cfg_provider (fs : Vfs.t) : string -> Cfg.t option =
  let cache : (string, Cfg.t option) Hashtbl.t = Hashtbl.create 8 in
  fun name ->
    match Hashtbl.find_opt cache name with
    | Some v -> v
    | None ->
        let v = Option.map Cfg.of_self (Vfs.find_self fs name) in
        Hashtbl.add cache name v;
        v

(** A provider over [app]'s installed files: the very binaries any
    machine the app is spawned on holds. *)
let cfg_of_app (app : Workload.app) : string -> Cfg.t option =
  let fs = Vfs.create () in
  Workload.install fs app;
  cfg_provider fs

(** Feature blocks for the web servers' PUT/DELETE features. *)
let web_feature_blocks (app : Workload.app) : Covgraph.block list =
  let cfg_of = cfg_of_app app in
  let _, wanted = Workload.trace_requests ~app ~requests:Workload.web_wanted ~nudge_at_ready:true () in
  let _, undesired =
    Workload.trace_requests ~app ~requests:Workload.web_undesired ~nudge_at_ready:true ()
  in
  (Tracediff.feature_blocks ~cfg_of ~wanted:[ wanted ] ~undesired:[ undesired ] ())
    .Tracediff.undesired

(** Feature blocks for one rkv command (traced against the wanted mix). *)
let rkv_feature_blocks (requests : string list) : Covgraph.block list =
  let cfg_of = cfg_of_app Workload.rkv in
  let _, wanted =
    Workload.trace_requests ~app:Workload.rkv ~requests:Workload.kv_wanted
      ~nudge_at_ready:true ()
  in
  let _, undesired =
    Workload.trace_requests ~app:Workload.rkv ~requests ~nudge_at_ready:true ()
  in
  (Tracediff.feature_blocks ~cfg_of ~wanted:[ wanted ] ~undesired:[ undesired ] ())
    .Tracediff.undesired

(** Init-only blocks of an app (server: banner nudge + request mix;
    SPEC: banner nudge + run to completion). *)
let init_only_blocks (app : Workload.app) : Covgraph.block list * Drcov.log * Drcov.log =
  let cfg_of = cfg_of_app app in
  let init_log, serving =
    if app.Workload.a_port <> None then
      server_phases app ~requests:(Workload.web_wanted @ Workload.kv_wanted)
    else
      let k = Spec.find app.Workload.a_name in
      Workload.trace_spec k
  in
  let report = Tracediff.init_blocks ~cfg_of ~init:init_log ~serving:serving () in
  (report.Tracediff.undesired, init_log, serving)

(** The main executable of an app, as linked. *)
let app_exe (app : Workload.app) : Self.t = Self.of_bytes (Workload.binary app)

let text_size (exe : Self.t) = Self.text_size exe

(** Sum of sizes of the app's own (non-library) blocks in a list. *)
let own_code_bytes (app_name : string) (blocks : Covgraph.block list) =
  List.fold_left
    (fun acc (b : Covgraph.block) ->
      if b.Covgraph.b_module = app_name then acc + b.Covgraph.b_size else acc)
    0 blocks

let own_blocks (app_name : string) (blocks : Covgraph.block list) =
  List.filter (fun (b : Covgraph.block) -> b.Covgraph.b_module = app_name) blocks

(** Executed blocks (deduplicated) belonging to the app binary itself. *)
let executed_own (app_name : string) (logs : Drcov.log list) =
  Covgraph.of_logs logs |> Covgraph.blocks
  |> List.filter (fun (b : Covgraph.block) -> b.Covgraph.b_module = app_name)
