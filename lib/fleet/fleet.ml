(** The fleet orchestrator (DESIGN.md §6a): N single-process workers
    behind the kernel's round-robin listener fan-out, customized by
    composing existing subsystems — {!Balancer} (dispatch control
    plane), {!Rollout} (wave-by-wave cuts with a
    {!Supervisor.guarded_cut} canary per wave), one {!Dynacut.session}
    (and hence one crash-consistency journal) per worker, and a fleet
    {!Journal.Manifest} that makes a crash mid-rollout recoverable back
    to a uniform fleet. *)

let manifest_dir = "/tmpfs/fleet"

type t = {
  machine : Machine.t;
  port : int;
  balancer : Balancer.t;
  workers : Rollout.worker list;
  manifest : Journal.Manifest.t;
  blocks : Covgraph.block list;
  policy : Dynacut.policy;
  mutable outcome : Rollout.outcome option;
}

exception Fleet_error of string

let worker_states = [ "serving"; "cut"; "reverted" ]

(** Refresh the [fleet.workers{state=…}] gauge family from the live
    worker records. *)
let refresh_gauges t =
  List.iter
    (fun state ->
      let n =
        List.length
          (List.filter (fun w -> w.Rollout.w_state = state) t.workers)
      in
      Obs.set_gauge
        (Obs.gauge ~labels:[ ("state", state) ] "fleet.workers")
        (float_of_int n))
    worker_states

(** Assemble a fleet over already-booted workers: every pid must be the
    root of its own tree and own a listener on [port]. *)
let create (machine : Machine.t) ~(port : int)
    ~(pids : int list) ~(blocks : Covgraph.block list)
    ~(policy : Dynacut.policy) : t =
  if pids = [] then raise (Fleet_error "fleet needs at least one worker");
  let workers = List.map (fun pid -> Rollout.make_worker machine ~pid) pids in
  let balancer = Balancer.create machine ~port ~workers:pids in
  (* every worker must own a listener on [port] *)
  List.iter (fun pid -> ignore (Balancer.listener balancer ~pid)) pids;
  let manifest = Journal.Manifest.attach machine.Machine.fs ~dir:manifest_dir in
  let t =
    {
      machine;
      port;
      balancer;
      workers;
      manifest;
      blocks;
      policy;
      outcome = None;
    }
  in
  refresh_gauges t;
  t

(** Boot [n] workers of [app] on one machine and assemble the fleet;
    see fleet.mli on why [blocks] is an argument. *)
let boot ?seed ~n ~blocks ~policy (app : Workload.app) : t =
  let port =
    match app.Workload.a_port with
    | Some p -> p
    | None -> raise (Fleet_error (app.Workload.a_name ^ " is not a server"))
  in
  let ctxs = Workload.spawn_fleet ?seed ~n app in
  Workload.wait_fleet_ready ctxs;
  let pids = List.map (fun c -> c.Workload.pid) ctxs in
  create (List.hd ctxs).Workload.m ~port ~pids ~blocks ~policy

let machine t = t.machine
let pids t = List.map (fun w -> w.Rollout.w_pid) t.workers
let workers t = t.workers
let balancer t = t.balancer
let manifest t = t.manifest

let worker t ~pid =
  match List.find_opt (fun w -> w.Rollout.w_pid = pid) t.workers with
  | Some w -> w
  | None -> raise (Fleet_error (Printf.sprintf "no worker with pid %d" pid))

(** One closed-loop request through the balancer. *)
let request ?max_cycles t text = Balancer.request ?max_cycles t.balancer text

(** Rolling rollout of the fleet's cut (see {!Rollout.run}). A completed
    rollout compacts the manifest down to a checkpoint record, so the
    append-only file stays bounded across repeated rollouts. *)
let rollout ?(config = Rollout.default_config) t ~(drive : unit -> unit) () :
    Rollout.outcome * Rollout.wave_report list =
  let outcome, reports =
    Rollout.run ~manifest:t.manifest ~balancer:t.balancer ~workers:t.workers
      ~config ~blocks:t.blocks ~policy:t.policy ~drive ()
  in
  (match outcome with
  | Rollout.Completed _ -> Journal.Manifest.compact t.manifest
  | Rollout.Halted _ -> ());
  t.outcome <- Some outcome;
  refresh_gauges t;
  (outcome, reports)

(* ------------------------------------------------------------------ *)
(* Fleet-wide crash recovery                                           *)

type recovery = {
  fr_workers : (int * Dynacut.recovery_action) list;
      (** per-worker [Dynacut.recover] results, in pid order *)
  fr_unwound : int list;
      (** open-wave members whose committed cut was reverted back to
          pristine so the halted wave is uniform *)
  fr_wave : int;  (** the wave the crash interrupted; 0 when none *)
  fr_torn : bool;  (** the manifest's tail was torn *)
}

let pp_recovery ppf r =
  Format.fprintf ppf "fleet-recovery wave=%d unwound=[%s] workers=[%s]"
    r.fr_wave
    (String.concat ";" (List.map string_of_int r.fr_unwound))
    (String.concat ";"
       (List.map
          (fun (pid, a) ->
            Printf.sprintf "%d:%s" pid
              (match a with
              | `Nothing -> "nothing"
              | `Thawed -> "thawed"
              | `Rolled_back -> "rolled-back"
              | `Completed -> "completed"))
          r.fr_workers))

(** Recover a fleet after a controller death: first each worker's own
    journal replays ({!Dynacut.recover} — per-pid "applied XOR
    unchanged"), then the fleet manifest. If the manifest shows a wave
    that began but neither finished nor halted, the crash interrupted it
    mid-rollout: members whose cut already committed (their [Worker_cut]
    is in the manifest and their own journal is quiescent) are reverted
    from their pristine images, so the fleet converges to the same state
    a live controller's halt would have produced — completed waves cut,
    the interrupted wave original. Records [Rollout_halted], making a
    second recovery pass a no-op. *)
let recover (machine : Machine.t) ~(pids : int list) : recovery =
  let fr_workers =
    List.map (fun pid -> (pid, (Dynacut.recover machine ~root_pid:pid).Dynacut.rec_action)) pids
  in
  let manifest = Journal.Manifest.attach machine.Machine.fs ~dir:manifest_dir in
  let entries, fr_torn = Journal.Manifest.read manifest in
  let s = Journal.Manifest.summarize entries in
  let fr_wave, fr_unwound =
    match s.Journal.Manifest.m_open with
    | None -> (0, [])
    | Some (wave, _planned, cut_pids) ->
        let unwound =
          List.filter_map
            (fun pid ->
              if not (List.mem pid pids) then None
              else begin
                let sess = Dynacut.create machine ~root_pid:pid in
                let pristine = Dynacut.pristine_path sess pid in
                if not (Vfs.exists machine.Machine.fs pristine) then None
                else begin
                  (match Machine.proc machine pid with
                  | Some p when Proc.is_live p -> Machine.reap machine ~pid
                  | _ -> ());
                  ignore (Restore.respawn machine ~path:pristine);
                  Obs.event ~kind:"fleet"
                    (Printf.sprintf "recovery unwound pid=%d of wave %d" pid
                       wave);
                  Some pid
                end
              end)
            cut_pids
        in
        (* [append] drops a torn tail first, so the halt is read and
           the next pass does not unwind the wave again *)
        Journal.Manifest.append manifest
          (Journal.Manifest.Rollout_halted { wave });
        Journal.Manifest.compact manifest;
        (wave, unwound)
  in
  let r = { fr_workers; fr_unwound; fr_wave; fr_torn } in
  Obs.event ~kind:"fleet" (Format.asprintf "%a" pp_recovery r);
  r
