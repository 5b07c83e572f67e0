(** The adaptive fleet orchestrator (DESIGN.md §6a): N single-process
    workers behind the kernel's round-robin listener fan-out, kept
    customized continuously by composing every existing subsystem —
    {!Balancer} (dispatch control plane), {!Rollout} (wave-by-wave cuts
    with a {!Supervisor.guarded_cut} canary per wave), {!Drift} (live
    windowed coverage + trap-rate closed loop), one {!Dynacut.session}
    (and hence one crash-consistency journal) per worker, and a fleet
    {!Journal.Manifest} that makes a crash mid-rollout recoverable back
    to a uniform fleet. *)

let manifest_dir = "/tmpfs/fleet"

(** Background memory-integrity scrubbing (DESIGN.md §6d): one
    {!Integrity} scrubber per worker, rotated one worker per interval. *)
type scrub_config = {
  sc_interval : int;  (** virtual cycles between scrub slices *)
}

let default_scrub_config = { sc_interval = 20_000 }

type scrub_state = {
  ss_config : scrub_config;
  ss_integrity : (int * Integrity.t) list;  (** per worker pid *)
  ss_history : (int * int64, int) Hashtbl.t;
      (** (pid, page) -> completed repairs, for re-divergence escalation *)
  mutable ss_due : int64;
  mutable ss_rotor : int;  (** which worker the next slice audits *)
}

type t = {
  machine : Machine.t;
  port : int;
  balancer : Balancer.t;
  workers : Rollout.worker list;
  manifest : Journal.Manifest.t;
  blocks : Covgraph.block list;
  policy : Dynacut.policy;
  mutable drift : Drift.t option;
  mutable outcome : Rollout.outcome option;
  mutable scrub : scrub_state option;
}

exception Fleet_error of string

let worker_states = [ "serving"; "cut"; "reverted"; "reenabled"; "recut" ]

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
let create ?balancer:bcfg (machine : Machine.t) ~(port : int)
    ~(pids : int list) ~(blocks : Covgraph.block list)
    ~(policy : Dynacut.policy) : t =
  if pids = [] then raise (Fleet_error "fleet needs at least one worker");
  let workers = List.map (fun pid -> Rollout.make_worker machine ~pid) pids in
  let balancer =
    Balancer.create ?config:bcfg machine ~port
      ~sessions:(List.map (fun w -> w.Rollout.w_session) workers)
  in
  (* every worker must own a listener on [port]; its breaker mirror
     starts at Closed, so the dumps list every worker's breaker *)
  List.iter
    (fun pid ->
      ignore (Balancer.listener balancer ~pid);
      ignore (Supervisor.breaker_gauge ~root_pid:pid))
    pids;
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
      drift = None;
      outcome = None;
      scrub = None;
    }
  in
  refresh_gauges t;
  t

(** Boot [n] workers of [app] on one machine and assemble the fleet;
    see fleet.mli on why [blocks] is an argument. *)
let boot ?seed ?traced ?balancer ~n ~blocks ~policy (app : Workload.app) :
    t * Workload.ctx list =
  let port =
    match app.Workload.a_port with
    | Some p -> p
    | None -> raise (Fleet_error (app.Workload.a_name ^ " is not a server"))
  in
  let ctxs = Workload.spawn_fleet ?seed ?traced ~n app in
  Workload.wait_fleet_ready ctxs;
  let pids = List.map (fun c -> c.Workload.pid) ctxs in
  (create ?balancer (List.hd ctxs).Workload.m ~port ~pids ~blocks ~policy, ctxs)

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
let request ?max_cycles ?deadline_cycles t text =
  Balancer.request ?max_cycles ?deadline_cycles t.balancer text

(** Saturate the fleet open-loop (see {!Loadgen.run}). *)
let overload t (cfg : Loadgen.config) ~(text : string) : Loadgen.stats =
  Loadgen.run t.balancer cfg ~text

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

(** Start the drift monitor on [collector] (which must trace every
    worker — [boot ~traced:true] arranges that). *)
let start_drift ?(config = Drift.default_config) t
    ~(collector : Collector.t) () : unit =
  t.drift <-
    Some
      (Drift.create ~collector ~workers:t.workers ~candidate:t.blocks
         ~policy:t.policy config)

(** One control-loop step: drift window sampling and its re-enable /
    re-cut decisions. Call between traffic slices. *)
let tick t : Drift.action option =
  match t.drift with
  | None -> None
  | Some d ->
      let a = Drift.tick d in
      if a <> None then refresh_gauges t;
      a

let drift_monitor t =
  match t.drift with
  | Some d -> d
  | None -> raise (Fleet_error "drift monitor not started")

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
        Journal.Manifest.append manifest
          (Journal.Manifest.Rollout_halted { wave });
        Journal.Manifest.compact manifest;
        (wave, unwound)
  in
  let r = { fr_workers; fr_unwound; fr_wave; fr_torn } in
  Obs.event ~kind:"fleet" (Format.asprintf "%a" pp_recovery r);
  r

(* ------------------------------------------------------------------ *)
(* Memory-integrity scrubbing (DESIGN.md §6d)                          *)

type scrub_report = {
  sr_pid : int;
  sr_findings : Integrity.finding list;
  sr_repaired : Integrity.finding list;
  sr_respawned : bool;
  sr_refused : string option;
      (** an injected fault refused part of the slice; retried next turn *)
}

let start_scrub ?(config = default_scrub_config) (t : t) : unit =
  t.scrub <-
    Some
      {
        ss_config = config;
        ss_integrity =
          List.map
            (fun w -> (w.Rollout.w_pid, Integrity.create w.Rollout.w_session))
            t.workers;
        ss_history = Hashtbl.create 16;
        ss_due =
          Int64.add t.machine.Machine.clock (Int64.of_int config.sc_interval);
        ss_rotor = 0;
      }

let scrub_state_exn t =
  match t.scrub with
  | Some st -> st
  | None -> raise (Fleet_error "scrubber not started")

let integrity t ~pid =
  match List.assoc_opt pid (scrub_state_exn t).ss_integrity with
  | Some i -> i
  | None -> raise (Fleet_error (Printf.sprintf "no scrubber for pid %d" pid))

(* Full respawn from the newest sealed image — working if the worker was
   ever cut (the cut survives), pristine otherwise (then the session
   bookkeeping must be forgotten). False when no image exists at all;
   the caller keeps the worker quarantined. *)
let escalate t (st : scrub_state) (integ : Integrity.t) ~(pid : int) : bool =
  let sess = (worker t ~pid).Rollout.w_session in
  let working = Dynacut.image_path sess pid in
  let pristine = Dynacut.pristine_path sess pid in
  let path, from_pristine =
    if Vfs.exists t.machine.Machine.fs working then (working, false)
    else (pristine, true)
  in
  if not (Vfs.exists t.machine.Machine.fs path) then false
  else begin
    (match Machine.proc t.machine pid with
    | Some p when Proc.is_live p -> Machine.reap t.machine ~pid
    | _ -> ());
    ignore (Dynacut.journaled_respawn sess ~pid ~path);
    if from_pristine then Dynacut.forget_pid sess ~pid;
    Hashtbl.iter
      (fun ((p, _) as k) _ -> if p = pid then Hashtbl.remove st.ss_history k)
      (Hashtbl.copy st.ss_history);
    Integrity.rebaseline integ ~pid;
    Obs.incr (Obs.counter "fleet.scrub.respawns");
    Obs.event ~kind:"fleet"
      (Printf.sprintf "scrub escalated: pid=%d respawned from %s" pid path);
    true
  end

(* The graduated response to a slice's findings: quarantine the worker
   (drain dispatch away so no request is served off a corrupted page),
   page-repair each finding, escalate to a full respawn when a repair
   fails, does not stick, or the same page diverges again. *)
let heal t (st : scrub_state) ~(pid : int) (integ : Integrity.t)
    (findings : Integrity.finding list) : scrub_report =
  if findings = [] then
    {
      sr_pid = pid;
      sr_findings = [];
      sr_repaired = [];
      sr_respawned = false;
      sr_refused = None;
    }
  else begin
    Balancer.drain t.balancer ~pid;
    Obs.incr (Obs.counter "fleet.scrub.quarantines");
    let repaired = ref [] and must_respawn = ref false in
    List.iter
      (fun (f : Integrity.finding) ->
        if not !must_respawn then
          let key = (pid, f.Integrity.f_vaddr) in
          let seen =
            Option.value ~default:0 (Hashtbl.find_opt st.ss_history key)
          in
          if seen >= 1 then
            (* the page was already healed and diverged again — the
               damage is not a one-off, stop trusting page repair *)
            must_respawn := true
          else
            match Integrity.repair integ f with
            | Integrity.Repaired when Integrity.recheck integ f ->
                Hashtbl.replace st.ss_history key (seen + 1);
                repaired := f :: !repaired
            | Integrity.Repaired | Integrity.Repair_failed _ ->
                must_respawn := true)
      findings;
    let respawned = if !must_respawn then escalate t st integ ~pid else false in
    if respawned || not !must_respawn then Balancer.undrain t.balancer ~pid;
    {
      sr_pid = pid;
      sr_findings = findings;
      sr_repaired = List.rev !repaired;
      sr_respawned = respawned;
      sr_refused = None;
    }
  end

(** One background scrub step: when the interval elapsed, audit a
    8-page slice of the next worker in rotation and heal
    whatever diverged. Injected faults from the pipeline's failure
    domain refuse the slice (the worker is un-quarantined, the slice
    retried on its next rotation turn); a [Kill] propagates — the
    controller itself died. Call between traffic slices, like {!tick}. *)
let scrub_tick t : scrub_report option =
  match t.scrub with
  | None -> None
  | Some st ->
      if Int64.compare t.machine.Machine.clock st.ss_due < 0 then None
      else begin
        st.ss_due <-
          Int64.add t.machine.Machine.clock
            (Int64.of_int st.ss_config.sc_interval);
        match st.ss_integrity with
        | [] -> None
        | _ :: _ ->
            let n = List.length st.ss_integrity in
            let idx = st.ss_rotor mod n in
            st.ss_rotor <- (idx + 1) mod n;
            let pid, integ = List.nth st.ss_integrity idx in
            let refused site =
              Obs.incr (Obs.counter "fleet.scrub.refused");
              (try Balancer.undrain t.balancer ~pid
               with Balancer.Balancer_error _ -> ());
              Some
                {
                  sr_pid = pid;
                  sr_findings = [];
                  sr_repaired = [];
                  sr_respawned = false;
                  sr_refused = Some site;
                }
            in
            (match
               heal t st ~pid integ
                 (Integrity.scrub integ ~pids:[ pid ]
                    ~quantum:8 ())
             with
            | r -> Some r
            | exception Fault.Injected { site; _ } -> refused site
            | exception Fault.Storage_error { site; _ } -> refused site
            | exception Validate.Validate_error msg -> refused msg
            | exception Restore.Restore_error msg -> refused msg
            | exception Dynacut.Dynacut_error msg -> refused msg)
      end

(** Forced full audit of one worker — the CLI's [dynacut scrub] and the
    chaos probes. Starts the scrubber if needed; refusals propagate. *)
let scrub_now t ~pid : scrub_report =
  if t.scrub = None then start_scrub t;
  let st = scrub_state_exn t in
  let integ = integrity t ~pid in
  heal t st ~pid integ (Integrity.scrub_full integ ~pids:[ pid ] ())
