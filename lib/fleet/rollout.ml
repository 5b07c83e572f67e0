(** Rolling wave-by-wave rollout of one cut across a worker fleet
    (DESIGN.md §6a).

    Workers are chunked into waves. Each wave cuts its first member as a
    canary through {!Supervisor.guarded_cut} (the per-wave SLO gate:
    observe trap deltas over [canary_windows] windows of live traffic,
    revert on breach), then applies plain transactional cuts to the
    remaining members; the balancer skips each one while the cut has it
    frozen. A canary rejection or a member rollback halts the rollout:
    the current wave is reverted to byte-original and earlier waves
    {e stay cut}. Each member's cut is one transaction on its own
    journal, so after a controller death every worker recovers alone
    ({!Dynacut.recover}) to applied XOR unchanged. *)

(** One fleet member: its own single-process tree, its own Dynacut
    session (hence its own crash-consistency journal + tmpfs images),
    and the undo journals of whatever cut it currently carries. *)
type worker = {
  w_pid : int;
  w_session : Dynacut.session;
  mutable w_journals : Rewriter.journal list;  (** non-empty = cut live *)
  mutable w_wave : int;  (** wave index (1-based); -1 before any rollout *)
  mutable w_state : string;
      (** last transition: serving | cut | reverted *)
  mutable w_since : int64;  (** virtual clock of the last transition *)
}

let make_worker (machine : Machine.t) ~(pid : int) : worker =
  {
    w_pid = pid;
    w_session = Dynacut.create machine ~root_pid:pid;
    w_journals = [];
    w_wave = -1;
    w_state = "serving";
    w_since = machine.Machine.clock;
  }

let cut_live (w : worker) = w.w_journals <> []

(** Record a worker state transition in the event ring and the per-pid
    gauges `dynacut top` renders. *)
let transition (w : worker) (state : string) : unit =
  let m = w.w_session.Dynacut.machine in
  w.w_state <- state;
  w.w_since <- m.Machine.clock;
  Obs.event ~kind:"fleet"
    (Printf.sprintf "worker pid=%d -> %s" w.w_pid state);
  Obs.set_gauge
    (Obs.gauge ~labels:[ ("pid", string_of_int w.w_pid) ] "fleet.worker.wave")
    (float_of_int w.w_wave)

(** Revert a worker's live cut ({!Dynacut.revert}, as the canary gate
    does); no-op when no cut is live. *)
let revert_worker (w : worker) : unit =
  if cut_live w then begin
    Dynacut.revert w.w_session ~pid:w.w_pid w.w_journals;
    w.w_journals <- [];
    transition w "reverted"
  end

(* ------------------------------------------------------------------ *)

type config = {
  r_waves : int;  (** number of waves the fleet is chunked into *)
  r_sup : Supervisor.config;  (** per-wave canary SLO parameters *)
}

let default_config = { r_waves = 3; r_sup = Supervisor.default_config }

(** Chunk [pids] into [waves] contiguous groups, earlier waves no
    smaller than later ones (the canary wave carries the extra). *)
let plan ~(pids : int list) ~(waves : int) : int list list =
  let n = List.length pids in
  let waves = max 1 (min waves (max n 1)) in
  let base = n / waves and extra = n mod waves in
  let rec go i rest =
    if i >= waves then []
    else
      let k = base + if i < extra then 1 else 0 in
      let rec take k = function
        | x :: xs when k > 0 ->
            let h, t = take (k - 1) xs in
            (x :: h, t)
        | xs -> ([], xs)
      in
      let wave, rest = take k rest in
      wave :: go (i + 1) rest
  in
  List.filter (fun w -> w <> []) (go 0 pids)

type wave_report = {
  wr_wave : int;  (** 1-based *)
  wr_pids : int list;
  wr_pause_cycles : int64;
      (** virtual cycles the wave took start-to-done — the rollout
          "pause time" the bench tracks *)
}

type outcome =
  | Completed of { waves : int }
  | Halted of { wave : int; reason : string }

let pp_outcome ppf = function
  | Completed { waves } -> Format.fprintf ppf "completed(waves=%d)" waves
  | Halted { wave; reason } ->
      Format.fprintf ppf "halted(wave=%d,%s)" wave reason

(** Run the rollout. [drive] advances the machine and its traffic — it
    is handed to the canary's SLO observation windows, exactly like
    {!Supervisor.guarded_cut}. *)
let run ~(workers : worker list) ~(config : config)
    ~(blocks : Covgraph.block list) ~(policy : Dynacut.policy)
    ~(drive : unit -> unit) () : outcome * wave_report list =
  let machine =
    match workers with
    | w :: _ -> w.w_session.Dynacut.machine
    | [] -> invalid_arg "Rollout.run: empty fleet"
  in
  let waves_plan =
    plan ~pids:(List.map (fun w -> w.w_pid) workers) ~waves:config.r_waves
  in
  let reports = ref [] in
  let halted = ref None in
  let halt wave reason =
    Obs.event ~kind:"fleet"
      (Printf.sprintf "rollout halted wave=%d (%s)" wave reason);
    halted := Some (wave, reason)
  in
  List.iteri
    (fun i wave_pids ->
      if !halted = None then begin
        let wave = i + 1 in
        Obs.set_gauge (Obs.gauge "fleet.wave") (float_of_int wave);
        Obs.event ~kind:"fleet"
          (Printf.sprintf "wave %d begin pids=[%s]" wave
             (String.concat ";" (List.map string_of_int wave_pids)));
        let start = machine.Machine.clock in
        let wave_workers =
          List.filter (fun w -> List.mem w.w_pid wave_pids) workers
        in
        match wave_workers with
        | [] -> ()
        | canary :: rest -> (
            List.iter (fun w -> w.w_wave <- wave) wave_workers;
            (* the wave's first member is the canary: cut under live
               traffic so the SLO observation means something *)
            let sup =
              Supervisor.create canary.w_session ~config:config.r_sup ~blocks
                ~policy
            in
            match Supervisor.guarded_cut sup ~drive () with
            | Supervisor.R_canary_rejected ->
                transition canary "reverted";
                halt wave "canary-rejected"
            | Supervisor.R_promotion_failed ->
                transition canary "reverted";
                halt wave "promotion-failed"
            | Supervisor.R_rolled_back stage ->
                halt wave ("canary-cut rolled back at " ^ stage)
            | Supervisor.R_promoted -> (
                canary.w_journals <- Supervisor.journals sup;
                transition canary "cut";
                (* remaining members: plain transactional cuts. A cut
                   is synchronous, so no dispatch happens inside it *)
                let failed = ref None in
                List.iter
                  (fun w ->
                    if !failed = None then
                      match Dynacut.try_cut w.w_session ~blocks ~policy () with
                      | { Dynacut.r_outcome = `Applied; r_journals; _ } ->
                          w.w_journals <- r_journals;
                          transition w "cut"
                      | { Dynacut.r_outcome = `Rolled_back rb; _ } ->
                          failed := Some rb.Dynacut.rb_stage)
                  rest;
                match !failed with
                | None ->
                    reports :=
                      {
                        wr_wave = wave;
                        wr_pids = wave_pids;
                        wr_pause_cycles = Int64.sub machine.Machine.clock start;
                      }
                      :: !reports
                | Some stage ->
                    (* uniform wave tail: revert this wave's cut members
                       (earlier waves stay cut) *)
                    List.iter revert_worker wave_workers;
                    halt wave ("member cut rolled back at " ^ stage)))
      end)
    waves_plan;
  match !halted with
  | None ->
      let waves = List.length waves_plan in
      Obs.event ~kind:"fleet" (Printf.sprintf "rollout done waves=%d" waves);
      (Completed { waves }, List.rev !reports)
  | Some (wave, reason) -> (Halted { wave; reason }, List.rev !reports)
