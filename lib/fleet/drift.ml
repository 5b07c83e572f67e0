(** The coverage-drift monitor — the paper's bidirectional customization
    closed-loop (DESIGN.md §6a).

    The monitor watches two complementary signals over fixed virtual-
    clock windows of live traffic:

    - {b re-enable (trap rate)}: cut blocks can never appear in coverage
      — traffic that legitimately wants them lands in the injected
      SIGTRAP handler instead. When the fleet-wide handler-hit delta in
      one window reaches [d_trap_threshold], the workload has drifted
      onto the blocked feature: the monitor re-enables the cut on every
      worker in one fleet-wide action (fault site [fleet.reenable]).
    - {b re-cut (cold coverage)}: while the feature is enabled its
      blocks {e do} show up in the collector's windowed coverage. When
      the {!Tracediff} of the sliding window against the candidate set
      shows every candidate block cold for [d_hysteresis] consecutive
      windows, the feature went unused again: the monitor re-cuts the
      whole fleet (fault site [fleet.recut]).

    The hysteresis is deliberately asymmetric — re-enabling is urgent
    (traffic is being refused), re-cutting is not (an enabled feature
    only costs attack surface), so one hot window re-enables but only a
    sustained cold streak re-cuts. *)

type config = {
  d_period : int64;  (** sampling window, virtual cycles *)
  d_trap_threshold : int;  (** fleet handler hits per window to re-enable *)
  d_hysteresis : int;  (** consecutive all-cold windows before re-cut *)
}

let default_config =
  { d_period = 400_000L; d_trap_threshold = 3; d_hysteresis = 2 }

type action =
  | Reenabled of int  (** workers whose cut was re-enabled *)
  | Recut of int  (** workers re-cut *)

let pp_action ppf = function
  | Reenabled n -> Format.fprintf ppf "reenabled(workers=%d)" n
  | Recut n -> Format.fprintf ppf "recut(workers=%d)" n

type t = {
  cfg : config;
  col : Collector.t;
  workers : Rollout.worker list;
  candidate : Covgraph.block list;  (** the managed feature block set *)
  policy : Dynacut.policy;
  meter : Dynacut.trap_meter;  (** per-worker handler-hit baselines *)
  mutable cold_streak : int;
  mutable reenables : int;
  mutable recuts : int;
}

let reenables t = t.reenables
let recuts t = t.recuts

(** Fleet-wide handler-hit delta since the last read; rebases every
    worker. *)
let trap_delta t : int =
  List.fold_left
    (fun acc (w : Rollout.worker) ->
      acc + Dynacut.trap_delta t.meter w.Rollout.w_session ~pid:w.Rollout.w_pid)
    0 t.workers

let rebaseline t = ignore (trap_delta t)

(** Attach the monitor and start the collector's windowed sampling. The
    collector must already trace every worker ({!Collector.add_root}). *)
let create ~(collector : Collector.t) ~(workers : Rollout.worker list)
    ~(candidate : Covgraph.block list) ~(policy : Dynacut.policy)
    (cfg : config) : t =
  Collector.start_window collector ~period:cfg.d_period;
  let t =
    {
      cfg;
      col = collector;
      workers;
      candidate;
      policy;
      meter = Dynacut.trap_meter ();
      cold_streak = 0;
      reenables = 0;
      recuts = 0;
    }
  in
  rebaseline t;
  t

(** The candidate blocks absent from [window] — the Tracediff of the
    live sliding window against the cut's block set. *)
let cold_blocks t (window : Drcov.log) : Covgraph.block list =
  (* express the candidate set as a synthetic one-module-per-name log so
     feature_blocks can diff it against the real window coverage *)
  let names =
    List.sort_uniq compare
      (List.map (fun (b : Covgraph.block) -> b.Covgraph.b_module) t.candidate)
  in
  let modules =
    List.mapi
      (fun i name ->
        { Drcov.mi_id = i; mi_name = name; mi_base = 0L; mi_end = 0L })
      names
  in
  let mid name =
    let rec go i = function
      | n :: _ when n = name -> i
      | _ :: rest -> go (i + 1) rest
      | [] -> 0
    in
    go 0 names
  in
  let bbs =
    List.mapi
      (fun seq (b : Covgraph.block) ->
        {
          Drcov.bb_mod = mid b.Covgraph.b_module;
          bb_off = b.Covgraph.b_off;
          bb_size = b.Covgraph.b_size;
          bb_seq = seq;
        })
      t.candidate
  in
  let report =
    Tracediff.feature_blocks
      ~keep_module:(fun _ -> true)
      ~wanted:[ window ]
      ~undesired:[ { Drcov.modules; bbs } ]
      ()
  in
  report.Tracediff.undesired

let set_score (score : float) =
  Obs.set_gauge (Obs.gauge "fleet.drift_score") score

(** Re-enable every worker carrying the cut, as one fleet-wide action. *)
let reenable_fleet t ~(traps : int) : action =
  Fault.site "fleet.reenable";
  let cut = List.filter Rollout.cut_live t.workers in
  List.iter
    (fun (w : Rollout.worker) ->
      Rollout.revert_worker w;
      Rollout.transition w "reenabled")
    cut;
  t.reenables <- t.reenables + 1;
  Obs.incr (Obs.counter "fleet.reenables");
  Obs.event ~kind:"fleet"
    (Printf.sprintf "drift reenable traps=%d workers=%d" traps
       (List.length cut));
  t.cold_streak <- 0;
  rebaseline t;
  Reenabled (List.length cut)

(** Re-cut the whole fleet; any member rollback reverts the ones already
    re-cut so the fleet stays uniform either way. *)
let recut_fleet t : action option =
  Fault.site "fleet.recut";
  let done_ = ref [] in
  let failed = ref false in
  List.iter
    (fun (w : Rollout.worker) ->
      if not !failed then
        match
          Dynacut.try_cut w.Rollout.w_session ~blocks:t.candidate
            ~policy:t.policy ()
        with
        | { Dynacut.r_outcome = `Applied; r_journals; _ } ->
            w.Rollout.w_journals <- r_journals;
            Rollout.transition w "recut";
            done_ := w :: !done_
        | { Dynacut.r_outcome = `Rolled_back _; _ } -> failed := true)
    t.workers;
  if !failed then begin
    List.iter Rollout.revert_worker !done_;
    Obs.event ~kind:"fleet" "drift recut failed; fleet left enabled";
    t.cold_streak <- 0;
    None
  end
  else begin
    t.recuts <- t.recuts + 1;
    Obs.incr (Obs.counter "fleet.recuts");
    Obs.event ~kind:"fleet"
      (Printf.sprintf "drift recut workers=%d" (List.length t.workers));
    t.cold_streak <- 0;
    rebaseline t;
    Some (Recut (List.length t.workers))
  end

(** One monitor step; call after driving traffic. Acts only when the
    collector closes a sampling window. *)
let tick t : action option =
  match Collector.window_tick t.col with
  | None -> None
  | Some window ->
      let cut_workers = List.filter Rollout.cut_live t.workers in
      if cut_workers <> [] then begin
        let traps = trap_delta t in
        set_score
          (min 1. (float_of_int traps /. float_of_int t.cfg.d_trap_threshold));
        if traps >= t.cfg.d_trap_threshold then Some (reenable_fleet t ~traps)
        else None
      end
      else begin
        let cold = cold_blocks t window in
        let n_cold = List.length cold
        and n_all = List.length t.candidate in
        set_score
          (if n_all = 0 then 0.
           else float_of_int n_cold /. float_of_int n_all);
        if n_all > 0 && n_cold = n_all then begin
          t.cold_streak <- t.cold_streak + 1;
          if t.cold_streak >= t.cfg.d_hysteresis then recut_fleet t else None
        end
        else begin
          t.cold_streak <- 0;
          None
        end
      end
