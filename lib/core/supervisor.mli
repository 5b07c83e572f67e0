(** Post-cut supervision: canary rollouts, a trap-storm circuit breaker,
    and crash-loop respawn (guarded rollout, §5c of DESIGN.md).

    A cut that passes the transactional pipeline can still be {e wrong}:
    the coverage diff may have blocked a path production traffic needs.
    The supervisor watches the live tree after a cut through the
    deterministic virtual clock and reacts:

    - {b canary rollout}: {!guarded_cut} first cuts a single worker of a
      multi-process tree, watches its trap rate over
      [canary_windows × window] virtual cycles, and only then promotes
      the cut to the remaining processes (or reverts the canary);
    - {b circuit breaker}: a sliding window over the injected handler's
      trap counter; a breach auto-re-enables the feature, waits out a
      cooldown, half-open probes with a re-cut, and abandons the cut for
      good after [max_trips] trips;
    - {b crash-loop respawn}: a worker killed by an un-redirected trap
      ([`Kill] policy, SIGILL on wiped bytes, SIGSEGV on unmapped pages)
      is respawned from its checkpoint image with exponential backoff,
      up to [max_respawns] times;
    - {b verifier feedback}: {!verifier_feedback} folds the [`Verify]
      handler's false-positive log back into the block set — re-enable,
      shrink, re-cut.

    All scheduling is in virtual cycles and every decision is appended
    to an event log ({!render_log}), so a run with a fixed seed replays
    bit-for-bit. The supervisor never runs the machine itself: the
    driver alternates [Machine.run] slices with {!tick}. *)

type config = {
  window : int64;  (** sliding SLO window, virtual cycles *)
  max_traps : int;  (** traps tolerated per window while Closed *)
  critical : bool;  (** any trap at all trips the breaker *)
  cooldown : int64;  (** cycles spent Open before a half-open probe *)
  max_trips : int;  (** trips before the cut is abandoned *)
  max_respawns : int;  (** per-pid respawn budget *)
  canary_windows : int;  (** healthy windows required to promote *)
}

val default_config : config
(** window = 50_000 cycles, max_traps = 3, critical = false,
    cooldown = 100_000, max_trips = 3, max_respawns = 5,
    canary_windows = 2. A half-open probe tolerates no trap. *)

type breaker = Dynacut.breaker =
  | Closed  (** cut live, trap rate inside the SLO *)
  | Open of int64  (** feature re-enabled until this cycle *)
  | Half_open of int64  (** probe re-cut live since this cycle *)
  | Abandoned  (** trip budget exhausted; feature stays enabled *)

val pp_breaker : Format.formatter -> breaker -> unit

type rollout =
  | R_promoted  (** the cut is live on every supervised pid *)
  | R_canary_rejected  (** the canary breached the SLO; tree original *)
  | R_promotion_failed  (** promotion failed mid-flight; tree original *)
  | R_rolled_back of string  (** the initial cut itself rolled back *)

val pp_rollout : Format.formatter -> rollout -> unit

type t

val create :
  Dynacut.session ->
  config:config ->
  blocks:Covgraph.block list ->
  policy:Dynacut.policy ->
  t
(** Attach a supervisor to a session. Installs the machine's exit hook
    (chaining any previously installed one) to observe worker deaths. *)

val guarded_cut : t -> ?canary:bool -> drive:(unit -> unit) -> unit -> rollout
(** Apply the supervised cut. With [canary] (the default) the cut lands
    on one non-root worker first; [drive] is called once per observation
    window to advance the machine and its traffic, then the canary's
    trap delta is examined. A healthy canary promotes the cut to the
    rest of the tree (fault site [supervisor.promote]); a breach — or a
    canary death — reverts it, leaving every pid byte-original. With
    [~canary:false] the cut lands on the whole tree at once and only the
    breaker/respawn machinery applies. *)

val tick : t -> unit
(** One supervision step: respawn eligible dead workers (fault site
    [restore.respawn]), sample the trap counters, and advance the
    breaker state machine (re-enable on trip uses fault site
    [supervisor.reenable]). Call between [Machine.run] slices. *)

val breaker_state : t -> breaker
val trips : t -> int


val breaker_gauge : root_pid:int -> Obs.gauge
(** The per-worker [supervisor.breaker{pid}] gauge — breaker state
    encoded 0/1/2/3 (Closed/Open/Half-open/Abandoned), written on every
    transition. A write-only mirror of the session's [breaker] for
    [top] and the dumps; nothing routes on it. *)

val cut_live : t -> bool
(** True while the cut is applied (Closed or Half_open with journals). *)

val journals : t -> Rewriter.journal list
(** Current undo journals (empty while the feature is re-enabled). *)

val blocks : t -> Covgraph.block list
(** The block set currently targeted (shrinks under verifier feedback). *)

val verifier_feedback : t -> int
(** Fold [`Verify] false positives back into the cut: re-enable, drop
    every block whose address the handler logged, re-cut the shrunk set.
    Returns the number of blocks dropped (0 = nothing to do, cut
    untouched). *)

val render_log : t -> string
(** The event log as one line per decision — two runs from the same
    seed must render identically (replay check). *)

val block_of_sym : Self.t -> module_:string -> sym:string -> Covgraph.block
(** The static basic block at an exported symbol — handy for building a
    deliberate trap-storm (cutting a wanted path) in tests and the CLI's
    [--storm]. Raises {!Dynacut.Dynacut_error} if the symbol is
    missing. *)
