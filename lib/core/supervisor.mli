(** Post-cut supervision: the canary gate and verifier feedback (guarded
    rollout, §5c of DESIGN.md).

    A cut that passes the transactional pipeline can still be {e wrong}:
    the coverage diff may have blocked a path production traffic needs.
    The supervisor guards against that in two ways:

    - {b canary rollout}: {!guarded_cut} first cuts a single worker of a
      multi-process tree, watches its traps over [canary_windows]
      windows of live traffic, and only then promotes the cut to the
      remaining processes (or reverts the canary);
    - {b verifier feedback}: {!verifier_feedback} folds the [`Verify]
      handler's false-positive log back into the block set — re-enable,
      shrink, re-cut.

    Once a cut is promoted the supervisor watches nothing: as in the
    paper, a feature comes back only when the operator re-enables it.
    Every decision is appended to an event log ({!render_log}) stamped
    with the virtual clock, so a run with a fixed seed replays
    bit-for-bit. The supervisor never runs the machine itself: the
    caller's [drive] does. *)

type config = {
  max_traps : int;  (** traps the canary may take over its windows *)
  canary_windows : int;  (** healthy windows required to promote *)
}

val default_config : config
(** max_traps = 3, canary_windows = 2. *)

type rollout =
  | R_promoted  (** the cut is live on every pid of the tree *)
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
(** Attach a supervisor to a session. Nothing is cut, and no hook is
    installed on the machine. *)

val guarded_cut : t -> drive:(unit -> unit) -> unit -> rollout
(** Apply the supervised cut. It lands on one non-root worker first (the
    root itself in a single-process tree); [drive] is called once per
    observation window to advance the machine and its traffic, then the
    canary's trap delta is examined. A healthy canary promotes the cut
    to the rest of the tree (fault site [supervisor.promote]); a breach
    — or a canary death — reverts it, leaving every pid byte-original.
    An unsupervised cut of the whole tree is {!Dynacut.try_cut}. *)

val cut_live : t -> bool
(** True while the cut is applied. *)

val journals : t -> Rewriter.journal list
(** Current undo journals (empty while no cut is applied). *)

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
