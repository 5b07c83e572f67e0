(** The DynaCut orchestrator: freeze → checkpoint → rewrite → restore,
    with Figure 6's stage-timing breakdown.

    Typical use:
    {[
      let session = Dynacut.create machine ~root_pid in
      let journals, t =
        Dynacut.cut session ~blocks
          ~policy:{ method_ = `First_byte; on_trap = `Redirect "err_403" }
      in
      (* ... the feature now answers through the app's error path ... *)
      let _t = Dynacut.reenable session journals in
    ]} *)

type policy = {
  method_ : [ `First_byte  (** int3 in each block's first byte *)
            | `Wipe  (** int3 over every byte (anti-ROP) *)
            | `Unmap_pages  (** drop fully-covered pages; wipe the rest *) ];
  on_trap :
    [ `Kill  (** no handler: default SIGTRAP action terminates *)
    | `Terminate  (** injected handler calls exit(13) *)
    | `Redirect of string
      (** handler rewrites the saved rip to this exported symbol — the
          application's default error path (§3.2.2, Figure 5). Only
          blocks in the target's own function are patched (the paper's
          same-function requirement); blocking those dispatcher-edge
          blocks disables the feature. *)
    | `Verify
      (** over-elimination check (§3.2.3): the handler restores the
          original byte, logs the address, and retries *) ];
}

type timings = {
  t_checkpoint : float;
  t_disable : float;
  t_handler : float;
  t_restore : float;
}

val total_time : timings -> float
val pp_timings : Format.formatter -> timings -> unit

type breaker =
  | Closed  (** cut live, trap rate inside the SLO *)
  | Open of int64  (** feature re-enabled until this cycle *)
  | Half_open of int64  (** probe re-cut live since this cycle *)
  | Abandoned  (** trip budget exhausted; feature stays enabled *)
(** A {!Supervisor}'s circuit-breaker state, kept on the session it
    supervises. *)

type target
(** What a redirect cut needs of the executable: the target symbol's
    offset and its function's range, never the parsed binary. *)

type session = {
  machine : Machine.t;
  root_pid : int;
  handler_lib : Self.t;  (** the injectable SIGTRAP handler (§3.3) *)
  tmpfs : string;  (** image directory in the machine fs *)
  journal : Journal.t;  (** the crash-consistency journal (§5d) *)
  epoch : int;  (** this controller's fencing token *)
  mutable next_txid : int;
  mutable lib_bases : (int * int64) list;
  mutable cut_count : int;
  mutable table_mode : int64;
  mutable table : (int * (int64 * int64) list) list;
      (** accumulated policy entries per pid: stacked cuts merge, partial
          re-enables remove only their own entries *)
  mutable breaker : breaker;
      (** the supervisor's breaker over this tree ([Closed] while none is
          attached); the fleet balancer reads it to drain a breaker-open
          worker and trickle probes to a half-open one *)
  mutable target : target option;
      (** the last redirect target resolved, reused while the
          executable's contents in the Vfs are the same string *)
}

exception Dynacut_error of string

val create : Machine.t -> root_pid:int -> session
(** Build a session for the process tree rooted at [root_pid]; the
    handler library is linked against the target's libc. The session's
    epoch outranks any stale lock left in the tree's tmpfs. *)

val tree_pids : session -> int list
(** The root and its live descendants (multi-process support, §3.2.1). *)

val redirect_filter :
  session -> sym:string -> Covgraph.block list -> Covgraph.block list
(** The same-function restriction applied by [cut] under [`Redirect]. *)

val image_path : session -> int -> string
(** Tmpfs path of a pid's working image — the most recent checkpoint
    with the cut edits applied. *)

val pristine_path : session -> int -> string
(** Tmpfs path of a pid's pristine image — the pre-cut checkpoint kept
    by the transaction engine. *)

val forget_pid : session -> pid:int -> unit
(** Drop a pid's session bookkeeping (policy-table entries, injected-lib
    base) after it was re-created from its pristine image outside the
    transaction engine. *)

(** {2 Transactional cut pipeline}

    A cut (or re-enable) is a two-phase transaction over the static
    images: phase A freezes the tree, checkpoints every process (keeping
    a pristine copy of each image), performs all edits on the in-memory
    images and seals each edited image once into tmpfs, verified by a
    read-back; phase B replaces the live processes from the checked
    images. Any failure in either
    phase — including a fault injected at any {!Fault.site} — rolls the
    tree back to its pre-cut state: the invariant is {e cut fully
    applied, or process tree unchanged}. *)

type rollback = { rb_stage : string; rb_error : string }
(** Where a rolled-back transaction failed: the stage name
    ([checkpoint] / [rewrite] / [inject] / [validate] / [restore]) and a
    human-readable description of the original error. *)

type outcome =
  [ `Applied  (** the requested edit is live *)
  | `Rolled_back of rollback  (** tree unchanged, still serving *) ]

type cut_result = {
  r_journals : Rewriter.journal list;
      (** per-pid undo journals; empty on rollback *)
  r_timings : timings;
  r_outcome : outcome;
  r_retries : int;  (** transient-fault retries spent *)
  r_backoff_cycles : int;  (** virtual cycles charged as retry backoff *)
}

val pp_outcome : Format.formatter -> outcome -> unit

val backoff : Machine.t -> attempt:int -> int
(** Charge the capped exponential backoff of retry number [attempt]
    ([min (2^attempt) 64] thousand cycles) to the virtual clock and
    return the cycles charged — the transaction's retries and the
    supervisor's respawns share it. *)

(** [try_cut], [try_reenable] and {!apply_seccomp} journal every state transition
    into [<tmpfs>/journal] (sealed, checksummed {!Journal.record}
    frames) before acting on it, and hold the per-tree lock for the
    duration, so a controller death at {e any} point is recoverable by
    {!recover}. They raise {!Journal.Busy} when the tree's journal holds
    an unfinished transaction (run recovery first) and {!Journal.Fenced}
    when a newer controller owns the tree; neither is a rollback — the
    tree was not touched. *)

val try_cut :
  session ->
  ?pids:int list ->
  blocks:Covgraph.block list ->
  policy:policy ->
  unit ->
  cut_result
(** Disable [blocks] across [pids] (default: the whole tree) as a
    transaction — a subset enables canary rollouts: freeze,
    checkpoint to tmpfs, rewrite the images, inject/update the handler,
    validate, restore. On success the live processes keep their pids,
    memory and TCP connections and [r_outcome] is [`Applied]; on
    failure the tree is rolled back and [r_outcome] reports the failing
    stage. A failure is retried if and only if its injected fault is
    flagged transient: checkpoint, edit and commit share one retry
    loop, at most 2 retries per transaction, each charging capped
    exponential backoff ({!backoff}) to the virtual clock. *)

val try_reenable : session -> ?pids:int list -> Rewriter.journal list -> cut_result
(** Restore a previous cut (original bytes back, pages remapped, policy
    entries removed) with the same transactional guarantees and retry
    rule as {!try_cut}. [pids] (default: the whole tree) must name
    {e live} processes — the transaction freezes and checkpoints
    them. *)

val cut :
  session ->
  blocks:Covgraph.block list ->
  policy:policy ->
  Rewriter.journal list * timings
(** [try_cut] with defaults; raises {!Dynacut_error} if the transaction
    rolled back (the tree is then unchanged and still serving). *)

val reenable : session -> Rewriter.journal list -> timings
(** [try_reenable] with defaults; raises {!Dynacut_error} on rollback. *)

val apply_seccomp : session -> denied:int list option -> timings
(** Install ([Some denylist]) or clear ([None]) a syscall filter across
    the tree by image rewriting — §5's dynamic seccomp. A transaction
    like [cut], journaled as one: a failure at any stage rolls the tree
    back to its previous filter and raises {!Dynacut_error}; transient
    faults are retried; {!Journal.Busy} and {!Journal.Fenced} are raised
    as for [try_cut], with the tree untouched. *)

val verifier_log : session -> pid:int -> int64 list
(** Addresses the [`Verify] handler restored at run time — the
    false-positive report of §3.2.3. *)

val handler_hits : session -> pid:int -> int64
(** Number of SIGTRAP deliveries the injected handler served. *)

type trap_meter
(** Per-pid baselines of {!handler_hits} — the trap-rate input of the
    supervisor's breaker and the fleet drift monitor. *)

val trap_meter : unit -> trap_meter

val trap_delta : trap_meter -> session -> pid:int -> int
(** Handler hits on [pid] since the meter last read it (from zero on
    the first read), then rebase the pid to the current count.
    Reset-tolerant: a respawn from an image restores the guest counter
    to its checkpointed value, possibly below the baseline — the raw
    count is the delta then. *)

(** {2 Crash recovery (§5d)} *)

val journaled_respawn : session -> pid:int -> path:string -> Proc.t
(** [Restore.respawn] bracketed by [Respawn_begin]/[Respawn_done]
    journal records, so a controller death mid-respawn is visible to
    {!recover}. The supervisor's respawn and canary-revert paths use
    this. *)

val respawn_pristine : session -> pid:int -> unit
(** Re-create [pid] from its pristine image by {!journaled_respawn},
    then {!forget_pid} — the last resort of a revert whose re-enable
    failed, or of a pid the storm killed. *)

type recovery_action =
  [ `Nothing  (** journal absent or empty — the tree was never at risk *)
  | `Thawed  (** crash before [Images_saved]: the tree was only frozen *)
  | `Rolled_back  (** every pid re-created from its pristine image *)
  | `Completed  (** [Commit]/[Abort] was logged; only cleanup was lost *)
  ]

type recovery = {
  rec_action : recovery_action;
  rec_txid : int;  (** the open transaction's id; 0 when none was open *)
  rec_epoch : int;  (** the fencing epoch this pass stamped; 0 when idle *)
  rec_torn : bool;  (** the journal's tail was torn (crash mid-append) *)
  rec_pids : int list;  (** pids the open transaction covered *)
  rec_respawned : int list;  (** unmatched supervisor respawns redone *)
}

val pp_recovery : Format.formatter -> recovery -> unit

val recover : Machine.t -> root_pid:int -> recovery
(** Recover the tree rooted at [root_pid] after a controller death,
    from the journal alone. Applies the §5d decision table to the
    journal's valid prefix: thaw when the crash predates [Images_saved],
    uniform pristine rollback when it postdates it, cleanup when
    [Commit]/[Abort] made it to storage; unmatched supervisor respawns
    are redone first. Fences before acting (bumps the lock epoch — a
    resurrected controller gets {!Journal.Fenced}) and is idempotent:
    crashing {e inside} recovery and re-running converges to the same
    machine state. The tree ends every-pid-fully-cut or
    every-pid-fully-original, never mixed within a pid. *)
