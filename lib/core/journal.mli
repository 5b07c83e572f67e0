(** Durable write-ahead intent journal for the cut transaction
    (DESIGN.md §5d).

    Every state transition of a [Dynacut.try_cut], [try_reenable] or
    [apply_seccomp] transaction — and every supervisor respawn — appends
    a sealed, checksummed record to [<tmpfs>/journal] {e before} the
    action it announces, so [Dynacut.recover] can reconstruct a dead controller's
    progress from storage alone. A sealed lock file carries the owning
    controller's epoch (the fencing token): appends re-check it, and
    recovery bumps it, so a resurrected controller fails with {!Fenced}
    instead of racing the recovery pass. *)

type op = Cut | Reenable

type record =
  | Begin of { txid : int; op : op; pids : int list }
      (** transaction opened; the tree is about to be frozen *)
  | Frozen of int  (** every pid of the transaction is frozen *)
  | Images_saved of int
      (** pristine + working images sealed in tmpfs; from here rollback
          by pristine restore is always possible *)
  | Rewritten of int  (** image edits validated; restore is next *)
  | Replaced of { txid : int; pid : int }
      (** [pid] is about to be reaped and re-created from the rewritten
          image — intent, logged before the reap *)
  | Commit of int  (** every pid runs the rewritten image *)
  | Abort of int  (** the controller finished rolling the tree back *)
  | Respawn_begin of { pid : int; path : string }
      (** supervisor respawn of [pid] from [path] is about to run *)
  | Respawn_done of { pid : int }
      (** the controller regained control after [Respawn_begin] *)

type t
(** Handle on one tree's journal + lock inside its tmpfs directory. *)

exception Fenced of { epoch : int; lock_epoch : int }
(** The lock no longer carries this controller's epoch — a newer
    controller (or a recovery pass) owns the tree now. A fenced
    controller must stop; it must not write. *)

exception Busy of { txid : int }
(** The journal holds an unfinished transaction: the tree needs
    [dynacut recover] before it can be cut again. *)

val attach : Vfs.t -> dir:string -> t
(** Handle on [<dir>/journal] and [<dir>/lock]; creates nothing. *)

val read : t -> record list * bool
(** The valid prefix in append order; the [bool] flags a torn tail
    (truncated write or corruption). Never raises — the prefix is
    authoritative, exactly the write-ahead guarantee. *)

val append : t -> epoch:int -> record -> unit
(** Append one sealed record. Verifies the lock still carries [epoch]
    first; raises {!Fenced} otherwise. [Fault.site Journal_append]. *)

val lock_epoch : t -> int
(** Epoch in the lock file; 0 when absent or unreadable. *)

val write_lock : t -> epoch:int -> unit
(** Stamp the lock with [epoch] unconditionally — recovery's fencing
    move. [Fault.site Journal_lock]. *)

val acquire : t -> epoch:int -> unit
(** Take (or refresh) the lock for [epoch]; raises {!Fenced} when a
    newer epoch already holds it. *)

val clear : t -> unit
(** Remove the journal file only — recovery keeps its bumped lock
    behind as a fence against resurrected controllers. *)

val finish : t -> unit
(** Remove journal and lock — a transaction's clean finish. *)

(** {2 Summarizing} *)

type tx_state = {
  tx_id : int;
  tx_op : op;
  tx_pids : int list;
  tx_frozen : bool;
  tx_images_saved : bool;
  tx_rewritten : bool;
  tx_replaced : int list;  (** pids with a [Replaced] intent, oldest first *)
  tx_closed : bool;  (** [Commit] or [Abort] logged *)
}

type summary = {
  s_tx : tx_state option;  (** the journal's last transaction, if any *)
  s_respawns : (int * string) list;
      (** unmatched [Respawn_begin]s, oldest first *)
}

val summarize : record list -> summary
val quiescent : summary -> bool
(** No open transaction and no unmatched respawn: nothing to recover. *)

(** {2 Fleet manifest}

    A second intent log, one per {e fleet} rather than per tree: records
    rollout progress across workers ([Wave_begin] before a wave cuts,
    [Worker_cut] after each member commits, [Wave_done] / [Rollout_halted]
    / [Rollout_done] as the rollout advances) so a crash mid-rollout can
    be replayed back to a uniform fleet. Per-worker cut atomicity is the
    worker's own journal's business; the manifest records {e intent
    across} workers. Same sealed-frame format, longest-valid-prefix
    reads. *)
module Manifest : sig
  type entry =
    | Wave_begin of { wave : int; pids : int list }
        (** wave [wave] is about to start cutting [pids] *)
    | Worker_cut of { wave : int; pid : int }
        (** [pid]'s cut transaction committed as part of [wave] *)
    | Wave_done of { wave : int }  (** every pid of the wave is cut *)
    | Rollout_halted of { wave : int }
        (** rollout stopped at [wave]; its partial cuts were reverted *)
    | Rollout_done of { waves : int }  (** all [waves] waves committed *)
    | Checkpoint of { completed : int list; halted : int option; done_ : bool }
        (** compaction record: the summary of everything before it *)

  type t

  val attach : Vfs.t -> dir:string -> t
  (** Handle on [<dir>/manifest]; creates nothing. *)

  val append : t -> entry -> unit

  val read : t -> entry list * bool
  (** Valid prefix + torn-tail flag; never raises. *)

  val compact : t -> unit
  (** Rewrite the manifest as one [Checkpoint] (summary-preserving),
      re-appending an open wave's records verbatim so recovery can still
      unwind it. A torn tail is dropped and the file is fully sealed
      again. *)

  val clear : t -> unit
  val pp_entry : Format.formatter -> entry -> unit

  type summary = {
    m_completed : int list;  (** waves with [Wave_done], oldest first *)
    m_open : (int * int list * int list) option;
        (** a [Wave_begin] without [Wave_done]/[Rollout_halted]:
            (wave, planned pids, pids with a [Worker_cut]) *)
    m_halted : int option;  (** rollout halted at this wave *)
    m_done : bool;  (** [Rollout_done] logged *)
  }

  val summarize : entry list -> summary
end
