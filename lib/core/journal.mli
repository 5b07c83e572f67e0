(** Durable write-ahead intent journal for the cut transaction
    (DESIGN.md §5d).

    A [Dynacut.try_cut], [try_reenable] or [apply_seccomp] transaction
    — and every supervisor respawn — appends a sealed, checksummed
    record to [<tmpfs>/journal] {e before} each action that changes what
    [Dynacut.recover] must do, so recovery can reconstruct a dead
    controller's progress from storage alone. A record counts only once
    it reads back ({!append}). A sealed lock file carries the owning
    controller's epoch (the fencing token): appends re-check it, and
    recovery bumps it, so a resurrected controller fails with {!Fenced}
    instead of racing the recovery pass. *)

type op = Cut | Reenable

type record =
  | Begin of { txid : int; op : op; pids : int list }
      (** transaction opened; the tree is about to be frozen *)
  | Images_saved of int
      (** pristine + working images sealed in tmpfs; from here rollback
          by pristine restore is always possible *)
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
    first; raises {!Fenced} otherwise. [Fault.site Journal_append]. Then
    reads the new frame (and only it) back and checks it against the
    sealed frame written ({!Validate.check_stored}): a frame that differs
    is cut off again and raises {!Validate.Validate_error}, so the stage
    the record announces never acts on a lost intent. *)

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
  tx_pids : int list;
  tx_images_saved : bool;
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
