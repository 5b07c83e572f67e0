(** Durable write-ahead intent journal for the cut transaction
    (DESIGN.md §5d).

    A [Dynacut.try_cut], [try_reenable], [apply_seccomp] or
    [respawn_pristine] transaction appends a sealed, checksummed
    record to [<tmpfs>/journal] {e before} each action that changes what
    [Dynacut.recover] must do, so recovery can reconstruct a dead
    controller's progress from storage alone. A record counts only once
    it reads back ({!append}). A sealed lock file carries the owning
    controller's epoch (the fencing token): appends re-check it, and
    recovery bumps it, so a resurrected controller fails with {!Fenced}
    instead of racing the recovery pass. *)

type record =
  | Begin of { txid : int; pids : int list }
      (** transaction opened; the tree is about to be frozen (a cut,
          re-enable or seccomp) or [pids] re-created (a respawn) *)
  | Images_saved of int
      (** pristine + working images sealed in tmpfs; from here rollback
          by pristine restore is always possible *)
  | Commit of int  (** every pid runs the rewritten image *)
  | Abort of int  (** the controller finished rolling the tree back *)

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
    move. [Fault.site Journal_lock]. The stamp counts once it reads back,
    as an {!append}ed frame does: a damaged stamp puts the previous lock
    bytes back and raises {!Validate.Validate_error}. *)

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

val summarize : record list -> tx_state option
(** The journal's last transaction, if any. *)

val quiescent : tx_state option -> bool
(** No open transaction: nothing to recover. *)
