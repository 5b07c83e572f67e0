(** Restore: rebuild a live process from {!Images}, including TCP repair
    so established connections survive (§3.3, Figure 8). *)

exception Restore_error of string

val restore : Machine.t -> Images.t -> Proc.t
(** Re-create the process: address space, registers, sigactions, fds,
    repaired connections, re-registered listeners. Raises
    {!Restore_error} if the pid is still alive. *)

val load_sealed : Machine.t -> path:string -> string
(** Read a sealed image frame as stored (fault site [criu.load]),
    without verifying or decoding it; raises {!Restore_error} if the
    file is missing. *)

val load_from_tmpfs : Machine.t -> path:string -> Images.t
(** Load, unseal, and {!Validate.check} an image blob; raises
    {!Validate.Validate_error} on truncation/corruption and
    {!Restore_error} if the file is missing. *)

val restore_from_tmpfs : Machine.t -> path:string -> Proc.t

val respawn : Machine.t -> path:string -> Proc.t
(** Re-create a {e dead} pid from a tmpfs image (fault site
    [restore.respawn]) — the supervisor's crash-loop respawn. Restoring
    from a working (rewritten) image resumes with the cut applied;
    restoring from a pristine image resumes the original program. *)
