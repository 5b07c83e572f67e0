(** The code-coverage collector (DynamoRIO/drcov stand-in): deduplicated
    (module, offset, size) blocks per traced process tree, with the
    paper's two extensions — init-phase nudges and multi-process
    tracing (§3.1, §3.3). *)

type t

val modules_of_proc : Proc.t -> (string * int64 * int64) list
(** (name, base, end) of each mapped module, derived from VMA names. *)

val attach : Machine.t -> pid:int -> t
(** Start tracing [pid]; children forked later are traced automatically
    and their coverage merges into the same map. *)

val nudge : t -> Drcov.log
(** Dump the coverage collected so far (the phase that just ended) and
    clear the code cache (§3.1). *)

val detach : t -> Drcov.log
(** Stop tracing; returns the post-last-nudge coverage. *)

val dumps : t -> Drcov.log list
(** All nudge outputs, oldest first. *)
