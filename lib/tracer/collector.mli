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

val add_root : t -> pid:int -> unit
(** Also trace [pid] (a sibling worker); its modules merge into the
    collector's map so fleet-wide coverage shares one block namespace. *)

(** {2 Windowed live sampling}

    A drift monitor needs "what does traffic reach {e right now}", not
    cumulative coverage: these sample into fixed virtual-clock windows
    alongside (and without disturbing) the cumulative map and nudges. *)

val start_window : t -> period:int64 -> unit
(** Sample in windows of [period] virtual cycles. Restarting discards
    the open window. *)

val window_tick : t -> Drcov.log option
(** Rotate the window if a period elapsed; returns the closed window. *)
