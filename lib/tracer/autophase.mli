(** Automatic initialization/serving transition detection — the paper's
    §5 item, implemented: the init-phase nudge fires on the server's
    first [accept] instead of an operator watching the log. *)

type t

val arm : Machine.t -> Collector.t -> t
(** Install the syscall probe; the nudge fires at most once, on the
    traced tree's first [accept]. *)

val fired : t -> bool
val init_log : t -> Drcov.log option
val disarm : t -> unit
