(** Automatic initialization/serving transition detection — the paper's
    §5 item, implemented: the init-phase nudge fires on the first serving
    syscall (e.g. [accept]) instead of an operator watching the log. *)

type trigger =
  | On_accept  (** servers: the first accept() of the traced tree *)
  | On_recv
  | On_first_of of int list  (** custom syscall set *)
  | After_insns of int  (** fallback budget for batch programs *)

type t

val arm : Machine.t -> Collector.t -> trigger:trigger -> t
(** Install the syscall probe; the nudge fires at most once. *)

val poll : t -> root:Proc.t -> unit
(** Drive the [After_insns] fallback between scheduler runs. *)

val fired : t -> bool
val init_log : t -> Drcov.log option
val disarm : t -> unit
