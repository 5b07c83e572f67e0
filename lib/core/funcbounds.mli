(** Function-boundary recovery by prologue detection
    ([push rbp; mov rbp, rsp]) — backs the redirect policy's
    same-function requirement (§3.2.2). *)

type t = { fb_starts : int array  (** sorted module-relative entries *) }

val of_self : Self.t -> t

val function_of : t -> int -> int option
(** Entry offset of the function containing the given offset. *)

val function_range : t -> int -> (int * int) option
(** Module-relative [lo, hi) of the function containing the offset: its
    entry up to the next entry ([max_int] after the last). *)
