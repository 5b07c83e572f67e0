(** Machine-wide simulated filesystem: binaries, libraries, config files,
    and the tmpfs directory checkpoints land in (§3.3). *)

type t

val create : unit -> t
val add : t -> string -> string -> unit
val find : t -> string -> string option
val exists : t -> string -> bool
val remove : t -> string -> unit
val list : t -> string list

val add_self : t -> string -> Self.t -> unit
(** Store a SELF binary at a path. *)

val parse_self : string -> Self.t option
(** Decode file contents as a SELF binary; [None] for a plain file. *)

val find_self : t -> string -> Self.t option
(** Decode a stored SELF binary; [None] for plain files. *)
