(** Checkpoint: dump a frozen process into {!Images}. *)

type mode =
  | Vanilla
      (** stock CRIU: file-backed executable pages are *not* dumped and
          fault back in from the binary at restore — losing any code
          patches, the problem the paper's CRIU change fixes (§3.3) *)
  | Dynacut  (** also dump PROT_EXEC | FILE_PRIVATE pages *)

val dump : Machine.t -> pid:int -> ?mode:mode -> unit -> Images.t
(** Dump one (frozen) process. *)

val dump_tree : Machine.t -> root:int -> ?mode:mode -> unit -> Images.t list
(** Dump a process and its live descendants (multi-process apps). *)

val save_sealed : Machine.t -> dir:string -> pid:int -> string -> string
(** Store a {!Validate.encode_sealed} frame as [pid]'s image in the
    machine's tmpfs (§3.3), through the [criu.save] fault site; returns
    the path. *)
