(** Code-coverage graphs (paper §3.1).

    A coverage graph is a set of executed basic blocks keyed by
    (module, offset); blocks come from drcov trace logs, merge across
    runs, and diff to expose feature-related or temporally-dead code. *)

type block = {
  b_module : string;  (** module name, e.g. ["ngx"] or ["libc.so"] *)
  b_off : int;  (** module-relative offset of the block's first byte *)
  b_size : int;  (** bytes *)
}

val pp_block : Format.formatter -> block -> unit

type t

val create : unit -> t

val add : t -> block -> unit
(** Insert a block; a re-insert keeps the larger recorded size. *)

val mem : t -> block -> bool
(** Membership is by (module, offset) — sizes are advisory. *)

val mem_off : t -> module_:string -> off:int -> bool
val cardinal : t -> int

val blocks : t -> block list
(** All blocks, sorted by (module, offset). *)

val of_log : Drcov.log -> t
val of_logs : Drcov.log list -> t

val merge : t list -> t
(** Trace-log merging: the union of several runs' coverage. *)

val diff : t -> t -> block list
(** [diff a b] = blocks of [a] absent from [b] — the tracediff core:
    undesired = CovG_undesired \ CovG_wanted (§3.1). *)

val intersect : t -> t -> block list

val filter_modules : (string -> bool) -> block list -> block list
(** Keep blocks whose module satisfies the predicate — used to exclude
    shared-library blocks before feature blocking (§3.1, Figure 4). *)

val is_shared_library : string -> bool
(** True for [*.so] module names. *)

val normalize : cfg_of:(string -> Cfg.t option) -> t -> t
(** Canonicalize coverage onto each module's *static* basic blocks.
    Dynamic (drcov-style) blocks depend on the entry point, so two phases
    can cover the same bytes under different keys; diffing raw dynamic
    blocks can then flag bytes inside live blocks. [normalize] expands
    every dynamic block into the static blocks whose start it covers,
    making diffs sound. Modules for which [cfg_of] returns [None] pass
    through unchanged. *)
