(** Dynamic dataflow slicing tracer — records def-use provenance at
    block granularity while the guest runs (forward dependency-set
    propagation, so no trace is retained), anchors slices at
    wanted-feature socket outputs, and yields the set of blocks the
    wanted outputs depend on. Covered blocks outside that set are
    [Sliced_away] cut candidates. Deterministic given the machine seed
    and drive, so slices replay bit-for-bit and verifier
    counterexamples re-join reproducibly. *)

type t

type stats = {
  st_insns : int;  (** instructions traced *)
  st_blocks_seen : int;  (** distinct dynamic blocks interned *)
  st_slice_blocks : int;  (** blocks in the slice (incl. counterexamples) *)
  st_anchors : int;  (** wanted outputs anchored *)
  st_sets : int;  (** hash-consed depsets interned *)
  st_mem_ranges : int;  (** live abstract-memory ranges, all procs *)
  st_counterexamples : int;
  st_sampled_off : int;  (** sampling decisions that disabled tracing *)
}

val attach :
  Machine.t ->
  pid:int ->
  ?sample:Rng.t * float ->
  wanted_out:(string -> bool) ->
  unit ->
  t
(** Start slicing [pid] and its future children, chaining after any
    [on_insn]/[on_syscall] hooks already installed. [wanted_out]
    decides which socket-write payloads are wanted-feature outputs
    (slice anchors). [sample] (rng, probability) enables sampled
    tracing: each accept attempt draws a fresh seeded decision whether
    tracing is on — gaps under-approximate the slice and are repaid by
    the verifier counterexample loop. Fault site [Slice_trace]. *)

val detach : t -> unit
(** Restore the chained hooks; computed state stays readable. *)

val slice : t -> (string * int * int) list
(** Every (module name, block-start offset, extent in bytes) span that
    contributed to a wanted output, plus counterexamples (extent 1).
    Dynamic blocks are maximal fall-through runs and can span several
    static CFG blocks — match static blocks by range overlap, not
    start-point membership. Fault site [Slice_compute]. *)

val add_counterexample : t -> module_:string -> off:int -> unit
(** A verifier false positive — a sliced-away block trapped post-cut.
    Re-joins the slice permanently and journals the event
    (["slice.counterexamples"] counter + ring event). *)

val counterexamples : t -> (string * int) list
val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
