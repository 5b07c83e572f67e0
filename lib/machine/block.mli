(** A decoded basic block — the cache unit: instructions pre-decoded once
    from the entry point through the first block-ending instruction. *)

type slot = {
  s_insn : Insn.t;
  s_len : int;  (** encoded byte length *)
  mutable s_flat : Defuse.flat;  (** see {!summary} *)
}

val unsummarized : Defuse.flat
(** What [s_flat] holds until {!summary} fills it (compared physically). *)

val summary : slot -> Defuse.flat
(** The slot's flat def/use summary: computed by the first call and kept
    in the slot, so a traced run derives it once per decoded slot and an
    untraced run never. *)

type t = {
  b_start : int64;  (** entry vaddr *)
  b_size : int;  (** encoded size in bytes *)
  b_slots : slot array;
  b_pages : int64 array;  (** page indexes the encoding spans *)
  mutable b_dead : bool;  (** evicted; linked predecessors must re-dispatch *)
  mutable b_s1 : t option;  (** direct-linked successors, most recent *)
  mutable b_s2 : t option;  (** first, and one victim slot *)
}

val fetch_insn : Mem.t -> int64 -> Insn.t
(** The instruction at the address, fetched with execute permission:
    [Mem.Fault] if a byte it needs cannot be fetched,
    [Decode.Invalid_opcode] if undecodable. The interpreter's fetch. *)

val scratch : unit -> slot array
(** A buffer {!decode} builds a block's slots in; a dispatcher owns
    one. *)

val decode : slot array -> Mem.t -> int64 -> t option
(** Decode the dynamic basic block entered at the address, using the
    {!scratch} buffer. [None] when
    the entry byte is an [Int3], unmapped or undecodable — those take
    the interpreter's trap path so trap accounting stays replay-exact.
    A mid-block [Int3] or decode failure ends the block before it. *)
