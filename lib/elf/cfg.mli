(** Static basic-block recovery over SELF executables — the stand-in for
    the paper's use of Angr to count total blocks (§4.2, Figure 9), and
    the canonical block universe coverage is normalized onto. *)

type block = {
  bb_off : int;  (** module-relative start *)
  bb_size : int;
  bb_insns : int;
  bb_term : [ `Jmp | `Jcc | `Call | `Ret | `Ind | `Syscall | `Trap | `Fall ];
}

type t = {
  cfg_module : string;
  cfg_blocks : block array;  (** sorted by offset *)
  cfg_edges : (int * int) list;
      (** (from-insn offset, target offset), sorted *)
}

val of_self : Self.t -> t
(** All executable sections, with symbols and PLT stubs as leaders:
    two flat passes per section (decode, then cut), no hashtables. *)

val block_count : t -> int

val real_blocks : t -> block list
(** Blocks with nonzero size (drops empty padding runs). *)

val block_at : t -> int -> block option
(** The block starting at the offset; a binary search over the sorted
    blocks. *)

val block_containing : t -> int -> block option
(** The block whose extent holds the offset; a binary search. *)
