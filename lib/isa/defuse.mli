(** Per-instruction def/use tables over the vx86 ISA — one match arm
    per {!Insn.t} constructor, so a new instruction fails to compile
    until its dataflow is declared. *)

type access = {
  a_base : Reg.t;  (** effective address = [a_base] + [a_disp] *)
  a_disp : int;
  a_len : int;  (** bytes touched: 1 or 8 *)
}

type control =
  | Straight
  | Jump
  | Cond_jump
  | Indirect_jump of Reg.t
  | Call_push
  | Indirect_call of Reg.t
  | Return
  | Sys
  | Stop

type effect = {
  uses : Reg.t list;  (** registers read (address bases included) *)
  defs : Reg.t list;  (** registers written *)
  uses_flags : bool;
  defs_flags : bool;
  loads : access list;
  stores : access list;
  control : control;
}

val effect : Insn.t -> effect
(** Total over {!Insn.t}. Syscall buffer memory effects are modelled by
    the slicer's syscall hook, not here. *)

type flat = {
  f_uses : int;
      (** registers read, in [uses] order: 4 bits each ({!Reg.to_int}),
          the first in the lowest bits *)
  f_nuses : int;
  f_defs : int;  (** registers written, packed as [f_uses] *)
  f_ndefs : int;
  f_uses_flags : bool;
  f_defs_flags : bool;
  f_load : bool;  (** the memory operand is read ... *)
  f_store : bool;  (** ... or written; neither without one *)
  f_base : int;  (** the operand's base register, {!Reg.to_int} *)
  f_disp : int;
  f_len : int;
  f_control : control;
}
(** {!effect} flattened for the slicer's per-instruction step: [int]
    and [bool] fields only, so applying it walks no list. A vx86
    instruction has at most one memory operand and at most five
    register reads. *)

val flat : effect -> flat
(** The flat form of an {!effect}; the register order of [uses] is
    kept, since the slicer's unions follow it. *)

val all_constructors : Insn.t list
(** One representative instance per constructor (exhaustiveness test
    input); its length is the constructor count of {!Insn.t}. *)
