(** Per-instruction def/use tables over the vx86 ISA.

    One total function, {!effect}, maps every {!Insn.t} constructor to
    the registers it reads and writes, whether it reads or writes the
    condition flags, the memory operands it loads from and stores to
    (as base register + displacement + width, so the dynamic tracer can
    recompute the effective address from pre-execution registers), and
    its control class. The match is intentionally one arm per
    constructor — adding an instruction to {!Insn.t} fails to compile
    here until its dataflow is declared, and the exhaustiveness test
    walks a sample of every constructor. *)

type access = {
  a_base : Reg.t;  (** effective address = [a_base] + [a_disp] *)
  a_disp : int;
  a_len : int;  (** bytes touched: 1 or 8 *)
}

(** How the instruction leaves the instruction stream. The slicer keys
    its control-dependence bookkeeping off this: conditional and
    indirect transfers make a decision (later blocks depend on it),
    calls push a control-stack level, returns pop one. *)
type control =
  | Straight  (** falls through; no transfer *)
  | Jump  (** unconditional direct transfer — no decision made *)
  | Cond_jump  (** decision read from the flags *)
  | Indirect_jump of Reg.t  (** decision read from a register *)
  | Call_push  (** direct call: pushes a control level *)
  | Indirect_call of Reg.t  (** indirect call: decision + push *)
  | Return  (** pops a control level *)
  | Sys  (** syscall: kernel boundary (block end) *)
  | Stop  (** hlt / int3: execution does not continue *)

type effect = {
  uses : Reg.t list;  (** registers read (address bases included) *)
  defs : Reg.t list;  (** registers written *)
  uses_flags : bool;
  defs_flags : bool;
  loads : access list;
  stores : access list;
  control : control;
}

let straight ?(uses = []) ?(defs = []) ?(uses_flags = false)
    ?(defs_flags = false) ?(loads = []) ?(stores = []) ?(control = Straight) ()
    =
  { uses; defs; uses_flags; defs_flags; loads; stores; control }

(* dst <- f(dst, src) *)
let alu_rr d s = straight ~uses:[ d; s ] ~defs:[ d ] ()

(* dst <- f(dst, imm) *)
let alu_ri d = straight ~uses:[ d ] ~defs:[ d ] ()

let effect : Insn.t -> effect = function
  | Insn.Nop -> straight ()
  | Insn.Int3 -> straight ~control:Stop ()
  | Insn.Hlt -> straight ~control:Stop ()
  | Insn.Mov_rr (d, s) -> straight ~uses:[ s ] ~defs:[ d ] ()
  | Insn.Mov_ri (d, _) -> straight ~defs:[ d ] ()
  | Insn.Load (d, b, off) ->
      straight ~uses:[ b ] ~defs:[ d ]
        ~loads:[ { a_base = b; a_disp = off; a_len = 8 } ]
        ()
  | Insn.Store (b, off, s) ->
      straight ~uses:[ b; s ]
        ~stores:[ { a_base = b; a_disp = off; a_len = 8 } ]
        ()
  | Insn.Load8 (d, b, off) ->
      straight ~uses:[ b ] ~defs:[ d ]
        ~loads:[ { a_base = b; a_disp = off; a_len = 1 } ]
        ()
  | Insn.Store8 (b, off, s) ->
      straight ~uses:[ b; s ]
        ~stores:[ { a_base = b; a_disp = off; a_len = 1 } ]
        ()
  | Insn.Add_rr (d, s) -> alu_rr d s
  | Insn.Add_ri (d, _) -> alu_ri d
  | Insn.Sub_rr (d, s) -> alu_rr d s
  | Insn.Sub_ri (d, _) -> alu_ri d
  | Insn.Imul_rr (d, s) -> alu_rr d s
  | Insn.Idiv_rr (d, s) -> alu_rr d s
  | Insn.Imod_rr (d, s) -> alu_rr d s
  | Insn.And_rr (d, s) -> alu_rr d s
  | Insn.Or_rr (d, s) -> alu_rr d s
  | Insn.Xor_rr (d, s) -> alu_rr d s
  | Insn.Shl_ri (d, _) -> alu_ri d
  | Insn.Shr_ri (d, _) -> alu_ri d
  | Insn.Sar_ri (d, _) -> alu_ri d
  | Insn.Shl_rr (d, s) -> alu_rr d s
  | Insn.Shr_rr (d, s) -> alu_rr d s
  | Insn.Neg d -> alu_ri d
  | Insn.Not d -> alu_ri d
  | Insn.Cmp_rr (a, b) -> straight ~uses:[ a; b ] ~defs_flags:true ()
  | Insn.Cmp_ri (a, _) -> straight ~uses:[ a ] ~defs_flags:true ()
  | Insn.Test_rr (a, b) -> straight ~uses:[ a; b ] ~defs_flags:true ()
  | Insn.Jmp _ -> straight ~control:Jump ()
  | Insn.Jcc (_, _) -> straight ~uses_flags:true ~control:Cond_jump ()
  | Insn.Call _ ->
      straight ~uses:[ Reg.Rsp ] ~defs:[ Reg.Rsp ]
        ~stores:[ { a_base = Reg.Rsp; a_disp = -8; a_len = 8 } ]
        ~control:Call_push ()
  | Insn.Call_r r ->
      straight ~uses:[ r; Reg.Rsp ] ~defs:[ Reg.Rsp ]
        ~stores:[ { a_base = Reg.Rsp; a_disp = -8; a_len = 8 } ]
        ~control:(Indirect_call r) ()
  | Insn.Jmp_r r -> straight ~uses:[ r ] ~control:(Indirect_jump r) ()
  | Insn.Ret ->
      straight ~uses:[ Reg.Rsp ] ~defs:[ Reg.Rsp ]
        ~loads:[ { a_base = Reg.Rsp; a_disp = 0; a_len = 8 } ]
        ~control:Return ()
  | Insn.Push r ->
      straight ~uses:[ r; Reg.Rsp ] ~defs:[ Reg.Rsp ]
        ~stores:[ { a_base = Reg.Rsp; a_disp = -8; a_len = 8 } ]
        ()
  | Insn.Pop r ->
      straight ~uses:[ Reg.Rsp ] ~defs:[ r; Reg.Rsp ]
        ~loads:[ { a_base = Reg.Rsp; a_disp = 0; a_len = 8 } ]
        ()
  | Insn.Syscall ->
      (* the ABI argument registers feed the kernel; rax carries both
         the syscall number in and the result out. Buffer memory
         effects depend on the syscall and are modelled by the slicer's
         syscall hook, not here. *)
      straight
        ~uses:[ Reg.Rax; Reg.Rdi; Reg.Rsi; Reg.Rdx; Reg.Rcx ]
        ~defs:[ Reg.Rax ] ~control:Sys ()
  | Insn.Lea (d, _) -> straight ~defs:[ d ] ()

(** {!effect} flattened for the slicer's per-instruction step: [int]
    and [bool] fields only, so applying it walks no list. A vx86
    instruction has at most one memory operand and at most five
    register reads. *)
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

let pack regs = List.fold_right (fun r acc -> (acc lsl 4) lor Reg.to_int r) regs 0

let flat (e : effect) : flat =
  let mem, f_load, f_store =
    match (e.loads, e.stores) with
    | [], [] -> (None, false, false)
    | [ a ], [] -> (Some a, true, false)
    | [], [ a ] -> (Some a, false, true)
    | _ -> invalid_arg "Defuse.flat: more than one memory operand"
  in
  let f_base, f_disp, f_len =
    match mem with Some a -> (Reg.to_int a.a_base, a.a_disp, a.a_len) | None -> (0, 0, 0)
  in
  {
    f_uses = pack e.uses;
    f_nuses = List.length e.uses;
    f_defs = pack e.defs;
    f_ndefs = List.length e.defs;
    f_uses_flags = e.uses_flags;
    f_defs_flags = e.defs_flags;
    f_load;
    f_store;
    f_base;
    f_disp;
    f_len;
    f_control = e.control;
  }

(** One representative instance of every {!Insn.t} constructor, for the
    exhaustiveness test: the length of this list is the constructor
    count, and folding {!effect} over it exercises every match arm. *)
let all_constructors : Insn.t list =
  let r = Reg.Rax and s = Reg.Rbx in
  [
    Insn.Nop;
    Insn.Int3;
    Insn.Hlt;
    Insn.Mov_rr (r, s);
    Insn.Mov_ri (r, 1L);
    Insn.Load (r, s, 8);
    Insn.Store (r, 8, s);
    Insn.Load8 (r, s, 8);
    Insn.Store8 (r, 8, s);
    Insn.Add_rr (r, s);
    Insn.Add_ri (r, 1);
    Insn.Sub_rr (r, s);
    Insn.Sub_ri (r, 1);
    Insn.Imul_rr (r, s);
    Insn.Idiv_rr (r, s);
    Insn.Imod_rr (r, s);
    Insn.And_rr (r, s);
    Insn.Or_rr (r, s);
    Insn.Xor_rr (r, s);
    Insn.Shl_ri (r, 1);
    Insn.Shr_ri (r, 1);
    Insn.Sar_ri (r, 1);
    Insn.Shl_rr (r, s);
    Insn.Shr_rr (r, s);
    Insn.Neg r;
    Insn.Not r;
    Insn.Cmp_rr (r, s);
    Insn.Cmp_ri (r, 1);
    Insn.Test_rr (r, s);
    Insn.Jmp 4;
    Insn.Jcc (Insn.Eq, 4);
    Insn.Call 4;
    Insn.Call_r r;
    Insn.Jmp_r r;
    Insn.Ret;
    Insn.Push r;
    Insn.Pop r;
    Insn.Syscall;
    Insn.Lea (r, 4);
  ]
