(** vx86 instruction decoder / disassembler.

    The decoder is the component the paper's threat model assumes "correct
    and sound" (§2); ours is total: every byte sequence either decodes to
    exactly one instruction or raises {!Invalid_opcode} (the machine turns
    that into a #UD / SIGILL). Decoding a region that DynaCut wiped with
    [0xCC] yields [Int3] at every offset — the property that defeats
    jump-into-the-middle-of-a-block code reuse (§3.2.1). *)

exception Invalid_opcode of int
exception Truncated_insn

let sx32 v = if v land 0x8000_0000 <> 0 then v - (1 lsl 32) else v

(** The longest encoding ([Mov_ri]), in bytes. *)
let max_insn_len = 10

(* Operand readers over [buf]'s bytes [pos, lim), top-level so that a
   decode allocates nothing but the instruction: byte [i] of the
   instruction at [pos], or [Truncated_insn] past [lim]. *)
let byte buf pos lim i =
  if pos + i >= lim then raise Truncated_insn else Char.code (Bytes.unsafe_get buf (pos + i))

let reg buf pos lim i = Reg.of_int (byte buf pos lim i land 0x0f)
let hi_reg b = Reg.of_int ((b lsr 4) land 0x0f)
let lo_reg b = Reg.of_int (b land 0x0f)

let i32 buf pos lim i =
  let b0 = byte buf pos lim i
  and b1 = byte buf pos lim (i + 1)
  and b2 = byte buf pos lim (i + 2)
  and b3 = byte buf pos lim (i + 3) in
  sx32 (b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24))

let i64 buf pos lim i =
  let lo = Int64.logand (Int64.of_int (i32 buf pos lim i land 0xffff_ffff)) 0xffff_ffffL in
  let hi = Int64.logand (Int64.of_int (i32 buf pos lim (i + 4) land 0xffff_ffff)) 0xffff_ffffL in
  Int64.logor lo (Int64.shift_left hi 32)

(** The instruction at [pos] in [buf], reading no byte at or past [lim]
    ([Truncated_insn] if it needs one); its length is {!Insn.length}.
    The one decoder body: {!decode_at} and every machine fetch go
    through it. *)
let decode_in (buf : bytes) (pos : int) (lim : int) : Insn.t =
  let op = byte buf pos lim 0 in
  let open Insn in
  match op with
  | 0x90 -> Nop
  | 0xCC -> Int3
  | 0xF4 -> Hlt
  | 0xC3 -> Ret
  | 0x40 -> Syscall
  | 0x01 ->
      let b = byte buf pos lim 1 in
      Mov_rr (hi_reg b, lo_reg b)
  | 0x02 -> Mov_ri (reg buf pos lim 1, i64 buf pos lim 2)
  | 0x03 -> Load (reg buf pos lim 1, reg buf pos lim 2, i32 buf pos lim 3)
  | 0x04 -> Store (reg buf pos lim 1, i32 buf pos lim 3, reg buf pos lim 2)
  | 0x05 -> Load8 (reg buf pos lim 1, reg buf pos lim 2, i32 buf pos lim 3)
  | 0x06 -> Store8 (reg buf pos lim 1, i32 buf pos lim 3, reg buf pos lim 2)
  | 0x10 ->
      let b = byte buf pos lim 1 in
      Add_rr (hi_reg b, lo_reg b)
  | 0x11 -> Add_ri (reg buf pos lim 1, i32 buf pos lim 2)
  | 0x12 ->
      let b = byte buf pos lim 1 in
      Sub_rr (hi_reg b, lo_reg b)
  | 0x13 -> Sub_ri (reg buf pos lim 1, i32 buf pos lim 2)
  | 0x14 ->
      let b = byte buf pos lim 1 in
      Imul_rr (hi_reg b, lo_reg b)
  | 0x15 ->
      let b = byte buf pos lim 1 in
      Idiv_rr (hi_reg b, lo_reg b)
  | 0x16 ->
      let b = byte buf pos lim 1 in
      Imod_rr (hi_reg b, lo_reg b)
  | 0x17 ->
      let b = byte buf pos lim 1 in
      And_rr (hi_reg b, lo_reg b)
  | 0x18 ->
      let b = byte buf pos lim 1 in
      Or_rr (hi_reg b, lo_reg b)
  | 0x19 ->
      let b = byte buf pos lim 1 in
      Xor_rr (hi_reg b, lo_reg b)
  | 0x1A -> Shl_ri (reg buf pos lim 1, byte buf pos lim 2 land 63)
  | 0x1B -> Shr_ri (reg buf pos lim 1, byte buf pos lim 2 land 63)
  | 0x1C -> Sar_ri (reg buf pos lim 1, byte buf pos lim 2 land 63)
  | 0x1D ->
      let b = byte buf pos lim 1 in
      Shl_rr (hi_reg b, lo_reg b)
  | 0x1E ->
      let b = byte buf pos lim 1 in
      Shr_rr (hi_reg b, lo_reg b)
  | 0x1F -> Neg (reg buf pos lim 1)
  | 0x20 -> Not (reg buf pos lim 1)
  | 0x21 ->
      let b = byte buf pos lim 1 in
      Cmp_rr (hi_reg b, lo_reg b)
  | 0x22 -> Cmp_ri (reg buf pos lim 1, i32 buf pos lim 2)
  | 0x23 ->
      let b = byte buf pos lim 1 in
      Test_rr (hi_reg b, lo_reg b)
  | 0x30 -> Jmp (i32 buf pos lim 1)
  | 0x31 ->
      let c = byte buf pos lim 1 in
      if c > 9 then raise (Invalid_opcode op) else Jcc (cond_of_int c, i32 buf pos lim 2)
  | 0x32 -> Call (i32 buf pos lim 1)
  | 0x33 -> Call_r (reg buf pos lim 1)
  | 0x34 -> Jmp_r (reg buf pos lim 1)
  | 0x36 -> Push (reg buf pos lim 1)
  | 0x37 -> Pop (reg buf pos lim 1)
  | 0x41 -> Lea (reg buf pos lim 1, i32 buf pos lim 2)
  | op -> raise (Invalid_opcode op)

(** Decode a single instruction out of [buf] at [pos], with its length. *)
let decode_at (buf : bytes) (pos : int) : Insn.t * int =
  let i = decode_in buf pos (Bytes.length buf) in
  (i, Insn.length i)

(* ---------- shape scan: length, terminator, branch target ---------- *)

(** Block-terminator codes, as {!scan} reports them: 0 for an
    instruction that does not end a basic block, then jmp, jcc, call,
    ret, indirect call or jump, syscall, and int3 or hlt. *)
let term_code (i : Insn.t) =
  match i with
  | Insn.Jmp _ -> 1
  | Insn.Jcc _ -> 2
  | Insn.Call _ -> 3
  | Insn.Ret -> 4
  | Insn.Call_r _ | Insn.Jmp_r _ -> 5
  | Insn.Syscall -> 6
  | Insn.Int3 | Insn.Hlt -> 7
  | _ -> 0

(* Per opcode byte: 0 when no instruction has it, else its encoded
   length [lor] its terminator code [lsl 4]. Built by decoding each
   opcode byte over zero operand bytes, so it is [decode]'s own table
   and the two cannot disagree. *)
let shapes =
  let buf = Bytes.make max_insn_len '\000' in
  Bytes.init 256 (fun op ->
      Bytes.set buf 0 (Char.chr op);
      match decode_at buf 0 with
      | exception Invalid_opcode _ -> '\000'
      | insn, len -> Char.chr (len lor (term_code insn lsl 4)))

(** The encoded length of the instructions whose opcode byte is [op]
    (every vx86 instruction's length follows from its opcode); 0 when
    no instruction has that opcode. *)
let opcode_length op = Char.code (Bytes.get shapes op) land 15

(** The shape of the instruction at [pos] in [buf], without building it:
    [len lor (term lsl 4) lor (rel lsl 8)], with [len] its encoded
    length (at most 10), [term] its {!term_code} and [rel] its signed
    branch displacement from the next instruction (0 unless a direct
    jmp, jcc or call); read them back with [land 15], [lsr 4 land 15]
    and [asr 8]. Raises exactly as {!decode_at} does, and allocates
    nothing. *)
let scan (buf : bytes) pos =
  let size = Bytes.length buf in
  if pos >= size then raise Truncated_insn;
  let op = Char.code (Bytes.get buf pos) in
  let shape = Char.code (Bytes.unsafe_get shapes op) in
  if shape = 0 then raise (Invalid_opcode op);
  let term = shape lsr 4 in
  if term = 2 (* jcc *) then begin
    (* the condition byte is fetched and checked before the rel32 *)
    if pos + 1 >= size then raise Truncated_insn;
    if Char.code (Bytes.unsafe_get buf (pos + 1)) > 9 then raise (Invalid_opcode op)
  end;
  if pos + (shape land 15) > size then raise Truncated_insn;
  (* jmp and call carry their rel32 right after the opcode, jcc after
     the condition byte *)
  match term with
  | 1 | 3 -> shape lor (Int32.to_int (Bytes.get_int32_le buf (pos + 1)) lsl 8)
  | 2 -> shape lor (Int32.to_int (Bytes.get_int32_le buf (pos + 2)) lsl 8)
  | _ -> shape

(** Linear disassembly of a whole byte region, as
    [(offset, insn, len) list]. Stops at the first undecodable byte,
    returning what was decoded so far plus the bad offset. *)
let disassemble (buf : bytes) : (int * Insn.t * int) list * int option =
  let rec go pos acc =
    if pos >= Bytes.length buf then (List.rev acc, None)
    else
      match decode_at buf pos with
      | insn, len -> go (pos + len) ((pos, insn, len) :: acc)
      | exception (Invalid_opcode _ | Truncated_insn) -> (List.rev acc, Some pos)
  in
  go 0 []

let pp_listing fmt (buf : bytes) ~(base : int64) =
  let insns, bad = disassemble buf in
  List.iter
    (fun (off, insn, _len) ->
      Format.fprintf fmt "%16Lx: %a@." (Int64.add base (Int64.of_int off)) Insn.pp insn)
    insns;
  match bad with
  | None -> ()
  | Some pos -> Format.fprintf fmt "%16Lx: <undecodable>@." (Int64.add base (Int64.of_int pos))
