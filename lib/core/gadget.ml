(** ROP-gadget census over checkpoint images (paper §4.2, BROP/ret2plt
    analysis).

    A gadget is a short instruction sequence ending in [ret] that an
    attacker can enter at *any* byte offset. We scan every executable
    byte of every mapped page: decode forward up to [max_insns]; if a
    [ret] is reached, the start offset is a gadget. Wiping a feature with
    [int3] (rather than just patching its first byte) destroys these
    gadgets — the quantitative argument for the aggressive policy. *)

type census = {
  g_exec_bytes : int;  (** executable bytes scanned *)
  g_gadgets : int;  (** distinct gadget start offsets *)
  g_syscall_gadgets : int;  (** gadgets containing a [syscall] *)
}

let max_insns = 5

let scan_bytes (data : bytes) : int * int =
  let len = Bytes.length data in
  let gadgets = ref 0 and sys_gadgets = ref 0 in
  for start = 0 to len - 1 do
    let pos = ref start and steps = ref 0 and stop = ref false and has_sys = ref false in
    while not !stop do
      if !steps >= max_insns || !pos >= len then stop := true
      else
        match Decode.decode_at data !pos with
        | Insn.Ret, _ ->
            incr gadgets;
            if !has_sys then incr sys_gadgets;
            stop := true
        | Insn.Syscall, l ->
            has_sys := true;
            pos := !pos + l;
            incr steps
        | (Insn.Jmp _ | Insn.Jcc _ | Insn.Call _ | Insn.Call_r _ | Insn.Jmp_r _ | Insn.Int3 | Insn.Hlt), _
          ->
            stop := true (* control leaves the straight line *)
        | _, l ->
            pos := !pos + l;
            incr steps
        | exception (Decode.Invalid_opcode _ | Decode.Truncated_insn) -> stop := true
    done
  done;
  (!gadgets, !sys_gadgets)

(** Census over all executable pages of an image. *)
let of_image (img : Images.t) : census =
  let exec_bytes = ref 0 and gadgets = ref 0 and sys = ref 0 in
  List.iter
    (fun (v : Images.vma_img) ->
      let prot = Self.prot_of_int v.Images.vi_prot in
      if prot.Self.p_x then begin
        match Images.read_mem img v.Images.vi_start v.Images.vi_len with
        | data ->
            let g, sg = scan_bytes data in
            exec_bytes := !exec_bytes + Bytes.length data;
            gadgets := !gadgets + g;
            sys := !sys + sg
        | exception Not_found -> () (* unmapped / not dumped *)
      end)
    img.Images.mm;
  { g_exec_bytes = !exec_bytes; g_gadgets = !gadgets; g_syscall_gadgets = !sys }
