(** Process startup stub: [_start] calls [main] and passes its return
    value to [exit]. Appended to every application object before linking. *)

let items =
  [
    Asm.Section ".text";
    Asm.Global "_start";
    Asm.Label "_start";
    Asm.Call_sym "main";
    Asm.Ins (Insn.Mov_rr (Reg.Rdi, Reg.Rax));
    Asm.Ins (Insn.Mov_ri (Reg.Rax, Int64.of_int Abi.sys_exit));
    Asm.Ins Insn.Syscall;
  ]

(** Build a complete application: compile the MiniC unit, add [_start],
    link against libc. [func_align] = 4096 gives the page-per-function
    layout for unmap-based feature unloading (paper §5). *)
let link_app ?func_align ~libc (u : Ast.comp_unit) : Self.t =
  let obj =
    Asm.assemble ~name:u.Ast.cu_name (Compile.compile_unit ?func_align u @ items)
  in
  Link.link_exec ~name:u.Ast.cu_name ~entry:"_start" ~libs:[ libc ] obj
