(** The injectable SIGTRAP handler library, [dynacut_handler.so]
    (paper §3.2.2–§3.2.3 and Figure 5).

    Position-independent shared object containing:
    - [dc_handler(signum, frame)] — the fault handler. Reads the saved
      instruction pointer from the signal frame, looks it up in the policy
      table and either {b redirects} the saved rip to the application's
      default error path, {b terminates}, or — in {b verifier} mode —
      restores the original first byte of the block, logs the false
      positive, and retries (§3.2.3).
    - [__dc_restorer] — the sigreturn trampoline registered as the
      sigaction restorer (the paper's 9-byte [rt_sigreturn] stub).
    - a [.data] policy area that DynaCut's injector patches: mode, table
      length, and (address, payload) pairs.

    The library calls libc's [exit] and [mprotect] through its own
    PLT/GOT, which is exactly why DynaCut must perform PLT relocations
    when injecting it (§3.3). *)

open Dsl

(** Policy modes stored in [dc_mode]. *)
let mode_terminate = 0L

let mode_redirect = 1L
let mode_verify = 2L

let max_table_entries = 4096
let max_log_entries = 4096

(** Exit status used when a blocked feature is touched under the
    terminate policy; distinctive so tests can assert on it. *)
let blocked_exit_status = 13

let minic =
  unit_ "dynacut_handler"
    ~globals:
      [
        global_q "dc_mode" [ mode_terminate ];
        global_q "dc_table_len" [ 0L ];
        global_zero "dc_table" (max_table_entries * 16);
        global_q "dc_log_len" [ 0L ];
        global_zero "dc_log" (max_log_entries * 8);
        global_q "dc_hits" [ 0L ];
      ]
    [
      func "dc_handler" [ "signum"; "frame" ]
        [
          expr (v "signum");
          decl "rip" (load64 (v "frame" +: i Abi.frame_off_rip));
          decl "mode" (v "dc_mode");
          set "dc_hits" (v "dc_hits" +: i 1);
          when_ (v "mode" ==: i 0) [ do_ "exit" [ i blocked_exit_status ] ];
          decl "n" (v "dc_table_len");
          decl "t" (addr "dc_table");
          decl "k" (i 0);
          decl "entry" (i 0);
          while_ (v "k" <: v "n")
            [
              set "entry" (v "t" +: (v "k" *: i 16));
              when_
                (load64 (v "entry") ==: v "rip")
                [
                  if_ (v "mode" ==: i 1)
                    [
                      (* redirect: rewrite the saved instruction pointer so
                         sigreturn lands on the error path (Figure 5, step 3) *)
                      store64 (v "frame" +: i Abi.frame_off_rip)
                        (load64 (v "entry" +: i 8));
                      ret (i 0);
                    ]
                    [
                      (* verifier: restore the original byte and retry *)
                      decl "page" ((v "rip" >>: i 12) <<: i 12);
                      do_ "mprotect" [ v "page"; i 4096; i 7 ];
                      store8 (v "rip") (load64 (v "entry" +: i 8));
                      do_ "mprotect" [ v "page"; i 4096; i 5 ];
                      decl "ln" (v "dc_log_len");
                      store64 (addr "dc_log" +: (v "ln" *: i 8)) (v "rip");
                      set "dc_log_len" (v "ln" +: i 1);
                      ret (i 0);
                    ];
                ];
              set "k" (v "k" +: i 1);
            ];
          (* rip not in the table: fail closed *)
          do_ "exit" [ i blocked_exit_status ];
          ret0;
        ];
    ]

(* The signal restorer: rt_sigreturn with rsp at the frame base. *)
let restorer_items =
  [
    Asm.Section ".text";
    Asm.Align 16;
    Asm.Global "__dc_restorer";
    Asm.Label "__dc_restorer";
    Asm.Ins (Insn.Mov_ri (Reg.Rax, Int64.of_int Abi.sys_sigreturn));
    Asm.Ins Insn.Syscall;
  ]

(** Build [dynacut_handler.so] against a given libc. *)
let build ~libc () : Self.t =
  let items = Compile.compile_unit minic @ restorer_items in
  let obj = Asm.assemble ~name:"dynacut_handler" items in
  Link.link_shared ~name:"dynacut_handler.so" ~libs:[ libc ] obj

(* Injection reads the library and copies what it patches, so one linked
   copy serves every session. *)
let shared = lazy (build ~libc:(Lazy.force Libc.shared) ())

(* --- symbol names the DynaCut injector patches --- *)

let sym_handler = "dc_handler"
let sym_restorer = "__dc_restorer"
let sym_mode = "dc_mode"
let sym_table_len = "dc_table_len"
let sym_table = "dc_table"
let sym_log_len = "dc_log_len"
let sym_log = "dc_log"
let sym_hits = "dc_hits"
