(** The guest C library, [libc.so].

    Two layers, like a real libc:
    - raw syscall wrappers (hand-written vx86: load the syscall number,
      [syscall], [ret] — arguments are already in the right registers);
    - string/memory/format routines compiled from MiniC, so the library
      has real loops and basic blocks. The paper's tracediff filters
      library blocks out of feature diffs (§3.1), and its PLT analysis
      counts entries pointing at these functions (§4.2) — both need a
      libc with genuine code in it. *)

open Dsl

let syswrap name nr =
  [
    Asm.Align 16;
    Asm.Global name;
    Asm.Label name;
    Asm.Ins (Insn.Mov_ri (Reg.Rax, Int64.of_int nr));
    Asm.Ins Insn.Syscall;
    Asm.Ins Insn.Ret;
  ]

let syscall_wrappers () =
  List.concat_map
    (fun (name, nr) -> syswrap name nr)
    [
      ("exit", Abi.sys_exit);
      ("write", Abi.sys_write);
      ("read", Abi.sys_read);
      ("open", Abi.sys_open);
      ("close", Abi.sys_close);
      ("mmap", Abi.sys_mmap);
      ("munmap", Abi.sys_munmap);
      ("mprotect", Abi.sys_mprotect);
      ("fork", Abi.sys_fork);
      ("sigaction", Abi.sys_sigaction);
      ("nanosleep", Abi.sys_nanosleep);
      ("getpid", Abi.sys_getpid);
      ("socket", Abi.sys_socket);
      ("bind", Abi.sys_bind);
      ("listen", Abi.sys_listen);
      ("accept", Abi.sys_accept);
      ("recv", Abi.sys_recv);
      ("send", Abi.sys_send);
      ("gettime", Abi.sys_gettime);
      ("kill", Abi.sys_kill);
      ("rand", Abi.sys_rand);
    ]

(* MiniC layer *)
let minic () =
  unit_ "libc"
    ~globals:[ global_zero "__itoa_buf" 32; global_zero "__itoa_tmp" 32 ]
    [
      func "strlen" [ "p" ]
        [
          decl "n" (i 0);
          while_ (load8 (v "p" +: v "n") <>: i 0) [ set "n" (v "n" +: i 1) ];
          ret (v "n");
        ];
      func "strcmp" [ "a"; "b" ]
        [
          decl "ca" (i 0);
          decl "cb" (i 0);
          forever
            [
              set "ca" (load8 (v "a"));
              set "cb" (load8 (v "b"));
              when_ (v "ca" <>: v "cb") [ ret (v "ca" -: v "cb") ];
              when_ (v "ca" ==: i 0) [ ret (i 0) ];
              set "a" (v "a" +: i 1);
              set "b" (v "b" +: i 1);
            ];
          ret0;
        ];
      func "strncmp" [ "a"; "b"; "n" ]
        [
          decl "ca" (i 0);
          decl "cb" (i 0);
          while_ (v "n" >: i 0)
            [
              set "ca" (load8 (v "a"));
              set "cb" (load8 (v "b"));
              when_ (v "ca" <>: v "cb") [ ret (v "ca" -: v "cb") ];
              when_ (v "ca" ==: i 0) [ ret (i 0) ];
              set "a" (v "a" +: i 1);
              set "b" (v "b" +: i 1);
              set "n" (v "n" -: i 1);
            ];
          ret (i 0);
        ];
      func "memcpy" [ "d"; "src"; "n" ]
        [
          decl "k" (i 0);
          while_ (v "k" <: v "n")
            [
              store8 (v "d" +: v "k") (load8 (v "src" +: v "k"));
              set "k" (v "k" +: i 1);
            ];
          ret (v "d");
        ];
      func "memset" [ "d"; "c"; "n" ]
        [
          decl "k" (i 0);
          while_ (v "k" <: v "n")
            [ store8 (v "d" +: v "k") (v "c"); set "k" (v "k" +: i 1) ];
          ret (v "d");
        ];
      func "strcpy" [ "d"; "src" ]
        [
          decl "k" (i 0);
          decl "c" (i 1);
          while_ (v "c" <>: i 0)
            [
              set "c" (load8 (v "src" +: v "k"));
              store8 (v "d" +: v "k") (v "c");
              set "k" (v "k" +: i 1);
            ];
          ret (v "d");
        ];
      (* find [c] in [s]; index or -1 *)
      func "strchr_idx" [ "p"; "c" ]
        [
          decl "k" (i 0);
          decl "ch" (i 0);
          forever
            [
              set "ch" (load8 (v "p" +: v "k"));
              when_ (v "ch" ==: v "c") [ ret (v "k") ];
              when_ (v "ch" ==: i 0) [ ret (neg (i 1)) ];
              set "k" (v "k" +: i 1);
            ];
          ret0;
        ];
      func "atoi" [ "p" ]
        [
          decl "sign" (i 1);
          decl "val" (i 0);
          decl "c" (i 0);
          when_ (load8 (v "p") ==: i 45 (* '-' *))
            [ set "sign" (neg (i 1)); set "p" (v "p" +: i 1) ];
          forever
            [
              set "c" (load8 (v "p"));
              if_ ((v "c" >=: i 48) &&: (v "c" <=: i 57))
                [
                  set "val" ((v "val" *: i 10) +: (v "c" -: i 48));
                  set "p" (v "p" +: i 1);
                ]
                [ ret (v "val" *: v "sign") ];
            ];
          ret0;
        ];
      (* format [value] as decimal into [buf]; returns length *)
      func "itoa" [ "buf"; "value" ]
        [
          decl "len" (i 0);
          decl "neg" (i 0);
          decl "tmp" (addr "__itoa_tmp");
          decl "k" (i 0);
          when_ (v "value" <: i 0) [ set "neg" (i 1); set "value" (i 0 -: v "value") ];
          if_ (v "value" ==: i 0)
            [ store8 (v "tmp") (i 48); set "k" (i 1) ]
            [
              while_ (v "value" >: i 0)
                [
                  store8 (v "tmp" +: v "k") ((v "value" %: i 10) +: i 48);
                  set "value" (v "value" /: i 10);
                  set "k" (v "k" +: i 1);
                ];
            ];
          when_ (v "neg" ==: i 1)
            [ store8 (v "buf") (i 45); set "len" (i 1) ];
          (* reverse digits into buf *)
          while_ (v "k" >: i 0)
            [
              set "k" (v "k" -: i 1);
              store8 (v "buf" +: v "len") (load8 (v "tmp" +: v "k"));
              set "len" (v "len" +: i 1);
            ];
          store8 (v "buf" +: v "len") (i 0);
          ret (v "len");
        ];
      func "puts" [ "p" ]
        [
          do_ "write" [ i 1; v "p"; call "strlen" [ v "p" ] ];
          ret (call "write" [ i 1; s "\n"; i 1 ]);
        ];
      (* write a string then a decimal then a newline to stdout: the log
         line servers print when initialization completes *)
      func "log_kv" [ "msg"; "value" ]
        [
          do_ "write" [ i 1; v "msg"; call "strlen" [ v "msg" ] ];
          decl "n" (call "itoa" [ addr "__itoa_buf"; v "value" ]);
          do_ "write" [ i 1; addr "__itoa_buf"; v "n" ];
          ret (call "write" [ i 1; s "\n"; i 1 ]);
        ];
    ]

(** Build and link [libc.so]. *)
let build () : Self.t =
  let items = Compile.compile_unit (minic ()) @ (Asm.Section ".text" :: syscall_wrappers ()) in
  let obj = Asm.assemble ~name:"libc" items in
  Link.link_shared ~name:"libc.so" obj

(** [libc.so] built once per process, and its serialized image: the
    file every workload machine's filesystem holds. *)
let shared = lazy (build ())

let shared_so = lazy (Self.to_bytes (Lazy.force shared))
