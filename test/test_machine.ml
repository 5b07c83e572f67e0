(** End-to-end substrate tests: compile MiniC, link against libc, load,
    run on the machine; signals, forks, sockets, traps. *)

open Dsl

let libc = Libc.build ()

(** Compile+link a MiniC unit, install it and libc in a fresh machine,
    spawn it, run to completion; returns (machine, proc). *)
let boot ?(seed = 7) ?(max_cycles = 2_000_000) (u : Ast.comp_unit) =
  let m = Machine.create ~seed () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  let app = Crt0.link_app ~libc u in
  Vfs.add_self m.Machine.fs u.Ast.cu_name app;
  let p = Machine.spawn m ~exe_path:u.Ast.cu_name () in
  let (_ : [ `Budget | `Dead | `Idle ]) = Machine.run m ~max_cycles in
  (m, p)

let exit_status (p : Proc.t) =
  match p.Proc.state with
  | Proc.Exited c -> `Exit c
  | Proc.Killed s -> `Killed s
  | _ -> `Running

let check_exit ?(expect = 0) p =
  match exit_status p with
  | `Exit c -> Alcotest.(check int) "exit code" expect c
  | `Killed s -> Alcotest.failf "killed by %s" (Abi.signal_name s)
  | `Running -> Alcotest.fail "still running (cycle budget too small?)"

(* ---------- basic execution ---------- *)

let test_hello () =
  let _, p =
    boot (unit_ "hello" [ func "main" [] [ do_ "puts" [ s "hello, world" ]; ret0 ] ])
  in
  check_exit p;
  Alcotest.(check string) "stdout" "hello, world\n" (Proc.peek_stdout p)

let test_arith () =
  let _, p =
    boot
      (unit_ "arith"
         [
           func "main" []
             [
               decl "x" (i 21 *: i 2);
               decl "y" ((v "x" -: i 2) /: i 4);
               (* 40/4 = 10 *)
               decl "z" (v "y" %: i 3);
               (* 1 *)
               ret ((v "x" +: v "y" +: v "z") -: i 53);
             ];
         ])
  in
  check_exit ~expect:0 p

let test_recursion () =
  let _, p =
    boot
      (unit_ "fib"
         [
           func "fib" [ "n" ]
             [
               when_ (v "n" <: i 2) [ ret (v "n") ];
               ret (call "fib" [ v "n" -: i 1 ] +: call "fib" [ v "n" -: i 2 ]);
             ];
           func "main" [] [ ret (call "fib" [ i 12 ] -: i 144) ];
         ])
  in
  check_exit p

let test_globals_and_strings () =
  let _, p =
    boot
      (unit_ "glb"
         ~globals:[ global_q "counter" [ 5L ]; global_zero "buf" 64 ]
         [
           func "main" []
             [
               set "counter" (v "counter" +: i 37);
               do_ "itoa" [ addr "buf"; v "counter" ];
               do_ "puts" [ addr "buf" ];
               ret (v "counter" -: i 42);
             ];
         ])
  in
  check_exit p;
  Alcotest.(check string) "printed" "42\n" (Proc.peek_stdout p)

let test_switch_dispatch () =
  let _, p =
    boot
      (unit_ "sw"
         [
           func "dispatch" [ "k" ]
             [
               switch (v "k")
                 [
                   (1, [ ret (i 100) ]);
                   (2, [ ret (i 200) ]);
                   (7, [ ret (i 700) ]);
                 ]
                 ~default:[ label "dispatch_default"; ret (i 999) ];
             ];
           func "main" []
             [
               when_ (call "dispatch" [ i 1 ] <>: i 100) [ ret (i 1) ];
               when_ (call "dispatch" [ i 2 ] <>: i 200) [ ret (i 2) ];
               when_ (call "dispatch" [ i 7 ] <>: i 700) [ ret (i 3) ];
               when_ (call "dispatch" [ i 4 ] <>: i 999) [ ret (i 4) ];
               ret0;
             ];
         ])
  in
  check_exit p

let test_libc_string_functions () =
  let _, p =
    boot
      (unit_ "strs"
         ~globals:[ global_zero "buf" 64 ]
         [
           func "main" []
             [
               when_ (call "strlen" [ s "abcde" ] <>: i 5) [ ret (i 1) ];
               when_ (call "strcmp" [ s "abc"; s "abc" ] <>: i 0) [ ret (i 2) ];
               when_ (call "strcmp" [ s "abc"; s "abd" ] >=: i 0) [ ret (i 3) ];
               when_ (call "strncmp" [ s "abcX"; s "abcY"; i 3 ] <>: i 0) [ ret (i 4) ];
               do_ "strcpy" [ addr "buf"; s "zzz" ];
               when_ (call "strcmp" [ addr "buf"; s "zzz" ] <>: i 0) [ ret (i 5) ];
               when_ (call "atoi" [ s "-123" ] <>: neg (i 123)) [ ret (i 6) ];
               when_ (call "strchr_idx" [ s "hello"; i 108 ] <>: i 2) [ ret (i 7) ];
               when_ (call "strchr_idx" [ s "hello"; i 122 ] <>: neg (i 1)) [ ret (i 8) ];
               ret0;
             ];
         ])
  in
  check_exit p

(* ---------- faults and signals ---------- *)

let test_divzero_kills () =
  let _, p =
    boot
      (unit_ "dz"
         [ func "main" [] [ decl "z" (i 0); ret (i 5 /: v "z") ] ])
  in
  match exit_status p with
  | `Killed s -> Alcotest.(check int) "SIGFPE" Abi.sigfpe s
  | _ -> Alcotest.fail "expected SIGFPE"

let test_segv_kills () =
  let _, p =
    boot (unit_ "segv" [ func "main" [] [ ret (load64 (i 0x100)) ] ])
  in
  match exit_status p with
  | `Killed s -> Alcotest.(check int) "SIGSEGV" Abi.sigsegv s
  | _ -> Alcotest.fail "expected SIGSEGV"

let test_wx_protection () =
  (* writing to .text must fault: W^X is what forces the verifier handler
     to mprotect before restoring bytes *)
  let _, p =
    boot
      (unit_ "wx"
         [ func "main" [] [ store64 (addr "main") (i 0); ret0 ] ])
  in
  match exit_status p with
  | `Killed s -> Alcotest.(check int) "SIGSEGV" Abi.sigsegv s
  | _ -> Alcotest.fail "expected SIGSEGV on .text write"

let test_mmap_munmap () =
  let _, p =
    boot
      (unit_ "mm"
         [
           func "main" []
             [
               decl "a" (call "mmap" [ i 0; i 8192; i 6 ]);
               when_ (v "a" <=: i 0) [ ret (i 1) ];
               store64 (v "a") (i 77);
               when_ (load64 (v "a") <>: i 77) [ ret (i 2) ];
               do_ "munmap" [ v "a"; i 8192 ];
               ret0;
             ];
         ])
  in
  check_exit p

let test_fork_parent_child () =
  let m, p =
    boot
      (unit_ "fk"
         [
           func "main" []
             [
               decl "pid" (call "fork" []);
               if_ (v "pid" ==: i 0)
                 [ do_ "puts" [ s "child" ]; ret (i 0) ]
                 [ do_ "puts" [ s "parent" ]; ret (i 0) ];
             ];
         ])
  in
  check_exit p;
  Alcotest.(check string) "parent out" "parent\n" (Proc.peek_stdout p);
  let children =
    List.filter (fun (q : Proc.t) -> q.Proc.parent = p.Proc.pid) (Machine.all_procs m)
  in
  match children with
  | [ c ] ->
      Alcotest.(check string) "child out" "child\n" (Proc.peek_stdout c);
      check_exit c
  | l -> Alcotest.failf "expected 1 child, got %d" (List.length l)

let test_sigtrap_default_kills () =
  (* hitting an int3 with no handler terminates the process, like most
     debloating tools' behaviour (§3.2.2) *)
  let items =
    [
      Asm.Section ".text";
      Asm.Global "main";
      Asm.Label "main";
      Asm.Ins Insn.Int3;
      Asm.Ins Insn.Ret;
    ]
  in
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  let obj = Asm.assemble ~name:"trap" (items @ Crt0.items) in
  let self = Link.link_exec ~name:"trap" ~entry:"_start" ~libs:[ libc ] obj in
  Vfs.add_self m.Machine.fs "trap" self;
  let p = Machine.spawn m ~exe_path:"trap" () in
  let (_ : _) = Machine.run m ~max_cycles:10_000 in
  match exit_status p with
  | `Killed s -> Alcotest.(check int) "SIGTRAP" Abi.sigtrap s
  | _ -> Alcotest.fail "expected SIGTRAP kill"

let test_signal_handler_redirect () =
  (* a guest installs a SIGTRAP handler that rewrites the saved rip in the
     frame — the core mechanism of DynaCut's feature blocking *)
  let u =
    unit_ "sig"
      ~globals:[ global_q "resume_at" [ 0L ] ]
      [
        func "handler" [ "signum"; "frame" ]
          [
            expr (v "signum");
            store64 (v "frame" +: i Abi.frame_off_rip) (v "resume_at");
            ret0;
          ];
        func "main" []
          [
            set "resume_at" (addr "after");
            do_ "sigaction" [ i Abi.sigtrap; addr "handler"; addr "restorer" ];
            (* fall into a trap *)
            expr (callp (addr "trapsite") []);
            ret (i 1) (* unreachable if redirect works *);
          ];
      ]
  in
  (* hand-written pieces: a trap site and a restorer *)
  let extra =
    [
      Asm.Section ".text";
      Asm.Global "trapsite";
      Asm.Label "trapsite";
      Asm.Ins Insn.Int3;
      Asm.Ins Insn.Ret;
      Asm.Global "after";
      Asm.Label "after";
      (* exit(0) directly — the redirect lands here with the trap's frame *)
      Asm.Ins (Insn.Mov_ri (Reg.Rdi, 0L));
      Asm.Ins (Insn.Mov_ri (Reg.Rax, Int64.of_int Abi.sys_exit));
      Asm.Ins Insn.Syscall;
      Asm.Global "restorer";
      Asm.Label "restorer";
      Asm.Ins (Insn.Mov_ri (Reg.Rax, Int64.of_int Abi.sys_sigreturn));
      Asm.Ins Insn.Syscall;
    ]
  in
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  let obj = Asm.assemble ~name:"sig" (Compile.compile_unit u @ extra @ Crt0.items) in
  let self = Link.link_exec ~name:"sig" ~entry:"_start" ~libs:[ libc ] obj in
  Vfs.add_self m.Machine.fs "sig" self;
  let p = Machine.spawn m ~exe_path:"sig" () in
  let (_ : _) = Machine.run m ~max_cycles:100_000 in
  check_exit ~expect:0 p

(* ---------- sockets ---------- *)

let echo_server =
  unit_ "echo"
    ~globals:[ global_zero "rbuf" 256 ]
    [
      func "main" []
        [
          decl "sfd" (call "socket" []);
          do_ "bind" [ v "sfd"; i 8080 ];
          do_ "listen" [ v "sfd" ];
          do_ "puts" [ s "listening" ];
          forever
            [
              decl "c" (call "accept" [ v "sfd" ]);
              decl "n" (call "recv" [ v "c"; addr "rbuf"; i 256 ]);
              when_ (v "n" >: i 0) [ do_ "send" [ v "c"; addr "rbuf"; v "n" ] ];
              do_ "close" [ v "c" ];
            ];
          ret0;
        ];
    ]

let test_socket_echo () =
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  Vfs.add_self m.Machine.fs "echo" (Crt0.link_app ~libc echo_server);
  let p = Machine.spawn m ~exe_path:"echo" () in
  (* run until it blocks in accept *)
  (match Machine.run m ~max_cycles:1_000_000 with
  | `Idle -> ()
  | _ -> Alcotest.fail "server should be idle in accept");
  Alcotest.(check string) "banner" "listening\n" (Proc.peek_stdout p);
  let c = Net.connect m.Machine.net 8080 in
  Net.client_send c "ping!";
  let (_ : _) = Machine.run m ~max_cycles:1_000_000 in
  Alcotest.(check string) "echoed" "ping!" (Net.client_recv c);
  (* second connection on the same listener *)
  let c2 = Net.connect m.Machine.net 8080 in
  Net.client_send c2 "again";
  let (_ : _) = Machine.run m ~max_cycles:1_000_000 in
  Alcotest.(check string) "echoed 2" "again" (Net.client_recv c2)

let test_nanosleep_advances_clock () =
  let m, p =
    boot
      (unit_ "slp"
         [
           func "main" []
             [ do_ "nanosleep" [ i 100000 ]; ret (i 0) ];
         ])
  in
  check_exit p;
  Alcotest.(check bool) "clock advanced" true (m.Machine.clock >= 100_000L)

(* ---------- memory unit tests ---------- *)

let test_mem_map_read_write () =
  let mem = Mem.create () in
  let (_ : Mem.vma) =
    Mem.map mem ~vaddr:0x1000L ~len:4096 ~prot:Self.prot_rw ~name:"t" ()
  in
  Mem.write64 mem 0x1008L 0xdeadbeefL;
  Alcotest.(check int64) "rw64" 0xdeadbeefL (Mem.read64 mem 0x1008L)

let test_mem_prot_enforced () =
  let mem = Mem.create () in
  let (_ : Mem.vma) =
    Mem.map mem ~vaddr:0x1000L ~len:4096 ~prot:Self.prot_ro ~name:"t" ()
  in
  Alcotest.check_raises "write to ro" (Mem.Fault (0x1000L, Mem.Write)) (fun () ->
      Mem.write8 mem 0x1000L 1);
  Alcotest.check_raises "exec of ro" (Mem.Fault (0x1000L, Mem.Exec)) (fun () ->
      ignore (Mem.fetch8 mem 0x1000L))

let test_mem_unmap_splits_vma () =
  let mem = Mem.create () in
  let (_ : Mem.vma) =
    Mem.map mem ~vaddr:0x10000L ~len:(3 * 4096) ~prot:Self.prot_rw ~name:"t" ()
  in
  Mem.unmap mem ~vaddr:0x11000L ~len:4096;
  Alcotest.(check int) "two vmas" 2 (List.length mem.Mem.vmas);
  Alcotest.check_raises "hole faults" (Mem.Fault (0x11000L, Mem.Read)) (fun () ->
      ignore (Mem.read8 mem 0x11000L));
  (* neighbours still alive *)
  Mem.write8 mem 0x10000L 1;
  Mem.write8 mem 0x12000L 2

let test_mem_mprotect_partial () =
  let mem = Mem.create () in
  let (_ : Mem.vma) =
    Mem.map mem ~vaddr:0x10000L ~len:(2 * 4096) ~prot:Self.prot_rw ~name:"t" ()
  in
  Mem.protect mem ~vaddr:0x11000L ~len:4096 ~prot:Self.prot_ro;
  Mem.write8 mem 0x10000L 1;
  Alcotest.check_raises "ro page" (Mem.Fault (0x11000L, Mem.Write)) (fun () ->
      Mem.write8 mem 0x11000L 1);
  Alcotest.(check int) "split vmas" 2 (List.length mem.Mem.vmas)

let test_mem_copy_independent () =
  let mem = Mem.create () in
  let (_ : Mem.vma) =
    Mem.map mem ~vaddr:0x1000L ~len:4096 ~prot:Self.prot_rw ~name:"t" ()
  in
  Mem.write64 mem 0x1000L 1L;
  let c = Mem.copy mem in
  Mem.write64 mem 0x1000L 2L;
  Alcotest.(check int64) "copy unchanged" 1L (Mem.read64 c 0x1000L)

(* ---------- demand-zero anonymous memory ---------- *)

(* a fresh 4-page read-write mapping at 0x10000, nothing touched *)
let fresh4 () =
  let mem = Mem.create () in
  let v = Mem.map mem ~vaddr:0x10000L ~len:(4 * 4096) ~prot:Self.prot_rw ~name:"t" () in
  (mem, v)

let resident mem v = List.map fst (Mem.pages_of_vma mem v)

let test_mem_untouched_reads_zero () =
  let mem, v = fresh4 () in
  Alcotest.(check (list int64)) "map makes no page" [] (resident mem v);
  Alcotest.(check int64) "untouched page reads zero" 0L (Mem.read64 mem 0x11008L);
  Alcotest.(check int) "and its last byte" 0 (Mem.read8 mem 0x13fffL)

let test_mem_observers_make_no_page () =
  let mem, v = fresh4 () in
  Mem.write8 mem 0x12000L 7;
  let before = resident mem v in
  Alcotest.(check int) "peek8 of an untouched page" 0 (Mem.peek8 mem 0x10010L);
  Alcotest.(check string) "peek_bytes across the whole mapping"
    (String.make 0x2000 '\x00' ^ "\x07" ^ String.make (0x2000 - 1) '\x00')
    (Bytes.to_string (Mem.peek_bytes mem 0x10000L (4 * 4096)));
  Alcotest.(check (list int64)) "observers made no page" before (resident mem v);
  Alcotest.check_raises "peek8 outside every vma faults" (Mem.Fault (0x20000L, Mem.Read))
    (fun () -> ignore (Mem.peek8 mem 0x20000L))

let test_mem_store_makes_one_page () =
  let mem, v = fresh4 () in
  Mem.write64 mem 0x11ff0L 0x1122334455667788L;
  Alcotest.(check (list int64)) "one store, one page" [ 0x11000L ] (resident mem v);
  Alcotest.(check int64) "the store landed" 0x1122334455667788L (Mem.read64 mem 0x11ff0L)

let test_mem_protect_before_touch () =
  let mem, _ = fresh4 () in
  Mem.protect mem ~vaddr:0x11000L ~len:4096 ~prot:Self.prot_ro;
  Alcotest.check_raises "first touch is a write to a read-only page"
    (Mem.Fault (0x11000L, Mem.Write)) (fun () -> Mem.write8 mem 0x11000L 1);
  Alcotest.(check int) "it reads zero" 0 (Mem.read8 mem 0x11000L);
  (match Mem.pages_of_vma mem (List.find (fun w -> w.Mem.va_start = 0x11000L) mem.Mem.vmas) with
  | [ (_, pg) ] ->
      Alcotest.(check bool) "made with the new protection" true
        (pg.Mem.pg_prot = Self.prot_ro)
  | _ -> Alcotest.fail "the read made no page");
  Mem.write8 mem 0x12000L 1;
  Alcotest.(check int) "the neighbour keeps its protection" 1 (Mem.read8 mem 0x12000L)

let test_mem_fork_keeps_resident_set () =
  let mem, v = fresh4 () in
  Mem.write8 mem 0x10000L 1;
  Mem.write8 mem 0x13000L 2;
  let child = Mem.copy mem in
  Alcotest.(check (list int64)) "child resident set" (resident mem v) (resident child v);
  Alcotest.(check int) "an untouched page reads zero in the child" 0 (Mem.read8 child 0x11000L);
  Alcotest.(check (list int64)) "parent unchanged by the child's touch"
    [ 0x10000L; 0x13000L ] (resident mem v)

let prop_mem_rw_roundtrip =
  QCheck.Test.make ~name:"mem 64-bit write/read roundtrip" ~count:300
    QCheck.(pair (int_range 0 4088) (map Int64.of_int int))
    (fun (off, value) ->
      let mem = Mem.create () in
      let (_ : Mem.vma) =
        Mem.map mem ~vaddr:0x4000L ~len:4096 ~prot:Self.prot_rw ~name:"t" ()
      in
      Mem.write64 mem (Int64.add 0x4000L (Int64.of_int off)) value;
      Mem.read64 mem (Int64.add 0x4000L (Int64.of_int off)) = value)

let suite =
  [
    Alcotest.test_case "hello world" `Quick test_hello;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "globals + itoa" `Quick test_globals_and_strings;
    Alcotest.test_case "switch dispatch" `Quick test_switch_dispatch;
    Alcotest.test_case "libc string functions" `Quick test_libc_string_functions;
    Alcotest.test_case "div by zero -> SIGFPE" `Quick test_divzero_kills;
    Alcotest.test_case "bad load -> SIGSEGV" `Quick test_segv_kills;
    Alcotest.test_case "W^X enforced" `Quick test_wx_protection;
    Alcotest.test_case "mmap/munmap" `Quick test_mmap_munmap;
    Alcotest.test_case "fork" `Quick test_fork_parent_child;
    Alcotest.test_case "int3 default-kills" `Quick test_sigtrap_default_kills;
    Alcotest.test_case "SIGTRAP handler redirects rip" `Quick test_signal_handler_redirect;
    Alcotest.test_case "socket echo" `Quick test_socket_echo;
    Alcotest.test_case "nanosleep virtual time" `Quick test_nanosleep_advances_clock;
    Alcotest.test_case "mem map/read/write" `Quick test_mem_map_read_write;
    Alcotest.test_case "mem protections" `Quick test_mem_prot_enforced;
    Alcotest.test_case "mem unmap splits" `Quick test_mem_unmap_splits_vma;
    Alcotest.test_case "mem mprotect partial" `Quick test_mem_mprotect_partial;
    Alcotest.test_case "mem copy independent" `Quick test_mem_copy_independent;
    Alcotest.test_case "mem untouched page reads zero" `Quick test_mem_untouched_reads_zero;
    Alcotest.test_case "mem observers make no page" `Quick test_mem_observers_make_no_page;
    Alcotest.test_case "mem one store makes one page" `Quick test_mem_store_makes_one_page;
    Alcotest.test_case "mem mprotect before first touch" `Quick test_mem_protect_before_touch;
    Alcotest.test_case "mem fork keeps the resident set" `Quick test_mem_fork_keeps_resident_set;
    QCheck_alcotest.to_alcotest prop_mem_rw_roundtrip;
  ]
