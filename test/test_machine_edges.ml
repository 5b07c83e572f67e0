(** Machine edge cases: signal semantics, syscall error paths, scheduler
    behaviour — the corners DynaCut's rewriting leans on. *)

open Dsl

let libc = Test_machine.libc

let boot = Test_machine.boot
let exit_status = Test_machine.exit_status

(* ---------- signals ---------- *)

let test_bad_sigreturn_magic_kills () =
  (* calling sigreturn with rsp pointing at garbage must not be a
     privilege primitive: the kernel validates the frame magic *)
  let items =
    [
      Asm.Section ".text";
      Asm.Global "main";
      Asm.Label "main";
      Asm.Ins (Insn.Mov_ri (Reg.Rax, Int64.of_int Abi.sys_sigreturn));
      Asm.Ins Insn.Syscall;
      Asm.Ins Insn.Ret;
    ]
  in
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  let obj = Asm.assemble ~name:"bsr2" (items @ Crt0.items) in
  Vfs.add_self m.Machine.fs "bsr2" (Link.link_exec ~name:"bsr2" ~entry:"_start" ~libs:[ libc ] obj);
  let p = Machine.spawn m ~exe_path:"bsr2" () in
  let (_ : _) = Machine.run m ~max_cycles:10_000 in
  match p.Proc.state with
  | Proc.Killed s -> Alcotest.(check int) "SIGSEGV" Abi.sigsegv s
  | st -> Alcotest.failf "expected kill, got %s" (Proc.state_to_string st)

let test_sigkill_uncatchable () =
  let u =
    unit_ "skill"
      [
        func "handler" [ "signum"; "frame" ] [ expr (v "signum"); expr (v "frame"); ret0 ];
        func "main" []
          [
            (* try to catch SIGKILL: the kernel must refuse *)
            ret (call "sigaction" [ i Abi.sigkill; addr "handler"; i 0 ]);
          ];
      ]
  in
  let _, p = boot u in
  (match exit_status p with
  | `Exit c -> Alcotest.(check bool) "sigaction(SIGKILL) rejected" true (c <> 0)
  | _ -> Alcotest.fail "expected exit");
  (* and SIGKILL posted from outside always kills *)
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  Vfs.add_self m.Machine.fs "loop"
    (Crt0.link_app ~libc (unit_ "loop" [ func "main" [] [ forever [ expr (i 1) ]; ret0 ] ]));
  let p = Machine.spawn m ~exe_path:"loop" () in
  let (_ : _) = Machine.run m ~max_cycles:5_000 in
  Machine.post_signal m ~pid:p.Proc.pid ~signum:Abi.sigkill;
  match p.Proc.state with
  | Proc.Killed s -> Alcotest.(check int) "SIGKILL" Abi.sigkill s
  | st -> Alcotest.failf "not killed: %s" (Proc.state_to_string st)

let test_signal_interrupts_blocked_accept () =
  (* deliver a handled signal to a process blocked in accept: the handler
     runs, sigreturn re-executes the syscall, the server still accepts *)
  let u =
    unit_ "sia"
      ~globals:[ global_q "sig_count" [ 0L ]; global_zero "rb" 64 ]
      [
        func "handler" [ "signum"; "frame" ]
          [
            expr (v "signum");
            expr (v "frame");
            set "sig_count" (v "sig_count" +: i 1);
            ret0;
          ];
        func "main" []
          [
            do_ "sigaction" [ i Abi.sigterm; addr "handler"; addr "rst" ];
            decl "sfd" (call "socket" []);
            do_ "bind" [ v "sfd"; i 9300 ];
            do_ "listen" [ v "sfd" ];
            forever
              [
                decl "c" (call "accept" [ v "sfd" ]);
                decl "n" (call "recv" [ v "c"; addr "rb"; i 64 ]);
                expr (v "n");
                do_ "send" [ v "c"; s "ok"; i 2 ];
                do_ "close" [ v "c" ];
              ];
            ret0;
          ];
      ]
  in
  let rst =
    [
      Asm.Section ".text";
      Asm.Global "rst";
      Asm.Label "rst";
      Asm.Ins (Insn.Mov_ri (Reg.Rax, Int64.of_int Abi.sys_sigreturn));
      Asm.Ins Insn.Syscall;
    ]
  in
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  let obj = Asm.assemble ~name:"sia" (Compile.compile_unit u @ rst @ Crt0.items) in
  Vfs.add_self m.Machine.fs "sia" (Link.link_exec ~name:"sia" ~entry:"_start" ~libs:[ libc ] obj);
  let p = Machine.spawn m ~exe_path:"sia" () in
  let (_ : _) = Machine.run m ~max_cycles:1_000_000 in
  Alcotest.(check bool) "blocked in accept" true
    (match p.Proc.state with Proc.Blocked (Proc.On_accept _) -> true | _ -> false);
  Machine.post_signal m ~pid:p.Proc.pid ~signum:Abi.sigterm;
  let (_ : _) = Machine.run m ~max_cycles:100_000 in
  (* handler ran, then the syscall restarted and blocked again *)
  let exe = Option.get (Vfs.find_self m.Machine.fs "sia") in
  let sc = Option.get (Self.find_symbol exe "sig_count") in
  let v = Mem.read64 p.Proc.mem (Int64.add exe.Self.base (Int64.of_int sc.Self.sym_off)) in
  Alcotest.(check int64) "handler ran once" 1L v;
  Alcotest.(check bool) "re-blocked" true
    (match p.Proc.state with Proc.Blocked (Proc.On_accept _) -> true | _ -> false);
  (* and the server still serves *)
  let c = Net.connect m.Machine.net 9300 in
  Net.client_send c "x";
  let (_ : _) = Machine.run m ~max_cycles:1_000_000 in
  Alcotest.(check string) "serves after signal" "ok" (Net.client_recv c)

(* ---------- syscall error paths ---------- *)

let test_syscall_errors () =
  let _, p =
    boot
      (unit_ "errs"
         ~globals:[ global_zero "b" 16 ]
         [
           func "main" []
             [
               (* open missing file *)
               when_ (call "open" [ s "/nope" ] <>: i Abi.enoent) [ ret (i 1) ];
               (* read on a bad fd *)
               when_ (call "read" [ i 99; addr "b"; i 4 ] <>: i Abi.ebadf) [ ret (i 2) ];
               (* write to a listener fd *)
               decl "sfd" (call "socket" []);
               when_ (call "write" [ v "sfd"; addr "b"; i 1 ] <>: i Abi.einval) [ ret (i 3) ];
               (* close twice *)
               when_ (call "close" [ v "sfd" ] <>: i 0) [ ret (i 4) ];
               when_ (call "close" [ v "sfd" ] <>: i Abi.ebadf) [ ret (i 5) ];
               (* mmap at an occupied fixed address *)
               decl "a" (call "mmap" [ i 0; i 4096; i 6 ]);
               when_ (call "mmap" [ v "a"; i 4096; i 6 ] <>: i Abi.enomem) [ ret (i 6) ];
               (* unknown syscall via raw number is exercised in asm below *)
               ret0;
             ];
         ])
  in
  Test_machine.check_exit p

let test_file_read_to_eof () =
  let m = Machine.create () in
  Vfs.add m.Machine.fs "/f" "abcdef";
  Vfs.add_self m.Machine.fs "libc.so" libc;
  let u =
    unit_ "eof"
      ~globals:[ global_zero "b" 16 ]
      [
        func "main" []
          [
            decl "fd" (call "open" [ s "/f" ]);
            when_ (call "read" [ v "fd"; addr "b"; i 4 ] <>: i 4) [ ret (i 1) ];
            when_ (call "read" [ v "fd"; addr "b"; i 4 ] <>: i 2) [ ret (i 2) ];
            when_ (call "read" [ v "fd"; addr "b"; i 4 ] <>: i 0) [ ret (i 3) ];
            ret0;
          ];
      ]
  in
  Vfs.add_self m.Machine.fs "eof" (Crt0.link_app ~libc u);
  let p = Machine.spawn m ~exe_path:"eof" () in
  let (_ : _) = Machine.run m ~max_cycles:200_000 in
  Test_machine.check_exit p

let test_gettime_monotonic () =
  let _, p =
    boot
      (unit_ "gt"
         [
           func "main" []
             [
               decl "a" (call "gettime" []);
               decl "b" (call "gettime" []);
               when_ (v "b" <=: v "a") [ ret (i 1) ];
               ret0;
             ];
         ])
  in
  Test_machine.check_exit p

let test_guest_kill_guest () =
  (* parent forks a looping child and SIGKILLs it *)
  let _, p =
    boot
      (unit_ "gk"
         [
           func "main" []
             [
               decl "pid" (call "fork" []);
               when_ (v "pid" ==: i 0) [ forever [ expr (i 1) ]; ret0 ];
               do_ "nanosleep" [ i 2000 ];
               do_ "kill" [ v "pid"; i Abi.sigkill ];
               ret0;
             ];
         ])
  in
  Test_machine.check_exit p

let test_hlt_kills () =
  let items =
    [
      Asm.Section ".text";
      Asm.Global "main";
      Asm.Label "main";
      Asm.Ins Insn.Hlt;
      Asm.Ins Insn.Ret;
    ]
  in
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  let obj = Asm.assemble ~name:"h" (items @ Crt0.items) in
  Vfs.add_self m.Machine.fs "h" (Link.link_exec ~name:"h" ~entry:"_start" ~libs:[ libc ] obj);
  let p = Machine.spawn m ~exe_path:"h" () in
  let (_ : _) = Machine.run m ~max_cycles:1_000 in
  match p.Proc.state with
  | Proc.Killed s -> Alcotest.(check int) "SIGILL" Abi.sigill s
  | st -> Alcotest.failf "expected kill, got %s" (Proc.state_to_string st)

let test_stack_overflow_double_fault () =
  (* unbounded recursion blows the stack; the fault-during-frame-push
     path must terminate rather than loop *)
  let _, p =
    boot ~max_cycles:20_000_000
      (unit_ "so"
         [
           func "rec" [ "n" ] [ ret (call "rec" [ v "n" +: i 1 ]) ];
           func "main" [] [ ret (call "rec" [ i 0 ]) ];
         ])
  in
  match exit_status p with
  | `Killed s -> Alcotest.(check int) "SIGSEGV" Abi.sigsegv s
  | _ -> Alcotest.fail "expected stack-overflow kill"

let test_scheduler_fairness () =
  (* two forked busy loops plus a sleeper: all make progress *)
  let u =
    unit_ "fair"
      ~globals:[ global_q "a" [ 0L ]; global_q "b" [ 0L ] ]
      [
        func "main" []
          [
            decl "pid" (call "fork" []);
            if_ (v "pid" ==: i 0)
              [
                decl "k" (i 0);
                while_ (v "k" <: i 5000) [ set "a" (v "a" +: i 1); set "k" (v "k" +: i 1) ];
                ret0;
              ]
              [
                decl "k2" (i 0);
                while_ (v "k2" <: i 5000) [ set "b" (v "b" +: i 1); set "k2" (v "k2" +: i 1) ];
                ret0;
              ];
          ];
      ]
  in
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  Vfs.add_self m.Machine.fs "fair" (Crt0.link_app ~libc u);
  let root = Machine.spawn m ~exe_path:"fair" () in
  let (_ : _) = Machine.run m ~max_cycles:10_000_000 in
  List.iter
    (fun (q : Proc.t) -> Alcotest.(check bool) "finished" true (q.Proc.state = Proc.Exited 0))
    (Machine.all_procs m);
  ignore root

let test_frozen_process_not_scheduled () =
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  Vfs.add_self m.Machine.fs "loop"
    (Crt0.link_app ~libc (unit_ "loop" [ func "main" [] [ forever [ expr (i 1) ]; ret0 ] ]));
  let p = Machine.spawn m ~exe_path:"loop" () in
  let (_ : _) = Machine.run m ~max_cycles:1_000 in
  Machine.freeze m ~pid:p.Proc.pid;
  let before = p.Proc.retired in
  let (_ : _) = Machine.run m ~max_cycles:10_000 in
  Alcotest.(check int) "no instructions while frozen" before p.Proc.retired;
  Machine.thaw m ~pid:p.Proc.pid;
  let (_ : _) = Machine.run m ~max_cycles:1_000 in
  Alcotest.(check bool) "runs after thaw" true (p.Proc.retired > before)

(* ---------- multi-listener fan-out (SO_REUSEPORT idiom) ---------- *)

let test_net_fanout_round_robin () =
  let net = Net.create () in
  let l1 = Net.listen ~owner:1 net 9400 in
  let l2 = Net.listen ~owner:2 net 9400 in
  let l3 = Net.listen ~owner:3 net 9400 in
  (* six connections round-robin across the three accepting listeners *)
  let owners =
    List.init 6 (fun _ -> (snd (Net.route net 9400)).Net.l_owner)
  in
  Alcotest.(check (list int)) "rr order" [ 1; 2; 3; 1; 2; 3 ] owners;
  Alcotest.(check int) "l1 backlog" 2 (List.length l1.Net.backlog);
  Alcotest.(check int) "l2 backlog" 2 (List.length l2.Net.backlog);
  Alcotest.(check int) "l3 backlog" 2 (List.length l3.Net.backlog)

let test_net_drain_skips_and_refuses () =
  let net = Net.create () in
  let l1 = Net.listen ~owner:1 net 9401 in
  let l2 = Net.listen ~owner:2 net 9401 in
  (* drained listeners drop out of the rotation... *)
  l1.Net.accepting <- false;
  let owners =
    List.init 3 (fun _ -> (snd (Net.route net 9401)).Net.l_owner)
  in
  Alcotest.(check (list int)) "only l2 serves" [ 2; 2; 2 ] owners;
  (* ...and with every listener drained the connection is refused *)
  l2.Net.accepting <- false;
  (match Net.connect net 9401 with
  | (_ : Net.conn) -> Alcotest.fail "expected Refused"
  | exception Net.Refused p -> Alcotest.(check int) "port" 9401 p);
  (* undrain brings the port back *)
  l1.Net.accepting <- true;
  Alcotest.(check int) "back to l1" 1 (snd (Net.route net 9401)).Net.l_owner

let test_net_owner_keyed_lookup () =
  let net = Net.create () in
  let l1 = Net.listen ~owner:1 net 9402 in
  let l2 = Net.listen ~owner:2 net 9402 in
  (match Net.find_listener_owned net ~port:9402 ~owner:2 with
  | Some l -> Alcotest.(check bool) "owner 2's listener" true (l == l2)
  | None -> Alcotest.fail "owner 2 lost its listener");
  Alcotest.(check bool) "unknown owner"
    true
    (Net.find_listener_owned net ~port:9402 ~owner:99 = None);
  (* sole-listener fallback: a single-app port ignores ownership so
     pre-fleet callers keep working *)
  let sole = Net.listen ~owner:7 net 9403 in
  (match Net.find_listener_owned net ~port:9403 ~owner:99 with
  | Some l -> Alcotest.(check bool) "sole fallback" true (l == sole)
  | None -> Alcotest.fail "sole-listener fallback broken");
  ignore l1

let test_net_bounded_backlog_refuses () =
  let net = Net.create () in
  let l = Net.listen ~owner:1 net 9404 in
  Alcotest.(check bool) "unbounded by default" false (Net.backlog_full l);
  Net.set_backlog_max l 2;
  let c1 = Net.connect net 9404 in
  let (_ : Net.conn) = Net.connect net 9404 in
  Alcotest.(check int) "depth readback" 2 (Net.backlog_depth l);
  Alcotest.(check bool) "full" true (Net.backlog_full l);
  (* a full accept queue bounces the connection instead of queueing it *)
  (match Net.connect net 9404 with
  | (_ : Net.conn) -> Alcotest.fail "expected Refused"
  | exception Net.Refused p -> Alcotest.(check int) "port" 9404 p);
  (* accepting one frees a slot *)
  (match Net.server_accept l with
  | Some _ -> ()
  | None -> Alcotest.fail "accept failed");
  Alcotest.(check bool) "slot freed" false (Net.backlog_full l);
  let (_ : Net.conn) = Net.connect net 9404 in
  Alcotest.(check bool) "full again" true (Net.backlog_full l);
  ignore c1

let test_net_deadline_expiry () =
  let net = Net.create () in
  let (_ : Net.listener) = Net.listen ~owner:1 net 9405 in
  let c = Net.connect net 9405 in
  Alcotest.(check bool) "no deadline by default" false
    (Net.expired c ~now:Int64.max_int);
  Net.set_deadline c 1_000L;
  Alcotest.(check (option int64)) "deadline readback" (Some 1_000L)
    (Net.deadline c);
  Alcotest.(check bool) "before" false (Net.expired c ~now:999L);
  (* inclusive: reaching the deadline exactly counts as expiry, so a
     clock advanced *to* the deadline cannot livelock a poller *)
  Alcotest.(check bool) "at" true (Net.expired c ~now:1_000L);
  Alcotest.(check bool) "after" true (Net.expired c ~now:1_001L)

let test_net_drain_undrain_racing () =
  let net = Net.create () in
  let l1 = Net.listen ~owner:1 net 9406 in
  let l2 = Net.listen ~owner:2 net 9406 in
  let owner () = (snd (Net.route net 9406)).Net.l_owner in
  Alcotest.(check int) "rr starts at l1" 1 (owner ());
  (* drain mid-rotation: the cursor re-targets the survivors *)
  l2.Net.accepting <- false;
  Alcotest.(check int) "l2 drained" 1 (owner ());
  (* flip the drained side between routes *)
  l2.Net.accepting <- true;
  l1.Net.accepting <- false;
  Alcotest.(check int) "flipped to l2" 2 (owner ());
  Alcotest.(check int) "still l2" 2 (owner ());
  (* both drained: refused, not queued *)
  l2.Net.accepting <- false;
  (match Net.route net 9406 with
  | (_ : Net.conn * Net.listener) -> Alcotest.fail "expected Refused"
  | exception Net.Refused p -> Alcotest.(check int) "port" 9406 p);
  (* undrain both: the rotation resumes over the full set *)
  l1.Net.accepting <- true;
  l2.Net.accepting <- true;
  let seen = List.init 4 (fun _ -> owner ()) in
  Alcotest.(check bool) "both serve again" true
    (List.mem 1 seen && List.mem 2 seen)

let test_net_guest_fleet_fanout () =
  (* two guest echo servers bind the same port on one machine; the
     kernel fans incoming connections out across both processes *)
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  Vfs.add_self m.Machine.fs "echo" (Crt0.link_app ~libc Test_machine.echo_server);
  let p1 = Machine.spawn m ~exe_path:"echo" () in
  let p2 = Machine.spawn m ~exe_path:"echo" () in
  let (_ : _) = Machine.run m ~max_cycles:2_000_000 in
  let ls = Net.listeners_on m.Machine.net 8080 in
  Alcotest.(check int) "two listeners on the port" 2 (List.length ls);
  let serve text =
    let c = Net.connect m.Machine.net 8080 in
    Net.client_send c text;
    let (_ : _) = Machine.run m ~max_cycles:1_000_000 in
    Net.client_recv c
  in
  Alcotest.(check string) "echo 1" "one" (serve "one");
  Alcotest.(check string) "echo 2" "two" (serve "two");
  (* both processes served one request each *)
  let retired p = (p : Proc.t).Proc.retired in
  Alcotest.(check bool) "both ran" true
    (retired p1 > 0 && retired p2 > 0);
  (* freeze one worker: its listener stays registered but the live one
     keeps serving both slots of the rotation *)
  Machine.freeze m ~pid:p2.Proc.pid;
  (match Net.find_listener_owned m.Machine.net ~port:8080 ~owner:p2.Proc.pid with
  | Some l -> l.Net.accepting <- false
  | None -> Alcotest.fail "frozen worker lost its listener");
  Alcotest.(check string) "echo 3" "three" (serve "three");
  Alcotest.(check string) "echo 4" "four" (serve "four")

(* ---------- page TLB coherence ---------- *)

(* One fixed vaddr, far from every loader and stack mapping. Its TLB slot
   (page number mod 64 = 32) is shared by none of a small program's
   text, libc or top-of-stack pages, so a cached entry survives from one
   guest step to the next, as a stale one would. *)
let tlb_va = 0x3000_0002_0000L

let test_tlb_coherence_mem () =
  (* the same sequence as the guest programs below, through [Mem]; every
     step first reads the page, so its TLB slot is filled *)
  let m = Mem.create () in
  let map prot = ignore (Mem.map m ~vaddr:tlb_va ~len:Mem.page_size ~prot ~name:"t" ()) in
  let faults f = match f () with _ -> false | exception Mem.Fault _ -> true in
  map Self.prot_rw;
  Mem.write64 m tlb_va 7L;
  Alcotest.(check int64) "read" 7L (Mem.read64 m tlb_va);
  Mem.unmap m ~vaddr:tlb_va ~len:Mem.page_size;
  Alcotest.(check bool) "read after unmap faults" true (faults (fun () -> Mem.read64 m tlb_va));
  map Self.prot_rw;
  Alcotest.(check int64) "re-map reads zeros" 0L (Mem.read64 m tlb_va);
  Mem.write64 m tlb_va 9L;
  Mem.protect m ~vaddr:tlb_va ~len:Mem.page_size ~prot:Self.prot_ro;
  Alcotest.(check bool) "store to read-only faults" true
    (faults (fun () -> Mem.write64 m tlb_va 10L));
  Mem.protect m ~vaddr:tlb_va ~len:Mem.page_size ~prot:Self.prot_rw;
  Mem.write64 m tlb_va 11L;
  Alcotest.(check int64) "store after rw" 11L (Mem.read64 m tlb_va);
  let child = Mem.copy m in
  Mem.write64 child tlb_va 99L;
  Alcotest.(check int64) "child sees its store" 99L (Mem.read64 child tlb_va);
  Alcotest.(check int64) "parent keeps its page" 11L (Mem.read64 m tlb_va);
  Mem.unmap m ~vaddr:tlb_va ~len:Mem.page_size;
  map (Self.prot_of_int 7);
  ignore (Mem.take_exec_dirty m);
  ignore (Mem.read64 m tlb_va);
  Mem.write64 m tlb_va 1L;
  Alcotest.(check (list int64)) "store to exec page marks it dirty" [ Mem.page_index tlb_va ]
    (Mem.take_exec_dirty m)

(* The interpreter reference: a dispatcher degraded from the start
   keeps every step of [m] off the code cache. *)
let interpret (m : Machine.t) = Dispatch.degrade m.Machine.dispatcher

(* Run [main] to the end, out of the code cache or, as the [reference],
   interpreted. *)
let run_tlb_guest ~reference name main =
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  Vfs.add_self m.Machine.fs name (Crt0.link_app ~libc (unit_ name [ func "main" [] main ]));
  if reference then interpret m;
  let p = Machine.spawn m ~exe_path:name () in
  let (_ : _) = Machine.run m ~max_cycles:200_000 in
  (m, p)

(* Guest statements storing the encoding of [insns] at [va], zero-padded
   to whole quadwords. *)
let store_code va insns =
  let b = Encode.program insns in
  let b = Bytes.cat b (Bytes.make (8 - (Bytes.length b mod 8)) '\000') in
  List.init (Bytes.length b / 8) (fun q ->
      store64 (va +: i (8 * q)) (i64 (Bytes.get_int64_le b (8 * q))))

let test_tlb_coherence_guest () =
  let va = i64 tlb_va and pg = i Mem.page_size in
  let mmap prot = [ when_ (call "mmap" [ va; pg; i prot ] <>: va) [ ret (i 100) ] ] in
  (* map rw, store 7 and read it back: the page is now in the TLB *)
  let prime = mmap 6 @ [ store64 va (i 7); when_ (load64 va <>: i 7) [ ret (i 101) ] ] in
  (* [code k] stores "mov rax, k; ret" at [va] *)
  let code k = store_code va [ Insn.Mov_ri (Reg.Rax, Int64.of_int k); Insn.Ret ] in
  let cases =
    [
      ("unmap", prime @ [ do_ "munmap" [ va; pg ]; ret (load64 va) ], `Killed Abi.sigsegv);
      ("remap", prime @ [ do_ "munmap" [ va; pg ] ] @ mmap 6 @ [ ret (load64 va) ], `Exit 0);
      ("ro", prime @ [ do_ "mprotect" [ va; pg; i 4 ]; store64 va (i 8); ret0 ], `Killed Abi.sigsegv);
      ( "ro-rw",
        prime
        @ [
            do_ "mprotect" [ va; pg; i 4 ];
            when_ (load64 va <>: i 7) [ ret (i 102) ];
            do_ "mprotect" [ va; pg; i 6 ];
            store64 va (i 9);
            ret (load64 va);
          ],
        `Exit 9 );
      ( "fork",
        prime
        @ [
            when_ (call "fork" [] ==: i 0) [ store64 va (i 99); ret (load64 va) ];
            do_ "nanosleep" [ i 20_000 ];
            ret (load64 va);
          ],
        `Exit 7 );
      ( "exec",
        mmap 7
        @ code 1
        @ [ decl "a" (callp va []) ]
        @ code 2
        @ [ ret ((v "a" *: i 10) +: callp va []) ],
        `Exit 12 );
    ]
  in
  List.iter
    (fun reference ->
      List.iter
        (fun (name, main, expect) ->
          let m, p = run_tlb_guest ~reference name main in
          let what = Printf.sprintf "%s (%s)" name (if reference then "interp" else "cached") in
          Alcotest.(check bool) what true (exit_status p = expect);
          if name = "fork" then
            match List.filter (fun (q : Proc.t) -> q != p) (Machine.all_procs m) with
            | [ child ] ->
                Alcotest.(check bool) (what ^ ": child") true (exit_status child = `Exit 99)
            | _ -> Alcotest.fail "expected one child")
        cases)
    [ false; true ]

(* ---------- high-half addresses ---------- *)

let test_high_half_address_faults () =
  (* addresses are unsigned: with page 0 mapped, the bytes just below
     2^64 are still unmapped, and accessing them is a [Mem.Fault] *)
  let m = Mem.create () in
  ignore (Mem.map m ~vaddr:0L ~len:Mem.page_size ~prot:Self.prot_rw ~name:"zero" ());
  let faults f = match f () with _ -> false | exception Mem.Fault _ -> true in
  Alcotest.(check bool) "read64 -8" true (faults (fun () -> Mem.read64 m (-8L)));
  Alcotest.(check bool) "read8 -1" true (faults (fun () -> Mem.read8 m (-1L)));
  Alcotest.(check bool) "write64 -8" true (faults (fun () -> Mem.write64 m (-8L) 1L));
  (* and a guest can map, use and overrun a high-half page *)
  let hh = -8192 in
  let main =
    [
      when_ (call "mmap" [ i hh; i Mem.page_size; i 6 ] <>: i hh) [ ret (i 100) ];
      store64 (i (hh + 8)) (i 5);
      when_ (load64 (i (hh + 8)) <>: i 5) [ ret (i 101) ];
      (* the 8 bytes just below the mapped page *)
      ret (load64 (i (hh - 8)));
    ]
  in
  List.iter
    (fun reference ->
      let _, p = run_tlb_guest ~reference "hh" main in
      Alcotest.(check bool) "guest SIGSEGV" true (exit_status p = `Killed Abi.sigsegv))
    [ false; true ]

let test_high_half_code_blocks () =
  (* a guest runs code from a high-half page: the trace hook must see
     that block with its full 64-bit start, as a sign-bit or negative
     sentinel for "no open block" would lose it *)
  let hh = -8192 in
  let code = [ Insn.Mov_ri (Reg.Rax, 40L); Insn.Add_ri (Reg.Rax, 2); Insn.Ret ] in
  let size = Bytes.length (Encode.program code) in
  let main =
    [ when_ (call "mmap" [ i hh; i Mem.page_size; i 7 ] <>: i hh) [ ret (i 100) ] ]
    @ store_code (i hh) code
    @ [ ret (callp (i hh) []) ]
  in
  let run ~reference =
    let m = Machine.create () in
    Vfs.add_self m.Machine.fs "libc.so" libc;
    Vfs.add_self m.Machine.fs "hhc" (Crt0.link_app ~libc (unit_ "hhc" [ func "main" [] main ]));
    if reference then interpret m;
    let blocks = ref [] in
    m.Machine.trace <- Some (fun _ start size -> blocks := (start, size) :: !blocks);
    let p = Machine.spawn m ~exe_path:"hhc" () in
    let (_ : _) = Machine.run m ~max_cycles:200_000 in
    Alcotest.(check bool) "exit 42" true (exit_status p = `Exit 42);
    (List.rev !blocks, p.Proc.retired)
  in
  let interp_blocks, interp_retired = run ~reference:true in
  Alcotest.(check bool) "high-half block traced with its full start" true
    (List.mem (Int64.of_int hh, size) interp_blocks);
  let cached_blocks, cached_retired = run ~reference:false in
  Alcotest.(check (list (pair int64 int))) "cached block stream = interpreted" interp_blocks
    cached_blocks;
  Alcotest.(check int) "cached retired = interpreted" interp_retired cached_retired

(* ---------- scheduling order ---------- *)

(* [rounds] rounds of: write [letter], run [extra] (round number in
   [k]), spin [spin] loop iterations. *)
let spin_rounds letter ~rounds ~spin extra =
  [
    decl "k" (i 0);
    decl "j" (i 0);
    while_ (v "k" <: i rounds)
      ([ do_ "write" [ i 1; s letter; i 1 ] ]
      @ extra
      @ [
          set "j" (i 0);
          while_ (v "j" <: i spin) [ set "j" (v "j" +: i 1) ];
          set "k" (v "k" +: i 1);
        ]);
    ret0;
  ]

(* Three guests spawned in the order a, b, c (pids 100-102). [a] forks
   mid-quantum in its third round, and the child (pid 103) writes [f];
   [c] sleeps twice, and between the first and the second run it is
   checkpointed, reaped and restored, CRIU style. Returns each run's
   outcome, clock and per-pid retired counts, and the order of every
   guest write. *)
let sched_order_run ~reference =
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  let add name funcs = Vfs.add_self m.Machine.fs name (Crt0.link_app ~libc (unit_ name funcs)) in
  add "a"
    [
      func "child" [] (spin_rounds "f" ~rounds:20 ~spin:17 []);
      func "main" []
        (spin_rounds "a" ~rounds:30 ~spin:23
           [ when_ (v "k" ==: i 2) [ when_ (call "fork" [] ==: i 0) [ ret (call "child" []) ] ] ]);
    ];
  add "b" [ func "main" [] (spin_rounds "b" ~rounds:25 ~spin:31 []) ];
  add "c"
    [
      func "main" []
        (spin_rounds "c" ~rounds:30 ~spin:11
           [ when_ ((v "k" ==: i 1) ||: (v "k" ==: i 28)) [ do_ "nanosleep" [ i 2_500 ] ] ]);
    ];
  if reference then interpret m;
  let spawn name = (Machine.spawn m ~exe_path:name ()).Proc.pid in
  let pids = List.map spawn [ "a"; "b"; "c" ] in
  let writes = Buffer.create 128 in
  m.Machine.on_syscall <-
    Some (fun p nr -> if nr = Abi.sys_write then Buffer.add_char writes "abcf".[p.Proc.pid - 100]);
  let run n =
    let r = Machine.run m ~max_cycles:n in
    let retired =
      List.map (fun (p : Proc.t) -> (p.Proc.pid, p.Proc.retired)) (Machine.all_procs m)
    in
    (r, m.Machine.clock, retired)
  in
  let r1 = run 3_000 in
  let c = List.nth pids 2 in
  Machine.freeze m ~pid:c;
  let img = Checkpoint.dump m ~pid:c () in
  Machine.reap m ~pid:c;
  let r2 = run 2_000 in
  let (_ : Proc.t) = Restore.restore m img in
  let r3 = run 50_000 in
  ([ r1; r2; r3 ], Buffer.contents writes)

let test_sched_order_pinned () =
  (* exact values: the spawn order, every quantum boundary and the
     virtual clock are part of the guest-visible semantics *)
  let outcome =
    Alcotest.testable
      (fun f r ->
        Fmt.string f (match r with `Budget -> "budget" | `Dead -> "dead" | `Idle -> "idle"))
      ( = )
  in
  let expect =
    [
      (`Budget, 3_000L, [ (100, 1280); (101, 1033); (102, 327); (103, 0) ]);
      (* [c] is reaped: it neither runs nor shows *)
      (`Budget, 5_000L, [ (100, 2048); (101, 1553); (103, 512) ]);
      (* restored [c] keeps its slot before the child; CRIU images do not
         carry the retired count, so it restarts from 0 *)
      (`Dead, 49_101L, [ (100, 14204); (101, 15152); (102, 7837); (103, 7101) ]);
    ]
  in
  List.iter
    (fun reference ->
      let runs, writes = sched_order_run ~reference in
      let mode = if reference then "interp" else "cached" in
      List.iter2
        (fun (r, clock, retired) (r', clock', retired') ->
          Alcotest.check outcome (mode ^ ": outcome") r' r;
          Alcotest.(check int64) (mode ^ ": clock") clock' clock;
          Alcotest.(check (list (pair int int))) (mode ^ ": retired") retired' retired)
        runs expect;
      Alcotest.(check string) (mode ^ ": write order")
        "abcacbaabffacfabcfabcfcabcfacfcfabccfabcfcfabccfacfbcacfbcfacfabcfacfbcfacbcfaccabccababaabcababaabababbb"
        writes)
    [ false; true ]

(* ---------- page-chunked copies ---------- *)

(* Seven pages from [chunk_va]: r-x, r--, rw-, an unmapped hole, rwx,
   ---, rw-; the page below the first is unmapped too. Every page holds
   a distinct byte pattern. *)
let chunk_va = 0x3000_0010_0000L

let chunk_template =
  let m = Mem.create () in
  List.iteri
    (fun i prot ->
      match prot with
      | None -> ()
      | Some prot ->
          let vaddr = Int64.add chunk_va (Int64.of_int (i * Mem.page_size)) in
          let v = Mem.map m ~vaddr ~len:Mem.page_size ~prot:(Self.prot_of_int prot) ~name:"c" () in
          List.iter
            (fun (_, pg) ->
              let d = pg.Mem.pg_data in
              Bytes.iteri (fun j _ -> Bytes.set d j (Char.chr (((j * 7) + i) land 255))) d)
            (Mem.pages_of_vma m v))
    [ Some 5; Some 4; Some 6; None; Some 7; Some 0; Some 6 ];
  m

(* byte-at-a-time references over the one-byte accessors *)
let ref_load get m addr len =
  Bytes.init len (fun i -> Char.chr (get m (Int64.add addr (Int64.of_int i))))

let ref_store put m addr b =
  Bytes.iteri (fun i c -> put m (Int64.add addr (Int64.of_int i)) (Char.code c)) b

(* what an access returned or raised, and the pages and dirty set after it *)
let chunk_observe f =
  let m = Mem.copy chunk_template in
  let result = match f m with v -> Ok v | exception Mem.Fault (a, acc) -> Error (a, acc) in
  let pages =
    List.init 8 (fun i ->
        Hashtbl.find_opt m.Mem.pages (Int64.add (Mem.page_index chunk_va) (Int64.of_int (i - 1)))
        |> Option.map (fun p -> Bytes.to_string p.Mem.pg_data))
  in
  (result, pages, List.sort compare (Mem.take_exec_dirty m))

let prop_chunked_copies_match_bytewise =
  QCheck.Test.make ~name:"page-chunked copies match byte-at-a-time" ~count:200
    QCheck.(pair (int_range (-200) ((7 * 4096) + 200)) (int_range 0 9000))
    (fun (off, len) ->
      let addr = Int64.add chunk_va (Int64.of_int off) in
      let data = Bytes.init len (fun i -> Char.chr (((i * 31) + off) land 255)) in
      let same name chunked bytewise =
        chunk_observe chunked = chunk_observe bytewise
        || QCheck.Test.fail_reportf "%s differs at 0x%Lx+%d" name addr len
      in
      same "read_bytes" (fun m -> Mem.read_bytes m addr len) (fun m -> ref_load Mem.read8 m addr len)
      && same "peek_bytes"
           (fun m -> Mem.peek_bytes m addr len)
           (fun m -> ref_load Mem.peek8 m addr len)
      && same "write_bytes"
           (fun m -> Mem.write_bytes m addr data; Bytes.empty)
           (fun m -> ref_store Mem.write8 m addr data; Bytes.empty)
      && same "poke_bytes"
           (fun m -> Mem.poke_bytes m addr data; Bytes.empty)
           (fun m -> ref_store Mem.poke8 m addr data; Bytes.empty)
      && same "poke_sub"
           (fun m ->
             let padded = Bytes.(cat (make 5 '\xaa') (cat data (make 3 '\xbb'))) in
             Mem.poke_sub m addr padded ~off:5 ~len;
             Bytes.empty)
           (fun m -> ref_store Mem.poke8 m addr data; Bytes.empty))

let suite =
  [
    Alcotest.test_case "bad sigreturn magic" `Quick test_bad_sigreturn_magic_kills;
    Alcotest.test_case "SIGKILL uncatchable" `Quick test_sigkill_uncatchable;
    Alcotest.test_case "signal interrupts blocked accept" `Quick
      test_signal_interrupts_blocked_accept;
    Alcotest.test_case "syscall error paths" `Quick test_syscall_errors;
    Alcotest.test_case "file read to EOF" `Quick test_file_read_to_eof;
    Alcotest.test_case "gettime monotonic" `Quick test_gettime_monotonic;
    Alcotest.test_case "guest kills guest" `Quick test_guest_kill_guest;
    Alcotest.test_case "hlt kills" `Quick test_hlt_kills;
    Alcotest.test_case "stack overflow double fault" `Quick test_stack_overflow_double_fault;
    Alcotest.test_case "scheduler fairness" `Quick test_scheduler_fairness;
    Alcotest.test_case "frozen process not scheduled" `Quick test_frozen_process_not_scheduled;
    Alcotest.test_case "net fan-out round robin" `Quick test_net_fanout_round_robin;
    Alcotest.test_case "net drain skips and refuses" `Quick test_net_drain_skips_and_refuses;
    Alcotest.test_case "net owner-keyed lookup" `Quick test_net_owner_keyed_lookup;
    Alcotest.test_case "net bounded backlog refuses" `Quick
      test_net_bounded_backlog_refuses;
    Alcotest.test_case "net deadline expiry" `Quick test_net_deadline_expiry;
    Alcotest.test_case "net drain/undrain racing" `Quick
      test_net_drain_undrain_racing;
    Alcotest.test_case "net guest fleet fan-out" `Quick test_net_guest_fleet_fanout;
    Alcotest.test_case "tlb coherence: mem" `Quick test_tlb_coherence_mem;
    Alcotest.test_case "tlb coherence: guest" `Quick test_tlb_coherence_guest;
    Alcotest.test_case "high-half address faults" `Quick test_high_half_address_faults;
    Alcotest.test_case "high-half code blocks" `Quick test_high_half_code_blocks;
    Alcotest.test_case "scheduling order pinned" `Quick test_sched_order_pinned;
    QCheck_alcotest.to_alcotest prop_chunked_copies_match_bytewise;
  ]
