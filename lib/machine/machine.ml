(** The virtual machine: processes, CPU interpreter, signal delivery,
    syscall dispatch, round-robin scheduler, and a deterministic virtual
    clock (1 cycle per retired instruction, interpreted or cached alike).

    This plays the role of the Linux kernel + CPU in the paper's setup and
    is part of the trusted computing base its threat model assumes (§2). *)

type trace_hook = Proc.t -> int64 -> int -> unit
(** Called with (process, block start vaddr, block size in bytes) whenever a
    dynamic basic block completes — the tracer's input. *)

type syscall_hook = Proc.t -> int -> unit
(** Called with (process, syscall number) before each syscall is
    dispatched — the probe behind automatic phase detection (§5's
    "monitor specific system calls to determine the end of the
    initialization phase"). *)

type exit_hook = Proc.t -> unit
(** Called exactly once when a process transitions to a dead state
    (exit, fatal signal) — how a post-cut supervisor notices a worker
    killed by an un-redirected SIGTRAP/SIGILL and respawns it. *)

type insn_hook = Proc.t -> Insn.t -> unit
(** Called before every decoded instruction executes (registers still
    hold their pre-execution values, so effective addresses can be
    recomputed) — the dataflow slicer's input. Int3 traps bypass it. *)

(* The scheduler's view of the processes: every pid in spawn order
   (reversed; a reaped pid keeps its slot for a later [install]) and,
   derived from it, the table of present processes that [run] walks.
   The table is rebuilt only after [spawn], fork, [reap] or [install]
   marked it stale, so a scheduler iteration only reads arrays. *)
type sched = {
  mutable order : int list;
  mutable table : Proc.t array;  (** present processes, spawn order *)
  mutable runq : int array;
      (** reused buffer: indices into [table] of the processes one
          scheduler pass runs; reallocated with the table *)
  mutable stale : bool;
}

type t = {
  fs : Vfs.t;
  net : Net.t;
  procs : (int, Proc.t) Hashtbl.t;
  mutable next_pid : int;
  mutable clock : int64;
  mutable trace : trace_hook option;
  mutable on_syscall : syscall_hook option;
  mutable on_exit : exit_hook option;
  mutable on_insn : insn_hook option;
  rng : Rng.t;
  syscall_cost : int;  (** extra cycles charged per syscall *)
  sched : sched;
  obs_steps : Obs.counter;  (** cached registry handles: the interpreter *)
  obs_traps : Obs.counter;  (** bumps these once per event, so the lookup *)
  obs_syscalls : Obs.counter;  (** cost is paid at [create], not per insn *)
  mutable exec_cached : (Proc.t -> fuel:int -> until:int64 -> int) option;
      (** installed by the decoded-block code cache ([Bbcache.enable]):
          run [p] out of the cache, stopping where the single-step loop
          would (after [fuel] instructions or at clock [until]), and
          return the number executed (0 = fall back to single-step).
          The scheduler only consults it while no [on_insn] hook is
          installed — per-instruction fidelity (the slicer) always wins *)
}

(* The spawn-ordered table of present processes, rebuilt if stale. *)
let table t =
  let s = t.sched in
  if s.stale then begin
    s.table <-
      Array.of_list (List.filter_map (Hashtbl.find_opt t.procs) (List.rev s.order));
    s.runq <- Array.make (Array.length s.table) 0;
    s.stale <- false
  end;
  s.table

let all_procs t = Array.to_list (table t)

(* Flip one seeded bit in a resident page of an immutable (non-writable)
   VMA — silent corruption of text/rodata, the failure the integrity
   scrubber exists to catch. The victim is [pid] when given (and live),
   else a seeded pick among live processes; the page, byte and bit are
   seeded draws. Returns the victim pid and flipped address, or [None]
   when there is nothing to corrupt. *)
let bitflip t ?pid rng : (int * int64) option =
  let live = List.filter Proc.is_live (all_procs t) in
  let victim =
    match pid with
    | Some q -> List.find_opt (fun (p : Proc.t) -> p.Proc.pid = q) live
    | None -> ( match live with [] -> None | l -> Some (Rng.choose rng l))
  in
  match victim with
  | None -> None
  | Some p ->
      let mem = p.Proc.mem in
      let pages =
        List.concat_map
          (fun (v : Mem.vma) ->
            if v.Mem.va_prot.Self.p_w then []
            else List.map fst (Mem.pages_of_vma mem v))
          mem.Mem.vmas
      in
      if pages = [] then None
      else begin
        let base = Rng.choose rng pages in
        let addr = Int64.add base (Int64.of_int (Rng.int rng Mem.page_size)) in
        let bit = Rng.int rng 8 in
        Mem.flip_bit mem ~addr ~bit;
        Obs.incr
          (Obs.counter
             ~labels:[ ("pid", string_of_int p.Proc.pid) ]
             "integrity.bitflips");
        Obs.event ~kind:"fault"
          (Printf.sprintf "bitflip pid=%d vaddr=0x%Lx bit=%d" p.Proc.pid addr
             bit);
        Some (p.Proc.pid, addr)
      end

(* a new pid takes the next scheduling slot *)
let add_proc t (p : Proc.t) =
  Hashtbl.replace t.procs p.Proc.pid p;
  t.sched.order <- p.Proc.pid :: t.sched.order;
  t.sched.stale <- true

let create ?(seed = 42) () =
  let t =
    {
      fs = Vfs.create ();
      net = Net.create ();
      procs = Hashtbl.create 8;
      next_pid = 100;
      clock = 0L;
      trace = None;
      on_syscall = None;
      on_exit = None;
      on_insn = None;
      rng = Rng.create seed;
      syscall_cost = 40;
      sched = { order = []; table = [||]; runq = [||]; stale = false };
      obs_steps = Obs.counter "machine.steps";
      obs_traps = Obs.counter "machine.traps";
      obs_syscalls = Obs.counter "machine.syscalls";
      exec_cached = None;
    }
  in
  (* the registry's event/span timestamps follow this machine's virtual
     clock from here on (last machine created wins — scenarios build the
     machine under test last) *)
  Obs.set_clock (Some (fun () -> t.clock));
  (* delay-mode faults ([Fault.Delay n]) charge their latency to this
     machine's virtual clock — gray failures are slow, not wrong *)
  Fault.set_delay_hook (Some (fun n -> t.clock <- Int64.add t.clock (Int64.of_int n)));
  (* bitflip-mode faults ([Fault.Bitflip]) corrupt a resident immutable
     page of this machine's scoped (or seeded) victim — silently *)
  Fault.set_bitflip_hook
    (Some (fun ~scope rng -> ignore (bitflip t ?pid:scope rng)));
  t

let proc t pid = Hashtbl.find_opt t.procs pid

let proc_exn t pid =
  match proc t pid with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Machine.proc: no pid %d" pid)

(** Root of [pid]'s process tree: walk the parent chain while the parent
    is still a known process. Identifies which worker a listener belongs
    to when several trees share a port. *)
let rec tree_root t pid =
  match proc t pid with
  | None -> pid
  | Some p ->
      if p.Proc.parent <> 0 && Hashtbl.mem t.procs p.Proc.parent then
        tree_root t p.Proc.parent
      else pid

(* ---------- process creation ---------- *)

exception Exec_error of string

(** Load [exe_path] from the machine filesystem and create a process.
    All SELF files present in the filesystem are candidates for resolving
    [needed] libraries. *)
let spawn t ~exe_path ?comm () =
  let exe =
    match Vfs.find_self t.fs exe_path with
    | Some s -> s
    | None -> raise (Exec_error ("no such binary: " ^ exe_path))
  in
  let libs =
    List.filter_map (fun p -> Vfs.find_self t.fs p) (Vfs.list t.fs)
  in
  let img = Loader.load ~libs exe in
  let mem = Mem.create () in
  List.iter
    (fun (m : Loader.mapping) ->
      let len = Bytes.length m.map_data in
      if len > 0 then begin
        let (_ : Mem.vma) =
          Mem.map mem ~vaddr:m.map_vaddr ~len ~prot:m.map_prot
            ~file:(Some (m.map_file, m.map_file_off))
            ~name:(m.map_module ^ ":" ^ m.map_section)
            ()
        in
        (* loader writes bypass protections *)
        Mem.poke_bytes mem m.map_vaddr m.map_data
      end)
    img.Loader.img_mappings;
  let stack_lo = Int64.sub Proc.stack_top (Int64.of_int Proc.stack_size) in
  let (_ : Mem.vma) =
    Mem.map mem ~vaddr:stack_lo ~len:Proc.stack_size ~prot:Self.prot_rw ~name:"[stack]" ()
  in
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let comm = match comm with Some c -> c | None -> exe.Self.name in
  let p = Proc.create ~pid ~parent:0 ~comm ~exe_path ~mem in
  Proc.set_rip p.Proc.regs img.Loader.img_entry;
  Proc.set p.Proc.regs Reg.Rsp (Int64.sub Proc.stack_top 64L);
  add_proc t p;
  p

(* ---------- tracing helpers ---------- *)

(* Close [p]'s open basic block at [next] (as an [int]: the low 63 bits
   give the same size as the full subtraction, and an [int] argument is
   never boxed). Out of line: only the [block_open] test inlines. *)
let close_block t (p : Proc.t) next =
  (match t.trace with
  | Some hook ->
      let start = Proc.get64u p.Proc.block_start 0 in
      let size = next - Int64.to_int start in
      if size > 0 then hook p start size
  | None -> ());
  p.Proc.block_open <- false

let[@inline] end_block t (p : Proc.t) ~(next : int64) =
  if p.Proc.block_open then close_block t p (Int64.to_int next)

(* ---------- signals ---------- *)

(* death can be observed at several interpreter exits (default signal
   action, exit syscall, hlt, double fault); the per-process flag makes
   the hook fire exactly once per death, wherever it is noticed *)
let notify_exit t (p : Proc.t) =
  if (not (Proc.is_live p)) && not p.Proc.exit_notified then begin
    p.Proc.exit_notified <- true;
    match t.on_exit with Some hook -> hook p | None -> ()
  end

(** Deliver [signum] to [p] with the saved rip = [at] (the faulting /
    trapping instruction). Builds the signal frame described in {!Abi} or
    applies the default action (terminate). *)
let deliver_signal t (p : Proc.t) ~(signum : int) ~(at : int64) =
  end_block t p ~next:at;
  let action =
    if signum = Abi.sigkill then None else p.Proc.sigactions.(signum)
  in
  (match action with
  | None -> p.Proc.state <- Proc.Killed signum
  | Some { Proc.sa_handler; sa_restorer } -> (
      let regs = p.Proc.regs in
      let rsp = Proc.get regs Reg.Rsp in
      let frame = Int64.sub rsp (Int64.of_int Abi.frame_size) in
      try
        let w64 off v = Mem.write64 p.Proc.mem (Int64.add frame (Int64.of_int off)) v in
        w64 Abi.frame_off_magic Abi.frame_magic;
        w64 Abi.frame_off_signum (Int64.of_int signum);
        w64 Abi.frame_off_rip at;
        w64 Abi.frame_off_flags (Int64.of_int (Proc.pack_flags regs));
        List.iter
          (fun r -> w64 (Abi.frame_off_regs + (8 * Reg.to_int r)) (Proc.gpr regs r))
          Reg.all;
        (* push the restorer as the handler's return address *)
        let new_rsp = Int64.sub frame 8L in
        Mem.write64 p.Proc.mem new_rsp sa_restorer;
        Proc.set regs Reg.Rsp new_rsp;
        Proc.set regs Reg.Rdi (Int64.of_int signum);
        Proc.set regs Reg.Rsi frame;
        Proc.set_rip regs sa_handler;
        (* a signal can only be handled by a runnable process; interrupt
           blocking syscalls (they will restart after sigreturn) *)
        p.Proc.state <- Proc.Runnable
      with Mem.Fault _ ->
        (* stack overflow while building the frame: double fault *)
        p.Proc.state <- Proc.Killed Abi.sigsegv));
  notify_exit t p

let do_sigreturn (p : Proc.t) =
  let regs = p.Proc.regs in
  let frame = Proc.get regs Reg.Rsp in
  let r64 off = Mem.read64 p.Proc.mem (Int64.add frame (Int64.of_int off)) in
  try
    if r64 Abi.frame_off_magic <> Abi.frame_magic then
      p.Proc.state <- Proc.Killed Abi.sigsegv
    else begin
      let saved_rip = r64 Abi.frame_off_rip in
      let saved_flags = Int64.to_int (r64 Abi.frame_off_flags) in
      List.iter
        (fun r -> Proc.set_gpr regs r (r64 (Abi.frame_off_regs + (8 * Reg.to_int r))))
        Reg.all;
      Proc.unpack_flags regs saved_flags;
      Proc.set_rip regs saved_rip
      (* rsp restored from the frame's saved registers *)
    end
  with Mem.Fault _ -> p.Proc.state <- Proc.Killed Abi.sigsegv

(** Host- or guest-initiated kill. *)
let post_signal t ~pid ~signum =
  match proc t pid with
  | None -> ()
  | Some p when Proc.is_live p -> deliver_signal t p ~signum ~at:(Proc.rip p.Proc.regs)
  | Some _ -> ()

(* ---------- syscalls ---------- *)

exception Seccomp_denied

type sys_outcome =
  | Ret of int64  (** advance rip, rax = value *)
  | Block_retry of Proc.block_reason  (** do not advance rip; re-execute *)
  | Block_after of Proc.block_reason  (** advance rip; resume on wake *)
  | Terminate of Proc.state
  | Sigret  (** registers fully replaced by the frame *)

let fd_kind (p : Proc.t) fd = Hashtbl.find_opt p.Proc.fds (Int64.to_int fd)

let do_syscall t (p : Proc.t) : sys_outcome =
  let regs = p.Proc.regs in
  let nr = Int64.to_int (Proc.get regs Reg.Rax) in
  Obs.incr t.obs_syscalls;
  (match t.on_syscall with Some hook -> hook p nr | None -> ());
  (* seccomp-style filtering (paper §5): a denied syscall delivers
     SIGSYS, whose default action terminates *)
  (match p.Proc.seccomp with
  | Some denied when List.mem nr denied -> raise Seccomp_denied
  | _ -> ());
  let a1 = Proc.get regs Reg.Rdi
  and a2 = Proc.get regs Reg.Rsi
  and a3 = Proc.get regs Reg.Rdx
  and a4 = Proc.get regs Reg.Rcx in
  let ret_i i = Ret (Int64.of_int i) in
  let open Abi in
  try
    if nr = sys_exit then Terminate (Proc.Exited (Int64.to_int a1))
    else if nr = sys_write then (
      let len = Int64.to_int a3 in
      let data = Mem.read_bytes p.Proc.mem a2 len in
      match fd_kind p a1 with
      | Some (Proc.Fd_stdout | Proc.Fd_stderr) ->
          Buffer.add_bytes p.Proc.stdout data;
          ret_i len
      | Some (Proc.Fd_sock cid) -> (
          match Net.find_conn t.net cid with
          | Some c -> ret_i (Net.server_send c (Bytes.to_string data))
          | None -> ret_i econnreset)
      | Some (Proc.Fd_file _) -> ret_i einval (* read-only fs *)
      | Some (Proc.Fd_listener _) -> ret_i einval
      | Some Proc.Fd_stdin | None -> ret_i ebadf)
    else if nr = sys_read then (
      match fd_kind p a1 with
      | Some (Proc.Fd_file f) -> (
          match Vfs.find t.fs f.path with
          | None -> ret_i ebadf
          | Some content ->
              let len = min (Int64.to_int a3) (String.length content - f.pos) in
              let len = max len 0 in
              Mem.write_bytes p.Proc.mem a2 (Bytes.of_string (String.sub content f.pos len));
              f.pos <- f.pos + len;
              ret_i len)
      | Some (Proc.Fd_sock cid) -> (
          match Net.find_conn t.net cid with
          | None -> ret_i econnreset
          | Some c -> (
              match Net.server_recv c (Int64.to_int a3) with
              | Some s ->
                  Mem.write_bytes p.Proc.mem a2 (Bytes.of_string s);
                  ret_i (String.length s)
              | None -> Block_retry (Proc.On_recv (Int64.to_int a1))))
      | Some Proc.Fd_stdin -> ret_i 0 (* EOF *)
      | _ -> ret_i ebadf)
    else if nr = sys_open then (
      let path = Mem.read_cstring p.Proc.mem a1 in
      if Vfs.exists t.fs path then
        ret_i (Proc.alloc_fd p (Proc.Fd_file { path; pos = 0 }))
      else ret_i enoent)
    else if nr = sys_close then (
      match fd_kind p a1 with
      | Some (Proc.Fd_sock cid) ->
          (match Net.find_conn t.net cid with
          | Some c -> Net.server_close c
          | None -> ());
          Hashtbl.remove p.Proc.fds (Int64.to_int a1);
          ret_i 0
      | Some _ ->
          Hashtbl.remove p.Proc.fds (Int64.to_int a1);
          ret_i 0
      | None -> ret_i ebadf)
    else if nr = sys_mmap then (
      let len = Int64.to_int a2 in
      let prot = Self.prot_of_int (Int64.to_int a3) in
      if len <= 0 then ret_i einval
      else begin
        let vaddr =
          if a1 = 0L then Mem.find_free p.Proc.mem ~hint:p.Proc.mmap_hint ~len
          else a1
        in
        match Mem.map p.Proc.mem ~vaddr ~len ~prot ~name:"[anon]" () with
        | v ->
            p.Proc.mmap_hint <- Mem.vma_end v;
            Ret vaddr
        | exception Invalid_argument _ -> ret_i enomem
      end)
    else if nr = sys_munmap then (
      Mem.unmap p.Proc.mem ~vaddr:a1 ~len:(Int64.to_int a2);
      ret_i 0)
    else if nr = sys_mprotect then (
      Mem.protect p.Proc.mem ~vaddr:a1 ~len:(Int64.to_int a2)
        ~prot:(Self.prot_of_int (Int64.to_int a3));
      ret_i 0)
    else if nr = sys_fork then (
      let child_pid = t.next_pid in
      t.next_pid <- child_pid + 1;
      let child = Proc.fork_copy p ~pid:child_pid in
      (* both continue after the syscall *)
      Proc.set_rip child.Proc.regs (Int64.add (Proc.rip regs) 1L);
      Proc.set child.Proc.regs Reg.Rax 0L;
      add_proc t child;
      ret_i child_pid)
    else if nr = sys_sigaction then (
      let signum = Int64.to_int a1 in
      if signum <= 0 || signum >= nsig || signum = sigkill then ret_i einval
      else begin
        p.Proc.sigactions.(signum) <-
          (if a2 = 0L then None else Some { Proc.sa_handler = a2; sa_restorer = a3 });
        ret_i 0
      end)
    else if nr = sys_sigreturn then (
      do_sigreturn p;
      Sigret)
    else if nr = sys_nanosleep then
      Block_after (Proc.On_sleep (Int64.add t.clock a1))
    else if nr = sys_getpid then ret_i p.Proc.pid
    else if nr = sys_socket then ret_i (Proc.alloc_fd p (Proc.Fd_listener (-1)))
    else if nr = sys_bind then (
      match fd_kind p a1 with
      | Some (Proc.Fd_listener _) ->
          Hashtbl.replace p.Proc.fds (Int64.to_int a1) (Proc.Fd_listener (Int64.to_int a2));
          ret_i 0
      | _ -> ret_i ebadf)
    else if nr = sys_listen then (
      match fd_kind p a1 with
      | Some (Proc.Fd_listener port) when port >= 0 ->
          let (_ : Net.listener) =
            Net.listen ~owner:(tree_root t p.Proc.pid) t.net port
          in
          ret_i 0
      | _ -> ret_i ebadf)
    else if nr = sys_accept then (
      match fd_kind p a1 with
      | Some (Proc.Fd_listener port) -> (
          match
            Net.find_listener_owned t.net ~port
              ~owner:(tree_root t p.Proc.pid)
          with
          | None -> ret_i einval
          | Some l -> (
              match Net.server_accept l with
              | Some conn -> ret_i (Proc.alloc_fd p (Proc.Fd_sock conn.Net.conn_id))
              | None -> Block_retry (Proc.On_accept (Int64.to_int a1))))
      | _ -> ret_i ebadf)
    else if nr = sys_recv then (
      match fd_kind p a1 with
      | Some (Proc.Fd_sock cid) -> (
          match Net.find_conn t.net cid with
          | None -> ret_i econnreset
          | Some c -> (
              match Net.server_recv c (Int64.to_int a3) with
              | Some s ->
                  Mem.write_bytes p.Proc.mem a2 (Bytes.of_string s);
                  ret_i (String.length s)
              | None -> Block_retry (Proc.On_recv (Int64.to_int a1))))
      | _ -> ret_i ebadf)
    else if nr = sys_send then (
      match fd_kind p a1 with
      | Some (Proc.Fd_sock cid) -> (
          match Net.find_conn t.net cid with
          | None -> ret_i econnreset
          | Some c ->
              let data = Mem.read_bytes p.Proc.mem a2 (Int64.to_int a3) in
              ret_i (Net.server_send c (Bytes.to_string data)))
      | _ -> ret_i ebadf)
    else if nr = sys_gettime then Ret t.clock
    else if nr = sys_kill then (
      post_signal t ~pid:(Int64.to_int a1) ~signum:(Int64.to_int a2);
      ret_i 0)
    else if nr = sys_rand then
      Ret (Int64.of_int (Rng.int t.rng (max 1 (Int64.to_int a1))))
    else (
      ignore a4;
      ret_i enosys)
  with
  | Mem.Fault _ -> Ret (Int64.of_int efault)
  | Bytesx.Truncated _ -> Ret (Int64.of_int efault)

(* ---------- the interpreter ---------- *)

let cond_true (regs : Proc.regs) (c : Insn.cond) =
  let z = regs.Proc.zf
  and s = regs.Proc.sf
  and cf = regs.Proc.cf
  and o = regs.Proc.of_ in
  match c with
  | Insn.Eq -> z
  | Insn.Ne -> not z
  | Insn.Lt -> s <> o
  | Insn.Le -> z || s <> o
  | Insn.Gt -> (not z) && s = o
  | Insn.Ge -> s = o
  | Insn.Ult -> cf
  | Insn.Ule -> cf || z
  | Insn.Ugt -> (not cf) && not z
  | Insn.Uge -> not cf

(* [@inline]: an int64 argument to a call that is not inlined is boxed *)
let[@inline] set_cmp_flags (regs : Proc.regs) a b =
  let diff = Int64.sub a b in
  regs.Proc.zf <- Int64.equal a b;
  regs.Proc.sf <- Int64.compare diff 0L < 0;
  regs.Proc.cf <- Int64.unsigned_compare a b < 0;
  (* signed overflow of a - b *)
  let sa = Int64.compare a 0L < 0
  and sb = Int64.compare b 0L < 0
  and sd = Int64.compare diff 0L < 0 in
  regs.Proc.of_ <- (sa <> sb) && sd <> sa

let[@inline] set_test_flags (regs : Proc.regs) a b =
  let v = Int64.logand a b in
  regs.Proc.zf <- Int64.equal v 0L;
  regs.Proc.sf <- Int64.compare v 0L < 0;
  regs.Proc.cf <- false;
  regs.Proc.of_ <- false

(* ---------- hot-path register and memory access ---------- *)

(* Library modules are compiled without cross-module inlining, so calling
   [Proc.gpr] or [Mem.read64] boxes the [int64] it returns. The
   interpreter's per-instruction accesses go through these instead, which
   inline into {!exec_decoded}: a register access is one load or store on
   the unboxed register file (layout: [Proc.regs]). *)
let[@inline] gpr (regs : Proc.regs) r = Proc.get64u regs.Proc.file (Reg.to_int r lsl 3)
let[@inline] set_gpr (regs : Proc.regs) r v = Proc.set64u regs.Proc.file (Reg.to_int r lsl 3) v
let[@inline] set_rip (regs : Proc.regs) v = Proc.set64u regs.Proc.file Proc.rip_off v

(* 8- and 1-byte loads and stores: an in-page access whose page is in
   the TLB with the needed permission is a lookup and one load or store
   (a store also bumps the page's write generation). Everything else —
   TLB miss, page straddle, missing permission, and every store to an
   executable page — goes through [Mem.read64]/[Mem.write64] or
   [Mem.read8]/[Mem.write8], the only places that fault or mark a page
   exec-dirty for the code cache. *)
let[@inline] tlb_page (mem : Mem.t) addr =
  let tag = Int64.to_int (Int64.shift_right_logical addr 12) in
  let slot = tag land (Mem.tlb_size - 1) in
  if Array.unsafe_get mem.Mem.tlb_tag slot = tag then Array.unsafe_get mem.Mem.tlb_page slot
  else Mem.no_page (* no permissions: the caller takes the slow path *)

let[@inline] tlb_page8 (mem : Mem.t) addr =
  if Int64.to_int addr land (Mem.page_size - 1) <= Mem.page_size - 8 then tlb_page mem addr
  else Mem.no_page

let[@inline] load64 (mem : Mem.t) addr =
  let pg = tlb_page8 mem addr in
  if pg.Mem.pg_prot.Self.p_r then
    Bytes.get_int64_le pg.Mem.pg_data (Int64.to_int addr land (Mem.page_size - 1))
  else Mem.read64 mem addr

(* Load into a register slot of [file]: [set_gpr regs d (load64 mem a)]
   would box the value, because an inlined function binds a compound
   argument to a [let] that the backend unboxes only if every branch
   builds a box, and [load64]'s slow path is a call. The
   [%caml_bytes_set64u] primitive takes its argument unboxed instead. *)
let[@inline] load64_to (file : bytes) off mem addr = Proc.set64u file off (load64 mem addr)

let[@inline] store64 (mem : Mem.t) addr v =
  let pg = tlb_page8 mem addr in
  let prot = pg.Mem.pg_prot in
  if prot.Self.p_w && not prot.Self.p_x then begin
    pg.Mem.pg_gen <- pg.Mem.pg_gen + 1;
    Bytes.set_int64_le pg.Mem.pg_data (Int64.to_int addr land (Mem.page_size - 1)) v
  end
  else Mem.write64 mem addr v

let[@inline] load8 (mem : Mem.t) addr =
  let pg = tlb_page mem addr in
  if pg.Mem.pg_prot.Self.p_r then
    Char.code (Bytes.get pg.Mem.pg_data (Int64.to_int addr land (Mem.page_size - 1)))
  else Mem.read8 mem addr

let[@inline] store8 (mem : Mem.t) addr v =
  let pg = tlb_page mem addr in
  let prot = pg.Mem.pg_prot in
  if prot.Self.p_w && not prot.Self.p_x then begin
    pg.Mem.pg_gen <- pg.Mem.pg_gen + 1;
    Bytes.set pg.Mem.pg_data (Int64.to_int addr land (Mem.page_size - 1)) (Char.unsafe_chr v)
  end
  else Mem.write8 mem addr v

(* A control transfer: close the current basic block, then move rip. *)
let[@inline] jump t (p : Proc.t) ~next target =
  end_block t p ~next;
  set_rip p.Proc.regs target;
  false

(** Execute one already-decoded instruction of [p] (anything but [Int3],
    which never enters the code cache); assumes [p] runnable. The
    interpreter and the code cache both retire through here, so the
    cycle charge, block bookkeeping, trace/insn hooks, [Obs] counters
    and signal delivery are one code path — which is what keeps cached
    runs replay-exact against interpreted ones, clock included. Returns
    [true] iff the instruction fell through to [rip + len]; a taken
    branch, signal, fault, blocking syscall or exit returns [false].
    Closure-free, so its common path allocates only the boxed clock
    increment (three words). *)
let exec_decoded t (p : Proc.t) insn len =
  let regs = p.Proc.regs in
  let rip = Proc.get64u regs.Proc.file Proc.rip_off in
  let mem = p.Proc.mem in
  if not p.Proc.block_open then begin
    Proc.set64u p.Proc.block_start 0 rip;
    p.Proc.block_open <- true
  end;
  (match t.on_insn with Some hook -> hook p insn | None -> ());
  let next = Int64.add rip (Int64.of_int len) in
  t.clock <- Int64.add t.clock 1L;
  p.Proc.retired <- p.Proc.retired + 1;
  Obs.incr t.obs_steps;
  (* each arm says whether it falls through; rip moves to [next] below *)
  let fell =
    try
      match insn with
      | Insn.Nop -> true
      | Insn.Hlt ->
          end_block t p ~next;
          p.Proc.state <- Proc.Killed Abi.sigill;
          false
      | Insn.Int3 -> assert false (* [step_insn] traps it first *)
      | Insn.Mov_rr (d, src) ->
          set_gpr regs d (gpr regs src);
          true
      | Insn.Mov_ri (d, imm) ->
          set_gpr regs d imm;
          true
      | Insn.Load (d, b, off) ->
          load64_to regs.Proc.file (Reg.to_int d lsl 3) mem
            (Int64.add (gpr regs b) (Int64.of_int off));
          true
      | Insn.Store (b, off, src) ->
          store64 mem (Int64.add (gpr regs b) (Int64.of_int off)) (gpr regs src);
          true
      | Insn.Load8 (d, b, off) ->
          set_gpr regs d (Int64.of_int (load8 mem (Int64.add (gpr regs b) (Int64.of_int off))));
          true
      | Insn.Store8 (b, off, src) ->
          store8 mem
            (Int64.add (gpr regs b) (Int64.of_int off))
            (Int64.to_int (gpr regs src) land 0xff);
          true
      | Insn.Add_rr (d, src) ->
          set_gpr regs d (Int64.add (gpr regs d) (gpr regs src));
          true
      | Insn.Add_ri (d, v) ->
          set_gpr regs d (Int64.add (gpr regs d) (Int64.of_int v));
          true
      | Insn.Sub_rr (d, src) ->
          set_gpr regs d (Int64.sub (gpr regs d) (gpr regs src));
          true
      | Insn.Sub_ri (d, v) ->
          set_gpr regs d (Int64.sub (gpr regs d) (Int64.of_int v));
          true
      | Insn.Imul_rr (d, src) ->
          set_gpr regs d (Int64.mul (gpr regs d) (gpr regs src));
          true
      | Insn.Idiv_rr (d, src) ->
          if gpr regs src = 0L then (
            end_block t p ~next;
            deliver_signal t p ~signum:Abi.sigfpe ~at:rip;
            false)
          else (
            set_gpr regs d (Int64.div (gpr regs d) (gpr regs src));
            true)
      | Insn.Imod_rr (d, src) ->
          if gpr regs src = 0L then (
            end_block t p ~next;
            deliver_signal t p ~signum:Abi.sigfpe ~at:rip;
            false)
          else (
            set_gpr regs d (Int64.rem (gpr regs d) (gpr regs src));
            true)
      | Insn.And_rr (d, src) ->
          set_gpr regs d (Int64.logand (gpr regs d) (gpr regs src));
          true
      | Insn.Or_rr (d, src) ->
          set_gpr regs d (Int64.logor (gpr regs d) (gpr regs src));
          true
      | Insn.Xor_rr (d, src) ->
          set_gpr regs d (Int64.logxor (gpr regs d) (gpr regs src));
          true
      | Insn.Shl_ri (d, n) ->
          set_gpr regs d (Int64.shift_left (gpr regs d) n);
          true
      | Insn.Shr_ri (d, n) ->
          set_gpr regs d (Int64.shift_right_logical (gpr regs d) n);
          true
      | Insn.Sar_ri (d, n) ->
          set_gpr regs d (Int64.shift_right (gpr regs d) n);
          true
      | Insn.Shl_rr (d, src) ->
          set_gpr regs d (Int64.shift_left (gpr regs d) (Int64.to_int (gpr regs src) land 63));
          true
      | Insn.Shr_rr (d, src) ->
          set_gpr regs d
            (Int64.shift_right_logical (gpr regs d) (Int64.to_int (gpr regs src) land 63));
          true
      | Insn.Neg d ->
          set_gpr regs d (Int64.neg (gpr regs d));
          true
      | Insn.Not d ->
          set_gpr regs d (Int64.lognot (gpr regs d));
          true
      | Insn.Cmp_rr (a, b) ->
          set_cmp_flags regs (gpr regs a) (gpr regs b);
          true
      | Insn.Cmp_ri (a, v) ->
          set_cmp_flags regs (gpr regs a) (Int64.of_int v);
          true
      | Insn.Test_rr (a, b) ->
          set_test_flags regs (gpr regs a) (gpr regs b);
          true
      | Insn.Jmp rel -> jump t p ~next (Int64.add next (Int64.of_int rel))
      | Insn.Jcc (c, rel) ->
          if cond_true regs c then jump t p ~next (Int64.add next (Int64.of_int rel))
          else (
            (* conditional not taken still ends the block (drcov-style) *)
            end_block t p ~next;
            true)
      | Insn.Call rel ->
          let rsp = Int64.sub (gpr regs Reg.Rsp) 8L in
          store64 mem rsp next;
          set_gpr regs Reg.Rsp rsp;
          jump t p ~next (Int64.add next (Int64.of_int rel))
      | Insn.Call_r r ->
          let target = gpr regs r in
          let rsp = Int64.sub (gpr regs Reg.Rsp) 8L in
          store64 mem rsp next;
          set_gpr regs Reg.Rsp rsp;
          jump t p ~next target
      | Insn.Jmp_r r -> jump t p ~next (gpr regs r)
      | Insn.Ret ->
          let rsp = gpr regs Reg.Rsp in
          let target = load64 mem rsp in
          set_gpr regs Reg.Rsp (Int64.add rsp 8L);
          jump t p ~next target
      | Insn.Push r ->
          let rsp = Int64.sub (gpr regs Reg.Rsp) 8L in
          store64 mem rsp (gpr regs r);
          set_gpr regs Reg.Rsp rsp;
          true
      | Insn.Pop r ->
          let rsp = gpr regs Reg.Rsp in
          load64_to regs.Proc.file (Reg.to_int r lsl 3) mem rsp;
          set_gpr regs Reg.Rsp (Int64.add rsp 8L);
          true
      | Insn.Lea (d, off) ->
          set_gpr regs d (Int64.add next (Int64.of_int off));
          true
      | Insn.Syscall -> (
          end_block t p ~next;
          t.clock <- Int64.add t.clock (Int64.of_int t.syscall_cost);
          match do_syscall t p with
          | exception Seccomp_denied ->
              deliver_signal t p ~signum:Abi.sigsys ~at:rip;
              false
          | Ret v ->
              set_gpr regs Reg.Rax v;
              true
          | Block_retry reason ->
              (* rip stays at the syscall: it re-executes on wake *)
              p.Proc.state <- Proc.Blocked reason;
              false
          | Block_after reason ->
              set_gpr regs Reg.Rax 0L;
              set_rip regs next;
              p.Proc.state <- Proc.Blocked reason;
              false
          | Terminate st ->
              p.Proc.state <- st;
              false
          | Sigret -> false)
    with Mem.Fault (_, _) ->
      deliver_signal t p ~signum:Abi.sigsegv ~at:rip;
      false
  in
  if fell then set_rip regs next;
  fell

(** Execute exactly one instruction of [p]; assumes [p] runnable. *)
let step_insn t (p : Proc.t) =
  let rip = Proc.rip p.Proc.regs in
  let mem = p.Proc.mem in
  match
    Decode.decode (fun i -> Mem.fetch8 mem (Int64.add rip (Int64.of_int i)))
  with
  | exception Mem.Fault (a, _) ->
      ignore a;
      deliver_signal t p ~signum:Abi.sigsegv ~at:rip
  | exception Decode.Invalid_opcode _ ->
      deliver_signal t p ~signum:Abi.sigill ~at:rip
  | Insn.Int3, _ ->
      (* breakpoint: saved rip = the int3 itself, so a verifier handler can
         restore the original byte and simply sigreturn to retry (§3.2.3) *)
      t.clock <- Int64.add t.clock 1L;
      Obs.incr t.obs_traps;
      if Obs.enabled () then begin
        Obs.incr
          (Obs.counter
             ~labels:[ ("pid", string_of_int p.Proc.pid) ]
             "machine.traps");
        Obs.event ~kind:"trap"
          (Printf.sprintf "pid=%d comm=%s rip=0x%Lx" p.Proc.pid p.Proc.comm rip)
      end;
      deliver_signal t p ~signum:Abi.sigtrap ~at:rip
  | insn, len -> ignore (exec_decoded t p insn len : bool)

let step t (p : Proc.t) =
  step_insn t p;
  (* exit-syscall and hlt deaths bypass deliver_signal *)
  notify_exit t p

(* ---------- scheduler ---------- *)

let wake_check t (p : Proc.t) =
  match p.Proc.state with
  | Proc.Blocked (Proc.On_sleep wake) -> if t.clock >= wake then p.Proc.state <- Proc.Runnable
  | Proc.Blocked (Proc.On_accept fd) -> (
      match Hashtbl.find_opt p.Proc.fds fd with
      | Some (Proc.Fd_listener port) -> (
          match
            Net.find_listener_owned t.net ~port
              ~owner:(tree_root t p.Proc.pid)
          with
          | Some l when l.Net.backlog <> [] -> p.Proc.state <- Proc.Runnable
          | _ -> ())
      | _ -> p.Proc.state <- Proc.Runnable (* fd vanished: let syscall fail *))
  | Proc.Blocked (Proc.On_recv fd) -> (
      match Hashtbl.find_opt p.Proc.fds fd with
      | Some (Proc.Fd_sock cid) -> (
          match Net.find_conn t.net cid with
          | Some c -> if Net.server_pending c > 0 || c.Net.client_closed then p.Proc.state <- Proc.Runnable
          | None -> p.Proc.state <- Proc.Runnable)
      | _ -> p.Proc.state <- Proc.Runnable)
  | _ -> ()

let quantum = 256

let[@inline] runnable (p : Proc.t) =
  match p.Proc.state with Proc.Runnable -> not p.Proc.frozen | _ -> false

(* Run [p] for at most one quantum, stopping at [deadline]. *)
let run_quantum t (p : Proc.t) ~deadline =
  let budget = ref quantum in
  while !budget > 0 && runnable p && t.clock < deadline do
    match (t.exec_cached, t.on_insn) with
    | Some exec, None -> (
        (* decoded-block dispatch; per-insn hooks (the slicer) force the
           single-step interpreter *)
        match exec p ~fuel:!budget ~until:deadline with
        | 0 ->
            (* cache declined (int3 at rip, fault, injected dispatch
               fault): single-step this one *)
            step t p;
            decr budget
        | n ->
            budget := !budget - n;
            notify_exit t p)
    | _ ->
        step t p;
        decr budget
  done

(** Run the machine for at most [max_cycles] virtual cycles. Returns
    [`Idle] when every live process is blocked on external input (the host
    should inject work), [`Budget] when the cycle budget ran out, and
    [`Dead] when no live processes remain.

    Each iteration walks the spawn-ordered table twice: first waking
    blocked processes whose event arrived, then snapshotting the runnable
    ones into a reused buffer (and the earliest unfrozen sleeper's wake
    cycle). The snapshot is fixed before any quantum runs, so a process
    forked or woken during the pass waits for the next iteration. *)
let run t ~max_cycles =
  let deadline = Int64.add t.clock (Int64.of_int max_cycles) in
  let rec loop () =
    if t.clock >= deadline then `Budget
    else begin
      let procs = table t in
      let runq = t.sched.runq in
      let live = ref false in
      for k = 0 to Array.length procs - 1 do
        let p = procs.(k) in
        if Proc.is_live p then begin
          live := true;
          wake_check t p
        end
      done;
      let n = ref 0 in
      let sleeper = ref false and earliest = ref 0L in
      for k = 0 to Array.length procs - 1 do
        let p = procs.(k) in
        match p.Proc.state with
        | Proc.Runnable when not p.Proc.frozen ->
            runq.(!n) <- k;
            incr n
        | Proc.Blocked (Proc.On_sleep w) when not p.Proc.frozen ->
            if (not !sleeper) || w < !earliest then earliest := w;
            sleeper := true
        | _ -> ()
      done;
      if !n = 0 then
        if not !live then `Dead
        else if not !sleeper then `Idle
        else begin
          (* advance the clock to the earliest sleeper *)
          t.clock <- Int64.max t.clock (Int64.min !earliest deadline);
          if t.clock >= deadline then `Budget else loop ()
        end
      else begin
        for k = 0 to !n - 1 do
          run_quantum t procs.(runq.(k)) ~deadline
        done;
        loop ()
      end
    end
  in
  loop ()

(** Run until [pred] holds, all processes die, or the budget expires. *)
let run_until t ~max_cycles ~pred =
  let deadline = Int64.add t.clock (Int64.of_int max_cycles) in
  let rec go () =
    if pred () then `Pred
    else if t.clock >= deadline then `Budget
    else
      match run t ~max_cycles:(min 10_000 (Int64.to_int (Int64.sub deadline t.clock))) with
      | `Dead -> `Dead
      | `Idle -> if pred () then `Pred else `Idle
      | `Budget -> go ()
  in
  go ()

(* ---------- checkpoint support ---------- *)

(* freeze/thaw/reap are idempotent: the transactional cut pipeline may
   re-run or unwind any stage, so "already frozen", "already thawed" and
   "already reaped" must all be harmless no-ops. *)

let freeze t ~pid =
  match proc t pid with
  | Some p when Proc.is_live p -> p.Proc.frozen <- true
  | Some _ | None -> ()

let thaw t ~pid =
  match proc t pid with Some p -> p.Proc.frozen <- false | None -> ()

(** Remove a process (after its image was dumped, before restore). The
    pid keeps its slot in the spawn order so a later {!install} keeps
    its scheduling slot. *)
let reap t ~pid =
  if Hashtbl.mem t.procs pid then begin
    Hashtbl.remove t.procs pid;
    t.sched.stale <- true
  end

(** Install a restored process object (CRIU restore). *)
let install t (p : Proc.t) =
  if List.mem p.Proc.pid t.sched.order then begin
    Hashtbl.replace t.procs p.Proc.pid p;
    t.sched.stale <- true
  end
  else add_proc t p;
  t.next_pid <- max t.next_pid (p.Proc.pid + 1)
