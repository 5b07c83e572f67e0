(** The machine's core, below its scheduler: the process table, CPU
    interpreter, signal delivery, syscall dispatch and the deterministic
    virtual clock (1 cycle per retired instruction). {!Dispatch} runs
    decoded blocks through {!exec_decoded}; {!Machine} schedules
    processes onto it and re-exports this module.

    This plays the role of the Linux kernel + CPU in the paper's setup and
    is part of the trusted computing base its threat model assumes (§2). *)

(* Int-typed [min], [max] and [compare]: the polymorphic ones call into
   the C runtime ([caml_lessequal], [compare_val]), which on the
   per-block path cost more than the block's bookkeeping. *)
open struct
  [@@@warning "-32"]

  let[@inline] min (a : int) b = if a <= b then a else b
  let[@inline] max (a : int) b = if a >= b then a else b
  let compare = Int.compare
end

type trace_hook = Proc.t -> int64 -> int -> unit
(** Called with (process, block start vaddr, block size in bytes) whenever a
    dynamic basic block completes — the tracer's input. *)

type syscall_hook = Proc.t -> int -> unit
(** Called with (process, syscall number) before each syscall is
    dispatched — the probe behind automatic phase detection (§5's
    "monitor specific system calls to determine the end of the
    initialization phase"). *)

type slicer = {
  sl_flow : Flow.t;
  sl_select : Proc.t -> bool;
      (** whether the process is traced; for a traced one it also makes
          the process's state the flow's [last]. Called when the
          running process is not [last]'s. *)
}
(** The dataflow slicer as the machine runs it: the state its step
    writes before every decoded instruction of a traced process
    executes ({!exec_block}, {!step_insn}), and how to find a
    process's part of it. Int3 traps bypass the step. *)

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

(* The decoded-block dispatcher's per-machine state; {!Dispatch} owns
   its behaviour. *)
type dispatcher = {
  d_caches : (int, Cache.t) Hashtbl.t;  (** pid -> its block cache *)
  mutable d_degraded : bool;
      (** a flush fault fired: every cache was dropped and the machine
          runs on the single-step interpreter from here on *)
  mutable d_hits : int;
  mutable d_decodes : int;
  mutable d_flushes : int;  (** blocks evicted, not flush operations *)
  mutable d_superblocks : int;
  d_scratch : Block.slot array;  (** {!Block.decode}'s buffer *)
  obs_hits : Obs.counter;
  obs_decodes : Obs.counter;
  obs_flushes : Obs.counter;
}

type t = {
  fs : Vfs.t;
  net : Net.t;
  procs : (int, Proc.t) Hashtbl.t;
  mutable next_pid : int;
  mutable clock : int64;
  mutable uncharged : int;
      (** instructions retired but not yet added to [clock] and
          ["machine.steps"]; see {!charge} *)
  mutable trace : trace_hook option;
  mutable on_syscall : syscall_hook option;
  mutable slicer : slicer option;
  rng : Rng.t;
  syscall_cost : int;  (** extra cycles charged per syscall *)
  sched : sched;
  obs_steps : Obs.counter;  (** cached registry handles: the interpreter *)
  obs_traps : Obs.counter;  (** bumps these once per event, so the lookup *)
  obs_syscalls : Obs.counter;  (** cost is paid at [create], not per insn *)
  dispatcher : dispatcher;
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
      uncharged = 0;
      trace = None;
      on_syscall = None;
      slicer = None;
      rng = Rng.create seed;
      syscall_cost = 40;
      sched = { order = []; table = [||]; runq = [||]; stale = false };
      obs_steps = Obs.counter "machine.steps";
      obs_traps = Obs.counter "machine.traps";
      obs_syscalls = Obs.counter "machine.syscalls";
      dispatcher =
        {
          d_caches = Hashtbl.create 8;
          d_degraded = false;
          d_hits = 0;
          d_decodes = 0;
          d_flushes = 0;
          d_superblocks = 0;
          d_scratch = Block.scratch ();
          obs_hits = Obs.counter "bbcache.hits";
          obs_decodes = Obs.counter "bbcache.decodes";
          obs_flushes = Obs.counter "bbcache.flushes";
        };
    }
  in
  (* The registry's event/span timestamps follow this machine's clock.
     The process-global source reaches the machine through a weak
     pointer, so it never keeps a dropped machine (and its pages and
     decoded blocks) alive; once it is collected it reads 0, as if no
     machine were installed. Last machine created wins — scenarios build
     the machine under test last. *)
  let self = Weak.create 1 in
  Weak.set self 0 (Some t);
  Obs.set_clock
    (Some (fun () -> match Weak.get self 0 with Some t -> t.clock | None -> 0L));
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
    List.filter_map
      (fun p -> if p = exe_path then Some exe else Vfs.find_self t.fs p)
      (Vfs.list t.fs)
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

(* ---------- the clock ---------- *)

(* Retirement counts instructions in [uncharged] (an [int] field write,
   where an [int64] clock write boxes); this adds them to the clock and
   to ["machine.steps"] at once. It runs wherever the clock can be read
   from outside a dispatch chain: once per chain, when {!Dispatch.exec}
   ends it, drains a dirty page set or lets an exception out; after
   each interpreter {!step}; and inside the chain at a syscall, at
   signal delivery and before the trace hook. So every observer sees
   the clock the per-instruction charge would have shown it; the
   slicer's step reads no clock, and the slot limits read
   [clock + uncharged]. *)
let charge t =
  let n = t.uncharged in
  if n > 0 then begin
    t.uncharged <- 0;
    t.clock <- Int64.add t.clock (Int64.of_int n);
    Obs.add t.obs_steps n
  end

(* ---------- tracing helpers ---------- *)

(* Close [p]'s open basic block at [next] (as an [int]: the low 63 bits
   give the same size as the full subtraction, and an [int] argument is
   never boxed). Out of line: only the [block_open] test inlines. *)
let close_block t (p : Proc.t) next =
  (match t.trace with
  | Some hook ->
      charge t;
      let start = Proc.get64u p.Proc.block_start 0 in
      let size = next - Int64.to_int start in
      if size > 0 then hook p start size
  | None -> ());
  p.Proc.block_open <- false

let[@inline] end_block t (p : Proc.t) ~(next : int64) =
  if p.Proc.block_open then close_block t p (Int64.to_int next)

(* ---------- signals ---------- *)

(** Deliver [signum] to [p] with the saved rip = [at] (the faulting /
    trapping instruction). Builds the signal frame described in {!Abi} or
    applies the default action (terminate). *)
let deliver_signal t (p : Proc.t) ~(signum : int) ~(at : int64) =
  charge t;
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
        p.Proc.state <- Proc.Killed Abi.sigsegv))

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

(* Some live process's fd table (a forked child's included) names the
   connection: the kernel must keep it. *)
let sock_named t cid =
  Array.exists
    (fun (q : Proc.t) ->
      Proc.is_live q
      && Hashtbl.fold
           (fun _ k named -> named || match k with Proc.Fd_sock c -> c = cid | _ -> false)
           q.Proc.fds false)
    (table t)

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
          Hashtbl.remove p.Proc.fds (Int64.to_int a1);
          (match Net.find_conn t.net cid with
          | Some c ->
              Net.server_close c;
              if not (sock_named t cid) then Net.drop_conn t.net cid
          | None -> ());
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
   (a store also drops the page's leaf sum). Everything else —
   TLB miss, page straddle, missing permission, and every store to an
   executable page — goes through [Mem.read64]/[Mem.write64] or
   [Mem.read8]/[Mem.write8], the only places that fault or mark a page
   exec-dirty for the code cache. A store returns [false] when it
   marked one (it moved [Mem.exec_gen]), which only the slow path can
   do. *)
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
    pg.Mem.pg_sum <- Bytesx.no_leaf;
    Bytes.set_int64_le pg.Mem.pg_data (Int64.to_int addr land (Mem.page_size - 1)) v;
    true
  end
  else
    let gen = mem.Mem.exec_gen in
    Mem.write64 mem addr v;
    mem.Mem.exec_gen = gen

let[@inline] load8 (mem : Mem.t) addr =
  let pg = tlb_page mem addr in
  if pg.Mem.pg_prot.Self.p_r then
    Char.code (Bytes.get pg.Mem.pg_data (Int64.to_int addr land (Mem.page_size - 1)))
  else Mem.read8 mem addr

let[@inline] store8 (mem : Mem.t) addr v =
  let pg = tlb_page mem addr in
  let prot = pg.Mem.pg_prot in
  if prot.Self.p_w && not prot.Self.p_x then begin
    pg.Mem.pg_sum <- Bytesx.no_leaf;
    Bytes.set pg.Mem.pg_data (Int64.to_int addr land (Mem.page_size - 1)) (Char.unsafe_chr v);
    true
  end
  else
    let gen = mem.Mem.exec_gen in
    Mem.write8 mem addr v;
    mem.Mem.exec_gen = gen

(* A store that dirtied an executable page completed: rip moves on, but a
   decoded copy of the code after it may be stale, so the instruction
   reports that no further slot of a cached block may run. *)
let code_written (regs : Proc.regs) next =
  set_rip regs next;
  false

(* A control transfer: close the current basic block, then move rip. *)
let[@inline] jump t (p : Proc.t) ~next target =
  end_block t p ~next;
  set_rip p.Proc.regs target;
  false

(** Execute one already-decoded instruction of [p] (anything but [Int3],
    which never enters the code cache); assumes [p] runnable. The
    interpreter and the code cache both retire through here, so the
    cycle charge, block bookkeeping, trace hook, [Obs] counters and
    signal delivery are one code path — which is what keeps cached runs
    replay-exact against interpreted ones, clock included. The
    instruction's cycle goes to [t.uncharged]; {!step}, or
    {!Dispatch.exec} once per chain, adds it to the clock and to
    ["machine.steps"] with {!charge}, and so does every arm that lets
    something outside read the clock first (syscall, signal delivery,
    the trace hook). The caller runs the slicer's step just before,
    with the summary it holds (a cached slot's, or a fresh one in the
    interpreter). Returns [true] iff the instruction fell through to
    [rip + len] and the code after it is unchanged; a taken branch,
    signal, fault, blocking syscall or exit returns [false], and so
    does a store that dirtied an executable page (rip still moves to
    [rip + len]). Closure-free, and its common path allocates
    nothing. *)
let exec_decoded t (p : Proc.t) insn len =
  let regs = p.Proc.regs in
  let rip = Proc.get64u regs.Proc.file Proc.rip_off in
  let mem = p.Proc.mem in
  if not p.Proc.block_open then begin
    Proc.set64u p.Proc.block_start 0 rip;
    p.Proc.block_open <- true
  end;
  let next = Int64.add rip (Int64.of_int len) in
  t.uncharged <- t.uncharged + 1;
  p.Proc.retired <- p.Proc.retired + 1;
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
          store64 mem (Int64.add (gpr regs b) (Int64.of_int off)) (gpr regs src)
          || code_written regs next
      | Insn.Load8 (d, b, off) ->
          set_gpr regs d (Int64.of_int (load8 mem (Int64.add (gpr regs b) (Int64.of_int off))));
          true
      | Insn.Store8 (b, off, src) ->
          store8 mem
            (Int64.add (gpr regs b) (Int64.of_int off))
            (Int64.to_int (gpr regs src) land 0xff)
          || code_written regs next
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
          ignore (store64 mem rsp next : bool);
          set_gpr regs Reg.Rsp rsp;
          jump t p ~next (Int64.add next (Int64.of_int rel))
      | Insn.Call_r r ->
          let target = gpr regs r in
          let rsp = Int64.sub (gpr regs Reg.Rsp) 8L in
          ignore (store64 mem rsp next : bool);
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
          let clean = store64 mem rsp (gpr regs r) in
          set_gpr regs Reg.Rsp rsp;
          clean || code_written regs next
      | Insn.Pop r ->
          let rsp = gpr regs Reg.Rsp in
          load64_to regs.Proc.file (Reg.to_int r lsl 3) mem rsp;
          set_gpr regs Reg.Rsp (Int64.add rsp 8L);
          true
      | Insn.Lea (d, off) ->
          set_gpr regs d (Int64.add next (Int64.of_int off));
          true
      | Insn.Syscall -> (
          charge t;
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

(* ---------- the slicer's step ---------- *)

(* The dataflow slicer's per-instruction step over {!Flow}'s state,
   forward dependency-set propagation: every def of an instruction
   carries the union of its uses' sets, its block's and the control
   context's. It runs before the instruction executes, so the
   registers still hold the values its memory operand's address is
   computed from. Everything it does per instruction inlines here but
   a union the memo must decide ([Depset.union]), a block entry
   ([Flow.enter], once per dynamic block) and a store that reshapes
   abstract memory ([Absmem.write]). Unions take their operands in the
   order the instruction lists its [uses], which fixes which sets get
   interned and so every [sid]. *)

(* Most unions have an empty or equal operand: decided here, before
   the call into the memo. *)
let[@inline] union ds a b =
  if a = b || b = Depset.empty then a
  else if a = Depset.empty then b
  else Depset.union ds a b

(* {!Flow.modelled}, inlined *)
let[@inline] modelled (addr : int64) len =
  let a = Int64.to_int addr in
  Int64.equal (Int64.of_int a) addr && a <= max_int - len

(* {!Absmem}'s lookup, inlined: the index of the last range starting at
   or before [addr], or -1 *)
let[@inline] absmem_last_le (m : Absmem.t) addr =
  let lo = ref 0 and hi = ref m.Absmem.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get m.Absmem.los mid <= addr then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* [Absmem.fold] with the union: [acc] and the payload of every range
   overlapping [addr, addr+len), in address order *)
let[@inline] absmem_union ds (m : Absmem.t) addr len acc =
  let i = absmem_last_le m addr in
  (* a range starting below [addr] overlaps only if it reaches past it *)
  let i = if i >= 0 && m.Absmem.los.(i) + m.Absmem.lens.(i) > addr then i else i + 1 in
  let acc = ref acc and i = ref i in
  while !i < m.Absmem.n && Array.unsafe_get m.Absmem.los !i < addr + len do
    acc := union ds !acc (Array.unsafe_get m.Absmem.pays !i);
    incr i
  done;
  !acc

(* [Absmem.write], whose commonest case — a range already carries the
   payload over the whole window — is decided here *)
let[@inline] absmem_write (m : Absmem.t) addr len pay =
  let i = absmem_last_le m addr in
  if not (i >= 0 && m.Absmem.los.(i) + m.Absmem.lens.(i) >= addr + len && m.Absmem.pays.(i) = pay)
  then Absmem.write m ~addr ~len pay

let[@inline] push_ctrl (st : Flow.pstate) s =
  let d = st.Flow.depth + 1 in
  if d >= Array.length st.Flow.ctrl then begin
    let bigger = Array.make (2 * Array.length st.Flow.ctrl) Depset.empty in
    Array.blit st.Flow.ctrl 0 bigger 0 (Array.length st.Flow.ctrl);
    st.Flow.ctrl <- bigger
  end;
  st.Flow.ctrl.(d) <- s;
  st.Flow.depth <- d

(* One instruction's step: [st] is the process's state, [file] its
   register file, [f] the instruction's flat summary. *)
let[@inline] flow_step (fl : Flow.t) (st : Flow.pstate) file (f : Defuse.flat) =
  fl.Flow.insns <- fl.Flow.insns + 1;
  let rip = Proc.get64u file Proc.rip_off in
  if st.Flow.expect_new then Flow.enter fl st rip;
  let id = st.Flow.cur_id in
  if id >= 0 then begin
    let rel = Int64.to_int rip - st.Flow.cur_vaddr + 1 in
    if rel > fl.Flow.ext.(id) then fl.Flow.ext.(id) <- rel
  end;
  let ds = fl.Flow.ds and regdep = st.Flow.regdep in
  (* the value every def carries: its data sources, the control
     context that let this instruction run, and the block computing it *)
  let u = ref st.Flow.base and regs = ref f.Defuse.f_uses in
  for _ = 1 to f.Defuse.f_nuses do
    u := union ds !u (Array.unsafe_get regdep (!regs land 15));
    regs := !regs lsr 4
  done;
  if f.Defuse.f_uses_flags then u := union ds !u st.Flow.flagdep;
  let addr =
    Int64.add (Proc.get64u file (f.Defuse.f_base lsl 3)) (Int64.of_int f.Defuse.f_disp)
  in
  let len = f.Defuse.f_len in
  if f.Defuse.f_load && modelled addr len then
    u := absmem_union ds st.Flow.mem (Int64.to_int addr) len !u;
  let u = !u in
  let regs = ref f.Defuse.f_defs in
  for _ = 1 to f.Defuse.f_ndefs do
    Array.unsafe_set regdep (!regs land 15) u;
    regs := !regs lsr 4
  done;
  if f.Defuse.f_defs_flags then st.Flow.flagdep <- u;
  if f.Defuse.f_store && modelled addr len then absmem_write st.Flow.mem (Int64.to_int addr) len u;
  let top = st.Flow.ctrl.(st.Flow.depth) in
  match f.Defuse.f_control with
  | Defuse.Straight -> ()
  | Defuse.Jump | Defuse.Stop | Defuse.Sys -> st.Flow.expect_new <- true
  | Defuse.Cond_jump ->
      (* blocks after a decision depend on every decision taken at
         this level so far — union, never overwrite *)
      st.Flow.ctrl.(st.Flow.depth) <- union ds top (union ds st.Flow.flagdep st.Flow.cur);
      st.Flow.expect_new <- true
  | Defuse.Indirect_jump r ->
      st.Flow.ctrl.(st.Flow.depth) <-
        union ds top (union ds regdep.(Reg.to_int r) st.Flow.cur);
      st.Flow.expect_new <- true
  | Defuse.Call_push ->
      push_ctrl st (union ds top st.Flow.cur);
      st.Flow.expect_new <- true
  | Defuse.Indirect_call r ->
      push_ctrl st (union ds top (union ds regdep.(Reg.to_int r) st.Flow.cur));
      st.Flow.expect_new <- true
  | Defuse.Return ->
      st.Flow.depth <- max 0 (st.Flow.depth - 1);
      st.Flow.expect_new <- true

(* Is [p] traced? Makes its state the flow's [last] if so. *)
let[@inline] traced sl (p : Proc.t) = p.Proc.pid = sl.sl_flow.Flow.last_pid || sl.sl_select p

(** Execute exactly one instruction of [p]; assumes [p] runnable. *)
let step_insn t (p : Proc.t) =
  let rip = Proc.rip p.Proc.regs in
  let mem = p.Proc.mem in
  match Block.fetch_insn mem rip with
  | exception Mem.Fault _ -> deliver_signal t p ~signum:Abi.sigsegv ~at:rip
  | exception Decode.Invalid_opcode _ ->
      deliver_signal t p ~signum:Abi.sigill ~at:rip
  | Insn.Int3 ->
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
  | insn ->
      (match t.slicer with
      | Some sl when traced sl p ->
          let fl = sl.sl_flow in
          flow_step fl fl.Flow.last p.Proc.regs.Proc.file (Defuse.flat (Defuse.effect insn))
      | _ -> ());
      ignore (exec_decoded t p insn (Insn.length insn) : bool)

let step t (p : Proc.t) =
  step_insn t p;
  charge t

(** Run the slots of the decoded block [b] with [executed] instructions
    already spent; returns the new total. Only a block's last
    instruction can be a syscall, so every earlier one costs exactly
    one cycle: the single-step loop's fuel and deadline checks fold
    into one slot limit taken on entry, and {!Dispatch.exec} re-checks
    both before the next block. Execution also leaves the block early
    when a slot does not fall through ({!exec_decoded} returns [false]
    on a taken trap, signal, blocked syscall or exit, and after a store
    that dirtied an executable page, when the remaining slots may be
    stale) or stops the process — decided from that flag and the
    process state, never by re-reading rip or memory. The block does
    not charge the clock: the cycles it retired stay in [t.uncharged]
    until {!Dispatch.exec} charges the chain, so its limit reads the
    clock as [clock + uncharged].

    A process the slicer traces runs the traced loop: the slicer's step
    ({!flow_step}) before each slot, with the slot's flat summary
    (computed at the slot's first traced run) and the registers the
    interpreter would show it. It calls no closure and reads no clock,
    so it leaves the charge to the chain too. *)
let exec_block t (p : Proc.t) (b : Block.t) ~fuel ~until executed =
  let slots = b.Block.b_slots in
  let limit =
    min (Array.length slots)
      (min (fuel - executed)
         (Int64.to_int (Int64.sub until t.clock) - t.uncharged))
  in
  let i = ref 0 and go = ref true in
  (match t.slicer with
  | Some sl when traced sl p ->
      let fl = sl.sl_flow in
      let st = fl.Flow.last and file = p.Proc.regs.Proc.file in
      while !go && !i < limit do
        let s = Array.unsafe_get slots !i in
        let f = s.Block.s_flat in
        flow_step fl st file (if f != Block.unsummarized then f else Block.summary s);
        go :=
          exec_decoded t p s.Block.s_insn s.Block.s_len
          && (match p.Proc.state with Proc.Runnable -> true | _ -> false)
          && not p.Proc.frozen;
        incr i
      done
  | _ ->
      while !go && !i < limit do
        let s = Array.unsafe_get slots !i in
        go :=
          exec_decoded t p s.Block.s_insn s.Block.s_len
          && (match p.Proc.state with Proc.Runnable -> true | _ -> false)
          && not p.Proc.frozen;
        incr i
      done);
  executed + !i
