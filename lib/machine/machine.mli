(** The virtual machine: processes, CPU interpreter, signal delivery,
    syscall dispatch, round-robin scheduler, deterministic virtual clock
    (1 cycle per retired instruction, cached or interpreted alike).
    Plays the role of Linux + the CPU and is part of the paper's trusted
    computing base (§2). *)

type trace_hook = Proc.t -> int64 -> int -> unit
(** (process, block start vaddr, block size) at every dynamic basic-block
    completion — the tracer's input. *)

type syscall_hook = Proc.t -> int -> unit
(** (process, syscall number) before dispatch — backs automatic phase
    detection (§5). *)

type exit_hook = Proc.t -> unit
(** Fires exactly once when a process dies (exit syscall, fatal signal,
    double fault) — the supervisor's crash-loop detector. *)

type insn_hook = Proc.t -> Insn.t -> unit
(** Fires before every decoded instruction executes, with registers
    still holding pre-execution values (effective addresses of its
    memory operands can be recomputed) — the dataflow slicer's input.
    Int3 traps take the trap path and bypass it. *)

type sched
(** The scheduler's spawn-ordered process table (see {!run}). *)

type t = {
  fs : Vfs.t;
  net : Net.t;
  procs : (int, Proc.t) Hashtbl.t;
  mutable next_pid : int;
  mutable clock : int64;  (** virtual cycles *)
  mutable trace : trace_hook option;
  mutable on_syscall : syscall_hook option;
  mutable on_exit : exit_hook option;
  mutable on_insn : insn_hook option;
  rng : Rng.t;  (** feeds the guest [rand] syscall *)
  syscall_cost : int;
  sched : sched;
  obs_steps : Obs.counter;
      (** registry handles cached at {!create} so the interpreter's
          per-instruction bump costs a field write, not a name lookup *)
  obs_traps : Obs.counter;
  obs_syscalls : Obs.counter;
  mutable exec_cached : (Proc.t -> fuel:int -> until:int64 -> int) option;
      (** installed by the decoded-block code cache ([Bbcache.enable]):
          run the process out of the cache, stopping where {!run}'s
          single-step loop would (after [fuel] instructions or at clock
          [until]), and return how many executed (0 = fall back to one
          interpreter step). A host-only accelerator: instructions cost
          one cycle either way. Consulted by {!run} only while [on_insn]
          is [None] — per-instruction fidelity (the slicer) always wins. *)
}

val create : ?seed:int -> unit -> t
(** Also installs this machine's virtual clock as the registry's
    timestamp source ([Obs.set_clock]) and its {!bitflip} injector as
    the [Fault.Bitflip] hook; the most recently created machine wins. *)

val bitflip : t -> ?pid:int -> Rng.t -> (int * int64) option
(** Flip one seeded bit in a resident page of an immutable
    (non-writable) VMA — silent corruption of text/rodata. The victim is
    [?pid] when given (and live), else a seeded pick among live
    processes; page, byte and bit are drawn from [rng]. Returns the
    victim pid and the flipped address; [None] when nothing qualifies.
    Installed as the [Fault.Bitflip] hook by {!create}. *)

(** {2 Processes} *)

val proc : t -> int -> Proc.t option
val proc_exn : t -> int -> Proc.t
val all_procs : t -> Proc.t list
(** Every present process (live or dead, not reaped), in spawn order. *)

val tree_root : t -> int -> int
(** Root pid of a process tree (walks the parent chain while the parent
    is still a known process); listeners are owned per tree root. *)

exception Exec_error of string

val spawn : t -> exe_path:string -> ?comm:string -> unit -> Proc.t
(** Load a SELF binary from the machine fs (libraries resolved there
    too), map it + a stack, and create a runnable process. *)

(** {2 Signals} *)

val post_signal : t -> pid:int -> signum:int -> unit

exception Seccomp_denied
(** Internal marker for a filtered syscall (delivered as SIGSYS). *)

(** {2 Execution} *)

val step : t -> Proc.t -> unit
(** Execute exactly one instruction (assumes the process is runnable). *)

val exec_decoded : t -> Proc.t -> Insn.t -> int -> bool
(** Execute one already-decoded instruction (anything but [Int3], which
    never enters the code cache) of byte length [len]; assumes the
    process is runnable and its rip is the instruction's address.
    Returns [true] iff it fell through (rip advanced by [len]); a taken
    branch, signal, fault, blocking syscall or exit returns [false]. The
    interpreter and the decoded-block cache both retire through here,
    so the one-cycle charge, block bookkeeping, trace/insn hooks, [Obs]
    counters and signal delivery are shared — cached runs are
    replay-exact against interpreted ones, virtual clock included. Its
    common path allocates only the boxed [int64] clock increment (three
    words); the retired count is an [int] and the open block's start
    lives in an unboxed cell, so opening and closing a block allocate
    nothing unless a trace hook is installed. *)

val run : t -> max_cycles:int -> [ `Budget | `Dead | `Idle ]
(** Round-robin scheduling until the budget runs out ([`Budget]), every
    live process blocks on external input ([`Idle]), or none remain
    ([`Dead]). Sleep-blocked processes fast-forward the clock. Each
    iteration fixes its runnable set, in spawn order, before running
    anyone's quantum: a process forked or woken meanwhile waits for the
    next iteration. *)

val run_until :
  t -> max_cycles:int -> pred:(unit -> bool) -> [ `Budget | `Dead | `Idle | `Pred ]

(** {2 Checkpoint support} *)

val freeze : t -> pid:int -> unit
(** Exclude from scheduling (CRIU freeze). Idempotent; a no-op on dead
    or unknown pids, so a rollback can re-freeze blindly. *)

val thaw : t -> pid:int -> unit
(** Idempotent inverse of {!freeze}; no-op on unknown pids. *)

val reap : t -> pid:int -> unit
(** Remove a process object (after dumping, before restore).
    Idempotent: reaping an already-reaped pid is a no-op, and the pid
    keeps its scheduling slot for a later {!install}. *)

val install : t -> Proc.t -> unit
(** Install a restored process (CRIU restore). *)
