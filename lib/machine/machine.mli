(** The virtual machine: processes, CPU interpreter, signal delivery,
    syscall dispatch, round-robin scheduler, deterministic virtual clock
    (1 cycle per retired instruction). Every machine executes on its
    decoded-block dispatcher ({!Dispatch}), hooked or not; the
    interpreter runs only the steps the cache declines (int3 or fault
    at rip, an injected [Bbcache_dispatch] fault, a degraded
    dispatcher) and the reference the cache is tested against, a
    dispatcher degraded on purpose ({!Dispatch.degrade}). Re-exports
    {!Cpu}, the part below the scheduler. Plays the role of Linux + the
    CPU and is part of the paper's trusted computing base (§2). *)

type trace_hook = Proc.t -> int64 -> int -> unit
(** (process, block start vaddr, block size) at every dynamic basic-block
    completion — the tracer's input. *)

type syscall_hook = Proc.t -> int -> unit
(** (process, syscall number) before dispatch — backs automatic phase
    detection (§5). *)

type slicer = Cpu.slicer = {
  sl_flow : Flow.t;
  sl_select : Proc.t -> bool;
      (** whether the process is traced; for a traced one it also makes
          the process's state the flow's [last]. Called when the
          running process is not [last]'s. *)
}
(** The dataflow slicer as the machine runs it. Before every decoded
    instruction of a traced process executes, the machine applies the
    slicer's step to [sl_flow], with the registers still holding their
    pre-execution values (so a memory operand's address is known) and
    the instruction's flat def/use summary ({!Defuse.flat}). A cached
    slot computes its summary once, at its first traced execution, and
    the cache's traced slot loop calls no closure per slot. Cached and
    interpreted steps apply the same step. Int3 traps take the trap
    path and bypass it. *)

type sched = Cpu.sched
(** The scheduler's spawn-ordered process table (see {!run}). *)

type t = Cpu.t = {
  fs : Vfs.t;
  net : Net.t;
  procs : (int, Proc.t) Hashtbl.t;
  mutable next_pid : int;
  mutable clock : int64;
      (** virtual cycles; exact whenever control is outside
          {!Dispatch.exec}'s chain, and at every hook call *)
  mutable uncharged : int;
      (** instructions the chain retired but has not yet added to
          [clock] and ["machine.steps"]: 0 whenever [clock] is exact *)
  mutable trace : trace_hook option;
  mutable on_syscall : syscall_hook option;
  mutable slicer : slicer option;  (** at most one: [Slicer.attach] *)
  rng : Rng.t;  (** feeds the guest [rand] syscall *)
  syscall_cost : int;
  sched : sched;
  obs_steps : Obs.counter;
      (** registry handles cached at {!create}, so a bump costs a field
          write, not a name lookup; ["machine.steps"] is bumped with the
          clock, once per charge *)
  obs_traps : Obs.counter;
  obs_syscalls : Obs.counter;
  dispatcher : Dispatch.t;
      (** the decoded-block dispatcher {!run} executes on *)
}

val create : ?seed:int -> unit -> t
(** A machine with its decoded-block dispatcher. Also installs this
    machine's virtual clock as the registry's timestamp source
    ([Obs.set_clock]); the most recently created machine wins. The
    source holds the machine weakly: a dropped machine is collected, and
    the source then reads 0, as if none were installed. *)

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
