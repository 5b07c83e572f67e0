(** A guest process: registers, memory, signal dispositions, file
    descriptors, scheduler state. *)

type regs = {
  file : bytes;
      (** the 16 GPRs and rip, unboxed: GPR [i] (by [Reg.to_int]) at byte
          [8*i], rip at byte {!rip_off}, host-endian. Go through the
          accessors below; the interpreter reads it with {!get64u} *)
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable of_ : bool;
}

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
(** Unchecked 8-byte load — a primitive, so a caller in another module
    gets an unboxed [int64] (a function call would box its result). *)

external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

val rip_off : int
val fresh_regs : unit -> regs
val copy_regs : regs -> regs
val gpr : regs -> Reg.t -> int64
val set_gpr : regs -> Reg.t -> int64 -> unit

val get : regs -> Reg.t -> int64
(** Same as {!gpr}. *)

val set : regs -> Reg.t -> int64 -> unit
(** Same as {!set_gpr}. *)

val rip : regs -> int64
val set_rip : regs -> int64 -> unit

val pack_flags : regs -> int
(** Condition flags as the signal frame stores them (see {!Abi}). *)

val unpack_flags : regs -> int -> unit

type fd_kind =
  | Fd_stdin
  | Fd_stdout
  | Fd_stderr
  | Fd_file of { path : string; mutable pos : int }
  | Fd_listener of int  (** bound port, -1 before bind *)
  | Fd_sock of int  (** kernel connection id *)

type block_reason =
  | On_accept of int
  | On_recv of int
  | On_sleep of int64  (** absolute wake cycle *)

type state =
  | Runnable
  | Blocked of block_reason
  | Exited of int
  | Killed of int  (** terminating signal *)

type sigaction = { sa_handler : int64; sa_restorer : int64 }

type t = {
  pid : int;
  parent : int;
  comm : string;
  exe_path : string;
  mem : Mem.t;
  regs : regs;
  mutable state : state;
  mutable frozen : bool;
  sigactions : sigaction option array;
  fds : (int, fd_kind) Hashtbl.t;
  mutable next_fd : int;
  mutable mmap_hint : int64;
  stdout : Buffer.t;
  mutable stdout_drained : int;
  mutable retired : int;  (** instructions executed *)
  block_start : bytes;
      (** start vaddr of the open basic block, for tracing: one 8-byte
          cell read and written with {!get64u}/{!set64u}, so the address
          is never boxed; meaningful only while [block_open] *)
  mutable block_open : bool;
  mutable seccomp : int list option;
      (** seccomp-style denylist of syscall numbers; [None] = no filter *)
  mutable exit_notified : bool;
      (** the machine's [on_exit] hook already fired for this process
          object (the hook must fire exactly once per death) *)
}

val stack_top : int64
val stack_size : int
val mmap_base : int64

val is_live : t -> bool
val create : pid:int -> parent:int -> comm:string -> exe_path:string -> mem:Mem.t -> t
val alloc_fd : t -> fd_kind -> int

val drain_stdout : t -> string
(** Console output since the last drain — how the operator watches for
    the init-done log line (§3.1). *)

val peek_stdout : t -> string
val fork_copy : t -> pid:int -> t
val state_to_string : state -> string
