(** A guest process: registers, memory, signal dispositions, file
    descriptors, scheduler state. *)

(* Register-file layout: GPR [i] (by [Reg.to_int]) at byte [8*i], rip at
   byte [rip_off], host-endian. One flat [bytes] keeps every register
   unboxed: a read or write is one machine load or store, where an
   [int64 array] or a mutable [int64] field boxes on every write. *)
type regs = {
  file : bytes;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable of_ : bool;
}

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let rip_off = 16 * 8

let fresh_regs () =
  { file = Bytes.make (rip_off + 8) '\000'; zf = false; sf = false; cf = false; of_ = false }

let copy_regs r =
  { file = Bytes.copy r.file; zf = r.zf; sf = r.sf; cf = r.cf; of_ = r.of_ }

let gpr r reg = get64u r.file (Reg.to_int reg lsl 3)
let set_gpr r reg v = set64u r.file (Reg.to_int reg lsl 3) v
let get = gpr
let set = set_gpr
let rip r = get64u r.file rip_off
let set_rip r v = set64u r.file rip_off v

(** Pack condition flags as the signal frame stores them. *)
let pack_flags r =
  (if r.zf then 1 else 0)
  lor (if r.sf then 2 else 0)
  lor (if r.cf then 4 else 0)
  lor if r.of_ then 8 else 0

let unpack_flags r v =
  r.zf <- v land 1 <> 0;
  r.sf <- v land 2 <> 0;
  r.cf <- v land 4 <> 0;
  r.of_ <- v land 8 <> 0

type fd_kind =
  | Fd_stdin
  | Fd_stdout
  | Fd_stderr
  | Fd_file of { path : string; mutable pos : int }
  | Fd_listener of int  (** port *)
  | Fd_sock of int  (** connection id *)

type block_reason =
  | On_accept of int  (** fd *)
  | On_recv of int  (** fd *)
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
  mutable frozen : bool;  (** excluded from scheduling (CRIU freeze) *)
  sigactions : sigaction option array;  (** indexed by signal number *)
  fds : (int, fd_kind) Hashtbl.t;
  mutable next_fd : int;
  mutable mmap_hint : int64;
  stdout : Buffer.t;  (** host-visible console output *)
  mutable retired : int;  (** instructions executed *)
  block_start : bytes;
      (** start vaddr of the open basic block, for tracing, in one
          unboxed 8-byte cell (a high-half start uses all 64 bits, so no
          [int] sentinel can mark "no block"); valid while [block_open] *)
  mutable block_open : bool;
  mutable seccomp : int list option;
      (** seccomp-style denylist of syscall numbers; [None] = no filter.
          Installed by DynaCut's image rewriting (paper §5) *)
}

let stack_top = 0x7ffd_0000_0000L
let stack_size = 256 * 1024
let mmap_base = 0x100_0000_0000L

let is_live p = match p.state with Runnable | Blocked _ -> true | _ -> false

let create ~pid ~parent ~comm ~exe_path ~mem =
  let fds = Hashtbl.create 8 in
  Hashtbl.replace fds 0 Fd_stdin;
  Hashtbl.replace fds 1 Fd_stdout;
  Hashtbl.replace fds 2 Fd_stderr;
  {
    pid;
    parent;
    comm;
    exe_path;
    mem;
    regs = fresh_regs ();
    state = Runnable;
    frozen = false;
    sigactions = Array.make Abi.nsig None;
    fds;
    next_fd = 3;
    mmap_hint = mmap_base;
    stdout = Buffer.create 128;
    retired = 0;
    block_start = Bytes.make 8 '\000';
    block_open = false;
    seccomp = None;
  }

let alloc_fd p kind =
  let fd = p.next_fd in
  p.next_fd <- fd + 1;
  Hashtbl.replace p.fds fd kind;
  fd

let peek_stdout p = Buffer.contents p.stdout

(** Deep fork-copy with a new pid; registers and fds duplicated, memory
    cloned copy-on-nothing (full copy). *)
let fork_copy p ~pid =
  let fds = Hashtbl.copy p.fds in
  (* file positions are per-process: deep-copy Fd_file cells *)
  Hashtbl.iter
    (fun k v ->
      match v with
      | Fd_file { path; pos } -> Hashtbl.replace fds k (Fd_file { path; pos })
      | _ -> ())
    fds;
  {
    pid;
    parent = p.pid;
    comm = p.comm;
    exe_path = p.exe_path;
    mem = Mem.copy p.mem;
    regs = copy_regs p.regs;
    state = Runnable;
    frozen = false;
    sigactions = Array.copy p.sigactions;
    fds;
    next_fd = p.next_fd;
    mmap_hint = p.mmap_hint;
    stdout = Buffer.create 128;
    retired = 0;
    block_start = Bytes.make 8 '\000';
    block_open = false;
    seccomp = p.seccomp;
  }

let state_to_string = function
  | Runnable -> "runnable"
  | Blocked (On_accept fd) -> Printf.sprintf "blocked(accept fd=%d)" fd
  | Blocked (On_recv fd) -> Printf.sprintf "blocked(recv fd=%d)" fd
  | Blocked (On_sleep t) -> Printf.sprintf "blocked(sleep until %Ld)" t
  | Exited c -> Printf.sprintf "exited(%d)" c
  | Killed s -> Printf.sprintf "killed(%s)" (Abi.signal_name s)
