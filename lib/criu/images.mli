(** CRIU process images: one checkpoint = core + mm + pagemap + pages +
    files + tcp, mirroring the files the paper's modified CRIT edits
    (§3.3). Binary codec included; {!Crit} provides the text form. *)

type regs_img = { r_gpr : int64 array; r_rip : int64; r_flags : int }

type sigaction_img = { sg_signum : int; sg_handler : int64; sg_restorer : int64 }

type core = {
  c_pid : int;
  c_parent : int;
  c_comm : string;
  c_exe : string;
  c_regs : regs_img;
  c_sigactions : sigaction_img list;
  c_state : string;
  c_seccomp : int list option;  (** denied-syscall filter, if installed *)
}

type vma_img = {
  vi_start : int64;
  vi_len : int;
  vi_prot : int;  (** {!Self.prot_to_int} encoding *)
  vi_file : (string * int) option;  (** backing file + offset *)
  vi_name : string;
}

type pagemap_entry = { pm_vaddr : int64; pm_npages : int; pm_off : int }

type fd_img =
  | Fi_stdin
  | Fi_stdout
  | Fi_stderr
  | Fi_file of string * int
  | Fi_listener of int
  | Fi_sock of int

type files = { f_fds : (int * fd_img) list; f_next_fd : int }
type tcp = Net.conn_snapshot list

type t = {
  core : core;
  mm : vma_img list;
  pagemap : pagemap_entry list;
  pages : bytes;
  files : files;
  tcp : tcp;
  mmap_hint : int64;
}

val page_size : int

val image_size : t -> int
(** Approximate on-disk size — the "image size" of Figure 7. *)

val find_vma : t -> int64 -> vma_img option

val read_mem : t -> int64 -> int -> bytes
(** Read dumped memory at a virtual address. Raises [Not_found] if the
    range is not fully populated. *)

val write_mem : t -> int64 -> bytes -> unit
(** Patch dumped memory in place; raises [Not_found], and writes
    nothing, unless the range is fully populated. *)

exception Format_error of string

val encode : t -> string

val encode_into : reserve:int -> t -> bytes
(** [encode t] at offset [reserve] of a fresh buffer of exactly
    [reserve] + its length bytes; the first [reserve] bytes are left
    for the caller (a frame header). The pages are copied once. *)

val decode : ?off:int -> ?len:int -> string -> t
(** Decode the image encoded in [s.[off .. off+len-1]] ([len] defaults
    to the rest of [s]), reading nothing outside that range: a field
    that would run past its end raises [Bytesx.Truncated]. *)
