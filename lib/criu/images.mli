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

type sums
(** The image seal's leaf sums of one pages buffer: per 4 KiB slot of
    it (a short last slot included), {!Bytesx.leaf} of the slot or
    {!Bytesx.no_leaf}. A table is bound to its buffer by physical
    identity, and is read through {!leaves}. *)

type t = {
  core : core;
  mm : vma_img list;
  pagemap : pagemap_entry list;
  pages : bytes;
  sums : sums;  (** the leaf sums of [pages], where known *)
  files : files;
  tcp : tcp;
  mmap_hint : int64;
}

val page_size : int

val slots : int -> int
(** The 4 KiB slots of [n] bytes, a short last one included. *)

val sums_of : bytes -> int array -> sums
(** [sums_of pages leaf] binds [leaf], one entry per slot of [pages], to
    that buffer. *)

val no_sums : bytes -> sums
(** A table of [pages] that knows no sum. *)

val leaves : t -> int array
(** The leaf table of [t.pages], one entry per slot, shared with [t]:
    the sealer fills it in place, and a store into [t.pages] must drop
    the slots it touches ({!write_mem} does). If [t]'s table belongs to
    another buffer (a functional update swapped the pages), [t] is
    given a fresh table that knows nothing. *)

val page_sum : t -> int -> int
(** The leaf sum of the page at offset [off] of the pages buffer;
    {!Bytesx.no_leaf} unless [off] is slot-aligned and its sum known. *)

val append_pages : t -> bytes -> t * int
(** [t] with bytes appended to its pages, and the offset where they
    start. The old buffer's full slots keep their sums; the new slots
    have none. *)

val image_size : t -> int
(** Approximate on-disk size — the "image size" of Figure 7. *)

val find_vma : t -> int64 -> vma_img option

val read_mem : t -> int64 -> int -> bytes
(** Read dumped memory at a virtual address. Raises [Not_found] if the
    range is not fully populated. *)

val write_mem : t -> int64 -> bytes -> unit
(** Patch dumped memory in place, dropping the leaf sum of every page
    it touches; raises [Not_found], and writes nothing, unless the
    range is fully populated. *)

exception Format_error of string

val encode : t -> string

val encode_into : reserve:int -> t -> bytes
(** [encode t] at offset [reserve] of a fresh buffer of exactly
    [reserve] + its length bytes; the first [reserve] bytes are left
    for the caller (a frame header). The pages are copied once. *)

val pages_offset : t -> int
(** The offset of [t.pages] within [encode t]; for an image {!decode}
    returned, the offset where it read them. *)

val decode : ?off:int -> ?len:int -> string -> t
(** Decode the image encoded in [s.[off .. off+len-1]] ([len] defaults
    to the rest of [s]), reading nothing outside that range: a field
    that would run past its end raises [Bytesx.Truncated]. The image
    knows no leaf sum. *)
