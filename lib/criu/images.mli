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

type area = {
  buf : bytes;
  off : int;
  len : int;
  leaf : int array;
      (** per 4 KiB slot of the area (a short last slot included):
          {!Bytesx.leaf} of the slot, or {!Bytesx.no_leaf} when unknown.
          A store into the area must drop the slots it touches
          ({!write_mem} does); the sealer fills unknown ones in place. *)
  origin : Mem.page array;
      (** per slot: the page {!Checkpoint.dump} took the slot from, or
          {!Mem.no_page}. It travels with the slot's bytes as [leaf]
          does and is dropped with it by a store, and only a dump sets
          it, so a slot that has one still holds the bytes its page had
          at the dump: a restore over that process may take the page
          over instead of copying the slot ({!Restore.replace}). *)
}
(** The page area: [len] bytes at [off] of [buf]. A dump, a decoded
    frame and {!layout} lay [buf] out as a whole sealed frame around
    the area, so the seal can fill in header, head and tail where they
    lie ({!frame}). *)

type t = {
  core : core;
  mm : vma_img list;
  pagemap : pagemap_entry list;  (** offsets into the page area *)
  pages : area;
  files : files;
  tcp : tcp;
  mmap_hint : int64;
}

val page_size : int

val slots : int -> int
(** The 4 KiB slots of [n] bytes, a short last one included. *)

val area_of_bytes : bytes -> area
(** The whole of a buffer as a page area that knows no sum and no
    origin. *)

val no_pages : area
(** An empty page area. *)

val page_bytes : t -> bytes
(** A copy of the page area's bytes. *)

val page_sum : t -> int -> int
(** The leaf sum of the page at offset [off] of the page area;
    {!Bytesx.no_leaf} unless [off] is slot-aligned and its sum known. *)

val page_origin : t -> int -> Mem.page
(** The page the slot at offset [off] of the page area was dumped from;
    {!Mem.no_page} unless [off] is slot-aligned and the slot has one. *)

val blit_pages : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Copy [len] bytes between two page areas at slot-aligned offsets;
    every whole slot copied takes its leaf sum and origin along. *)

val append_pages : t -> bytes list -> t * int list
(** [t] with each piece appended to its page area, padded with zeros to
    whole pages (an empty piece takes one), and the offset where each
    starts. The old area is copied once, into a fresh buffer; its whole
    slots keep their sums and origins, the new slots have none. *)

val layout : reserve:int -> t -> len:int -> t
(** [t] with a fresh page area of [len] bytes, its buffer laid out as a
    frame: [reserve] bytes left for a seal header, [t]'s encoded head
    (recording [len] as the pages' length), the area — unwritten, no sum
    or origin known — and [t]'s encoded tail. *)

val relayout : reserve:int -> t -> t
(** {!layout} filled with one copy of [t]'s page area, its sums and its
    origins. *)

val frame : reserve:int -> t -> t
(** [t] encoded at [reserve] of a frame-shaped buffer: [t] itself, its
    head and tail rewritten where they lie, when its buffer is laid out
    for head and tail of the lengths they now encode to; else
    {!relayout}. Only the first copies no page. *)

val copy : t -> t
(** [t] with its buffer, leaf sums and origins copied: writes to
    either do not show in the other. *)

val image_size : t -> int
(** Approximate on-disk size — the "image size" of Figure 7. *)

val find_vma : t -> int64 -> vma_img option

val read_mem : t -> int64 -> int -> bytes
(** Read dumped memory at a virtual address. Raises [Not_found] if the
    range is not fully populated. *)

val write_mem : t -> int64 -> bytes -> unit
(** Patch dumped memory in place, dropping the leaf sum and origin of
    every page it touches; raises [Not_found], and writes nothing,
    unless the range is fully populated. *)

exception Format_error of string

val encode : t -> string

val decode : ?off:int -> ?len:int -> string -> t
(** Decode the image encoded in [s.[off .. off+len-1]] ([len] defaults
    to the rest of [s]), reading nothing outside that range: a field
    that would run past its end raises [Bytesx.Truncated]. The page
    area lies in a copy of [s.[0 .. off+len-1]], so an image decoded
    from a sealed frame is laid out as that frame. The image knows no
    leaf sum and no origin. *)
