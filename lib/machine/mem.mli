(** Per-process virtual memory: sparse 4 KiB page table + VMA list.
    Pages carry protections; VMAs carry the
    metadata CRIU's [mm] image records and DynaCut edits. Accesses find
    their page through a 64-entry direct-mapped TLB (page number → page
    record) and fall back to the page table's hash lookup on a miss;
    {!map} and {!unmap} flush it, {!protect} need not (protections are
    read live from the record).

    Anonymous memory is demand-zero. A mapped page is {e untouched}
    until the first guest access or kernel-side write to it makes it,
    zero, with the protection of the VMA covering it; only then is it
    resident ({!pages_of_vma}), so a dump holds the pages a process
    touched. Observers ({!peek8}, {!peek_bytes}) read an untouched page
    as zero and leave it untouched. *)

type access = Read | Write | Exec

exception Fault of int64 * access
(** Bad or forbidden access; the machine turns this into SIGSEGV. *)

type vma = {
  va_start : int64;
  va_len : int;  (** bytes, page multiple *)
  va_prot : Self.prot;
  va_file : (string * int) option;  (** backing file path + offset *)
  va_name : string;  (** e.g. "ngx:.text", "[stack]", "[anon]" *)
}

val vma_end : vma -> int64

type page = {
  pg_data : bytes;
  mutable pg_prot : Self.prot;
  mutable pg_sum : int;
      (** the image seal's leaf sum ({!Bytesx.leaf}) of [pg_data], or
          {!Bytesx.no_leaf}. Every store path drops it (the code cache's
          inlined stores too); {!copy} copies it; only {!map_pages} sets
          it. A page that has one is clean since it was set. *)
}
(** A page's buffer belongs to one address space: {!copy} copies it,
    and a restore that takes it over ({!give_up}) removes it from the
    address space it came from, never shares it. *)

val tlb_size : int

val no_page : page
(** A page with no permissions and no data: fills empty TLB slots,
    marks a given-up slot in a page table, and stands for "none" where
    a page is optional (an image slot's origin). No access reaches
    it. *)

type t = {
  pages : (int64, page) Hashtbl.t;
      (** page index → resident page, or {!no_page} for a slot given up
          ({!give_up}); an index the table lacks is untouched *)
  tlb_tag : int array;
      (** per TLB slot: cached page number ([addr lsr 12]) or -1 (empty);
          page number [n] lives in slot [n land (tlb_size - 1)] *)
  tlb_page : page array;  (** per TLB slot: the page record of [tlb_tag] *)
  mutable vmas : vma list;
  exec_dirty : (int64, unit) Hashtbl.t;
      (** page indexes of executable pages modified since the last
          {!take_exec_dirty} — the precise invalidation signal for the
          decoded-block code cache *)
  mutable exec_gen : int;
      (** bumped whenever an executable page joins [exec_dirty]: the
          code cache leaves the executing block once it moves *)
}

val page_size : int
val page_size64 : int64
val page_index : int64 -> int64
(** Page number: addresses are unsigned (a logical shift), so a
    high-half address is its own page, never page 0. *)

val page_base : int64 -> int64

val create : unit -> t

val map :
  t ->
  vaddr:int64 ->
  len:int ->
  prot:Self.prot ->
  ?file:(string * int) option ->
  name:string ->
  unit ->
  vma
(** Map a fresh region; raises [Invalid_argument] on overlap or
    misalignment. Every page is untouched: none is made until an
    access needs it. *)

val map_pages :
  t ->
  vaddr:int64 ->
  len:int ->
  prot:Self.prot ->
  ?file:(string * int) option ->
  name:string ->
  (int -> (bytes * int) option) ->
  vma
(** {!map} with the pages given, as restore builds an address space:
    [page i] is [Some (data, sum)] to make the [i]th page from [data], a
    page-sized buffer the mapping takes over, with leaf sum [sum] (or
    [Bytesx.no_leaf]); [None] leaves the page untouched. A given page counts
    as a kernel-side write: in an executable mapping it lands in the
    dirty set, as a {!poke_bytes} would put it there. *)

val unmap : t -> vaddr:int64 -> len:int -> unit
(** Drop pages; fully-covered VMAs are removed, partial ones split. *)

val protect : t -> vaddr:int64 -> len:int -> prot:Self.prot -> unit
(** mprotect: changes page protections, splitting VMAs as needed. *)

(** {2 Checked accesses (raise {!Fault} on violation)} *)

val read8 : t -> int64 -> int
val fetch8 : t -> int64 -> int
(** Instruction fetch: requires execute permission. *)

val exec_page : t -> int64 -> page
(** The page holding the address, for instruction fetch: raises {!Fault}
    as {!fetch8} does. *)

val write8 : t -> int64 -> int -> unit
val read64 : t -> int64 -> int64
val write64 : t -> int64 -> int64 -> unit
val read_bytes : t -> int64 -> int -> bytes
val write_bytes : t -> int64 -> bytes -> unit
(** The [_bytes] accesses copy a page at a time with the effects of as
    many one-byte accesses: written executable pages are marked dirty,
    and {!Fault} names the first inaccessible byte after every byte
    before it was copied. *)

val read_cstring : t -> int64 -> string
(** NUL-terminated string (bounded at 1 MiB). *)

(** {2 Kernel-side accesses (ignore protections, not presence)} *)

val poke8 : t -> int64 -> int -> unit
val poke_bytes : t -> int64 -> bytes -> unit
(** Kernel-side writes: make an untouched page as a guest access
    would. *)

val peek8 : t -> int64 -> int
val peek_bytes : t -> int64 -> int -> bytes
(** Observers: an untouched page reads zero and stays untouched, so a
    tracer, slicer or oracle that looks never changes what the next
    dump holds. A given-up page or one no VMA covers raises {!Fault}. *)

(** {2 Whole-space operations} *)

val copy : t -> t
(** Deep copy (fork): the resident pages are copied, an untouched page
    stays untouched and a given-up page stays given up. *)

val give_up : t -> int64 -> page -> bool
(** [give_up t vaddr pg] removes [pg] from [t] when it is the page
    resident at [vaddr] ([==]) and returns [true]: it leaves the TLB,
    and a tombstone takes its place in the page table, so any access to
    [vaddr] through [t] raises {!Fault} — the slot is never made again,
    untouched though it now is — and [pg]'s buffer is the caller's to
    map elsewhere. A page buffer belongs to one [t] at a time. Anything
    else returns [false] and changes nothing. *)

val pages_of_vma : t -> vma -> (int64 * page) list
(** Resident pages of a VMA in address order, with their vaddrs:
    neither untouched pages nor tombstones. *)

val find_free : t -> hint:int64 -> len:int -> int64
(** First page-aligned gap of [len] bytes at or after [hint]. *)

(** {2 Executable-page dirty tracking (code-cache invalidation)} *)

val take_exec_dirty : t -> int64 list
(** Dirtied executable page indexes since the last call; clears the set. *)
