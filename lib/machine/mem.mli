(** Per-process virtual memory: sparse 4 KiB page table + VMA list.
    Pages carry protections and write generations; VMAs carry the
    metadata CRIU's [mm] image records and DynaCut edits. Accesses find
    their page through a 64-entry direct-mapped TLB (page number → page
    record) and fall back to the page table's hash lookup on a miss;
    {!map} and {!unmap} flush it, {!protect} need not (protections are
    read live from the record). *)

type access = Read | Write | Exec

val access_to_string : access -> string

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
  mutable pg_gen : int;
      (** write generation: bumped on every store (including kernel pokes
          and {!flip_bit}) — the dirty-tracking signal the integrity
          scrubber uses to skip provably-unchanged pages cheaply *)
}

val tlb_size : int

val no_page : page
(** A page with no permissions and no data: fills empty TLB slots. *)

type t = {
  pages : (int64, page) Hashtbl.t;
  tlb_tag : int array;
      (** per TLB slot: cached page number ([addr lsr 12]) or -1 (empty);
          page number [n] lives in slot [n land (tlb_size - 1)] *)
  tlb_page : page array;  (** per TLB slot: the page record of [tlb_tag] *)
  mutable vmas : vma list;
  exec_dirty : (int64, unit) Hashtbl.t;
      (** page indexes of executable pages modified since the last
          {!take_exec_dirty} — the precise invalidation signal for the
          decoded-block code cache *)
}

val page_size : int
val page_size64 : int64
val page_index : int64 -> int64
(** Page number: addresses are unsigned (a logical shift), so a
    high-half address is its own page, never page 0. *)

val page_base : int64 -> int64
val page_offset : int64 -> int
val align_up : int -> int

val create : unit -> t
val find_vma : t -> int64 -> vma option

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
    misalignment. All pages are populated (zeroed). *)

val unmap : t -> vaddr:int64 -> len:int -> unit
(** Drop pages; fully-covered VMAs are removed, partial ones split. *)

val protect : t -> vaddr:int64 -> len:int -> prot:Self.prot -> unit
(** mprotect: changes page protections, splitting VMAs as needed. *)

(** {2 Checked accesses (raise {!Fault} on violation)} *)

val read8 : t -> int64 -> int
val fetch8 : t -> int64 -> int
(** Instruction fetch: requires execute permission. *)

val write8 : t -> int64 -> int -> unit
val read64 : t -> int64 -> int64
val write64 : t -> int64 -> int64 -> unit
val read_bytes : t -> int64 -> int -> bytes
val write_bytes : t -> int64 -> bytes -> unit
(** The [_bytes] accesses copy a page at a time with the effects of as
    many one-byte accesses: a page's generation advances by the bytes
    written to it, written executable pages are marked dirty, and
    {!Fault} names the first inaccessible byte after every byte before
    it was copied. *)

val read_cstring : t -> int64 -> string
(** NUL-terminated string (bounded at 1 MiB). *)

(** {2 Kernel-side accesses (ignore protections, not presence)} *)

val poke8 : t -> int64 -> int -> unit
val peek8 : t -> int64 -> int
val poke_bytes : t -> int64 -> bytes -> unit
val peek_bytes : t -> int64 -> int -> bytes

(** {2 Whole-space operations} *)

val copy : t -> t
(** Deep copy (fork, checkpoint). *)

val pages_of_vma : t -> vma -> (int64 * bytes) list
(** Populated pages of a VMA in address order. *)

val total_mapped_bytes : t -> int

(** {2 Page integrity primitives} *)

val digest_bytes : bytes -> int64
(** FNV-1a over raw bytes (the page-digest function). *)

val page_digest : t -> int64 -> int64 option
(** Digest of the resident page containing the address; [None] when the
    page is not populated. *)

val page_gen : t -> int64 -> int option
(** Write generation of the resident page containing the address. *)

val flip_bit : t -> addr:int64 -> bit:int -> unit
(** Flip one bit in a resident page, ignoring protections — the seeded
    silent-corruption injector behind [Fault.Bitflip]. Bumps the page's
    write generation (the generation models a hardware dirty bit, which
    a flip trips even though software write paths were bypassed).
    Raises {!Fault} on a non-resident page. *)

val find_free : t -> hint:int64 -> len:int -> int64
(** First page-aligned gap of [len] bytes at or after [hint]. *)

(** {2 Executable-page dirty tracking (code-cache invalidation)} *)

val exec_dirty_pending : t -> bool
(** Whether any executable page was modified since the last drain. O(1);
    the cache dispatcher polls this at every block boundary. *)

val take_exec_dirty : t -> int64 list
(** Dirtied executable page indexes since the last call; clears the set. *)
