(** The process rewriter (paper §3.2.1, §3.3): every DynaCut code edit is
    applied to a *static checkpoint image*, never to live memory, which
    is what rules out rewriter/target races. All destructive edits are
    journaled so features can be restored later (bidirectional
    transformation, §3.2.2). *)

type patch =
  | Bytes_patch of { p_vaddr : int64; p_orig : bytes }
      (** original bytes at a virtual address, before an int3 overwrite *)
  | Unmap_patch of {
      u_vma : Images.vma_img;
      u_pages : (int64 * bytes) list;
    }  (** a dropped VMA and its page contents *)

type journal = { j_pid : int; j_patches : patch list }

exception Rewrite_error of string

val module_base : Images.t -> string -> int64 option
(** Base address of a module inside an image (lowest VMA named
    ["<module>:<section>"]). *)

val block_vaddr : Images.t -> Covgraph.block -> int64
(** Absolute address of a (module-relative) coverage block in this
    process. Raises {!Rewrite_error} if the module is not mapped. *)

val disable_first_byte : Images.t -> Covgraph.block list -> patch list
(** Replace the first byte of each block with [int3] — the cheap default
    that blocks a feature entered through its unique first block
    (§3.2.2). *)

val wipe_blocks : Images.t -> Covgraph.block list -> patch list
(** Fill every byte of each block with [int3] — also defeats code reuse
    (ROP) against the disabled feature. *)

val unmap_block_pages :
  Images.t -> Covgraph.block list -> patch list * Images.t
(** Unmap the code pages *fully covered* by the blocks: VMAs split, pages
    dropped from the image. Returns the journal and the rebuilt image. *)

val restore_bytes : Images.t -> patch list -> unit
(** Undo byte patches in place (feature re-enable). *)

val remap : Images.t -> patch list -> Images.t
(** Re-insert unmapped VMAs and their page contents. *)

val set_sigaction :
  Images.t -> signum:int -> handler:int64 -> restorer:int64 -> Images.t
(** Register a signal disposition in the core image — how DynaCut wires
    its injected SIGTRAP handler and restorer (§3.3). *)

val set_seccomp : Images.t -> denied:int list option -> Images.t
(** Install (or clear) a syscall denylist in the core image (§5's
    dynamic seccomp filtering). A filtered syscall delivers SIGSYS. *)

val journal_bytes : journal -> int
(** Total original bytes held by a journal (reporting helper). *)
