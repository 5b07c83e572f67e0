(** ROP-gadget census over checkpoint images (paper §4.2): short
    ret-terminated instruction runs reachable from *any* byte offset.
    Wiping code with int3 destroys them; first-byte patching does not —
    the quantitative side of §3.2.2's policy trade-off. *)

type census = {
  g_exec_bytes : int;
  g_gadgets : int;
  g_syscall_gadgets : int;  (** gadgets containing a [syscall] *)
}

val scan_bytes : bytes -> int * int
(** (gadgets, syscall gadgets) in one byte region. *)

val of_image : Images.t -> census
(** Census over every executable, dumped VMA of the image. *)

