(** Shared-library injection into checkpoint images (paper §3.3): choose
    a base (user-specified or a randomized-but-unused gap), perform
    global-data and PLT/GOT relocations, create the VMAs, append the
    pages. *)

exception Inject_error of string

val inject :
  Images.t ->
  lib:Self.t ->
  ?base:int64 ->
  deps:(Self.t * int64) list ->
  unit ->
  Images.t * int64
(** Inject [lib] into the image. [deps] supplies the modules (usually
    just libc at its runtime base) that the library's extern GOT
    relocations resolve against. Returns the extended image and the
    chosen base. Every section gets an anonymous VMA, but only its pages
    with a non-zero byte are appended ({!Images.append_pages}), in
    sparse pagemap runs: the handler's [dc_table] and [dc_log] are
    stored nowhere and come back demand-zero, as a loader maps [.bss].
    Raises {!Inject_error} on VMA collision or unresolved symbols. *)

val lib_sym : Self.t -> base:int64 -> string -> int64
(** Absolute address of a symbol of the injected library. *)

val write_policy :
  Images.t ->
  lib:Self.t ->
  base:int64 ->
  mode:int64 ->
  entries:(int64 * int64) list ->
  unit
(** Fill the handler's policy area: mode word, table length, and
    (trap address, payload) pairs — redirect targets under
    {!Handler.mode_redirect}, original bytes under
    {!Handler.mode_verify}. A policy page the image lacks (it was all
    zero at the inject or the last dump) is added by the first non-zero
    byte written into it ({!Images.write_mem}). *)

val read_handler_state : Proc.t -> lib:Self.t -> base:int64 -> int64 * int64 list
(** (hit count, false-positive log) read back from a live process. *)
