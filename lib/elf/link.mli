(** Linker: {!Asm.obj} objects to SELF executables and shared objects.
    Generates PLT stubs + GOT slots for extern calls, resolves
    intra-module pc-relative relocations, and turns [Abs64] references
    into static patches (executables) or dynamic relocations (shared
    objects). *)

exception Link_error of string

val plt_stub_size : int

val link_exec :
  ?base:int64 -> name:string -> entry:string -> libs:Self.t list -> Asm.obj -> Self.t
(** Link an executable at a fixed [base]; [entry] names the start symbol.
    Raises {!Link_error} on undefined symbols or a missing entry. *)

val link_shared : name:string -> ?libs:Self.t list -> Asm.obj -> Self.t
(** Link a position-independent shared object ([Self.Dyn], base 0).
    Local absolute references become [`Local] dynamic relocations — the
    "global data relocations" DynaCut re-applies at injection. *)
