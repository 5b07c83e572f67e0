(** The injectable SIGTRAP handler library, [dynacut_handler.so]
    (paper §3.2.2–§3.2.3, Figure 5): a position-independent shared object
    whose handler looks the trapping address up in a policy table and
    redirects the saved instruction pointer, terminates, or — in verifier
    mode — restores the original byte and logs the false positive. The
    policy area is patched by {!Dynacut_core.Inject.write_policy}. *)

val mode_terminate : int64
val mode_redirect : int64
val mode_verify : int64

val max_table_entries : int
val max_log_entries : int

val blocked_exit_status : int
(** exit(13): the status the terminate policy uses, asserted by tests. *)

val build : libc:Self.t -> unit -> Self.t
(** Link [dynacut_handler.so] against a libc (its [exit]/[mprotect]
    calls go through its own PLT/GOT — why injection re-runs PLT
    relocations, §3.3). *)

val shared : Self.t Lazy.t
(** [build] against {!Libc.shared}, linked once per process. Injection
    never mutates the library, so every session may share it. *)

(** {2 Symbol names the injector patches} *)

val sym_handler : string
val sym_restorer : string
val sym_mode : string
val sym_table_len : string
val sym_table : string
val sym_log_len : string
val sym_log : string
val sym_hits : string
