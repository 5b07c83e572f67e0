(** PLT-entry liveness analysis (paper §4.2): which PLT stubs were
    executed, which only during initialization, and what survives the
    init wipe — the ret2plt / BROP attack-surface accounting. *)

type plt_entry = {
  pe_name : string;
  pe_off : int;
  pe_executed : bool;
  pe_init_only : bool;
}

type report = { pr_module : string; pr_entries : plt_entry list }

val analyse : Self.t -> init:Covgraph.t -> serving:Covgraph.t -> report
val executed : report -> plt_entry list
val removable : report -> plt_entry list

val removable_blocks : report -> Covgraph.block list
(** Init-only stubs as coverage blocks, ready for {!Dynacut.cut}. *)

val survives : report -> string -> bool
(** Is the named entry still reachable after init removal? ([survives r
    "fork"] is the BROP-viability question.) *)
