(** tracediff — undesired code-block identification (paper §3.1,
    Figure 4). *)

type report = {
  undesired : Covgraph.block list;  (** blocks safe to disable *)
  n_undesired_raw : int;  (** candidate count before module filtering *)
  n_wanted : int;  (** size of the wanted coverage *)
  n_total_undesired_cov : int;  (** size of the undesired coverage *)
}

val feature_blocks :
  ?cfg_of:(string -> Cfg.t option) ->
  wanted:Drcov.log list ->
  undesired:Drcov.log list ->
  unit ->
  report
(** Feature identification: [blk ∈ CovG_undesired ∧ blk ∉ CovG_wanted].
    Multiple logs per side merge first; [*.so] modules are dropped.
    [cfg_of] enables sound static-block
    canonicalization (recommended for any wipe policy). *)

val init_blocks :
  ?cfg_of:(string -> Cfg.t option) ->
  init:Drcov.log ->
  serving:Drcov.log ->
  unit ->
  report
(** Initialization-only identification from the two nudge-protocol dumps:
    [blk ∈ CovG_init ∧ blk ∉ CovG_serving], libraries included. *)

type slice_report = {
  sliced : Covgraph.block list;  (** covered blocks outside every slice *)
  n_covered : int;  (** serving coverage size after module filtering *)
  n_slice_points : int;
}

val sliced_away :
  ?keep_module:(string -> bool) ->
  ?cfg_of:(string -> Cfg.t option) ->
  covered:Drcov.log list ->
  in_slice:(string * int * int) list ->
  unit ->
  slice_report
(** The third candidate class: covered blocks no wanted-output slice
    touches. [in_slice] is the dataflow slicer's output as plain
    (module, offset, extent) spans; a block is in the slice iff some
    span overlaps its byte range. Refines {!feature_blocks}: these
    blocks ran under wanted requests but contributed to no wanted
    output. *)

val pp_slice_report : Format.formatter -> slice_report -> unit

val pp_report : Format.formatter -> report -> unit
