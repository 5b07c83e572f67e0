(** Invariant oracles for the directed chaos probes (DESIGN.md §6c).
    Each must hold once the struck operation is over and recovery has
    run:

    - {b applied XOR unchanged}: every worker's feature blocks are all
      int3 or all original bytes, never mixed within one pid;
    - {b each pid on its side}: after a controller death, the pids whose
      cut transaction committed are fully cut and the rest fully
      original;
    - {b recovery idempotent}: a second pass of {!Dynacut.recover} over
      every worker leaves the machine-state digest unchanged. *)

type violation

val pp_violation : Format.formatter -> violation -> unit

(** Everything the checks need to inspect one fleet or tree. *)
type ctx = {
  oc_machine : Machine.t;
  oc_pids : int list;  (** worker tree-root pids *)
  oc_base : int64;  (** guest text base of the workers' binary *)
  oc_blocks : Covgraph.block list;  (** effective feature blocks *)
  oc_originals : int list;  (** original first byte per block *)
}

val make :
  Machine.t -> base:int64 -> blocks:Covgraph.block list -> pids:int list -> ctx
(** The context over [pids]' feature [blocks] at text base [base], with
    the original bytes read from the first pid — call it while that pid
    is still untouched. *)

val check_xor : ctx -> violation list
(** Per-pid applied XOR unchanged, across the whole fleet. *)

val check_sides : ctx -> cut:int list -> violation list
(** Each pid on its expected side of the XOR: every pid in [cut] fully
    cut, every other pid fully original. *)

val check_recover_idempotent : ctx -> violation list
(** With one recovery pass already run, a second pass of
    {!Dynacut.recover} over every worker must leave the state digest
    unchanged: every file in the machine fs except the fencing locks
    (their epoch is monotonic by design), plus each worker's state and
    feature bytes. *)
