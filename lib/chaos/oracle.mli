(** Invariant oracles for the directed chaos probes (DESIGN.md §6c).
    Each must hold once the struck operation is over and recovery has
    run:

    - {b applied XOR unchanged}: every worker's feature blocks are all
      int3 or all original bytes, never mixed within one pid;
    - {b waves kept or unwound}: judged from the fleet manifest's valid
      prefix as recovery found it, a wave recorded done has every member
      cut, and every member a still-open wave recorded as cut is fully
      original again;
    - {b recovery idempotent}: a second [Fleet.recover] pass leaves the
      machine-state digest unchanged. *)

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

val manifest_prefix : ctx -> Journal.Manifest.entry list
(** The fleet manifest's valid prefix as it stands now. Read it before
    recovery runs: recovery halts an open wave and compacts the
    manifest, which drops the wave's [Worker_cut] records. *)

val check_waves :
  ctx -> plan:int list list -> manifest:Journal.Manifest.entry list -> violation list
(** Waves kept or unwound, judged from [manifest], the valid prefix
    recovery found ({!manifest_prefix}), never from recovery's own
    report: every member of a [Wave_done] wave of [plan] must be fully
    cut, and every pid with a [Worker_cut] in a wave still open in that
    prefix must be fully original — recovery had to unwind it. A cut
    whose [Worker_cut] a torn tail lost imposes nothing beyond
    {!check_xor}. *)

val check_recover_idempotent : ctx -> violation list
(** With one recovery pass already run, a second [Fleet.recover] pass
    must leave the state digest unchanged: every file in the machine fs
    except the fencing locks (their epoch is monotonic by design), plus
    each worker's state and feature bytes. *)
