(** Memory-integrity scrubbing and page-level self-healing: the defense
    against {e silent} corruption ([Fault.Bitflip]) that no checksum seal
    catches, because it lands in resident mapped pages rather than on a
    storage write.

    A baseline manifest records the expected digest (and a snapshot) of
    every resident page in the tree's immutable — non-writable — VMAs:
    text, rodata, and the injected handler library. The baseline is
    captured {e live}, so it reflects exactly what the loader and the
    committed cut edits left in memory. An incremental scrubber walks a
    bounded number of pages per call (rotating a cursor, skipping pages
    whose write generation is unchanged) and reports digest mismatches
    as findings; {!repair} then heals a diverged page from its baseline
    snapshot, digest-validated before any byte is poked. Escalation
    policy (quarantine, respawn) lives above, in the fleet layer.

    Scrubbing is controller-side work: it moves no guest clock, so a
    scrubbed and an unscrubbed run are the same program on the virtual
    axis. Its cost is host time ([bench scrub]). *)

type t

type finding = {
  f_pid : int;
  f_vaddr : int64;  (** page base of the diverged page *)
  f_expected : int64;  (** baseline digest *)
  f_found : int64;  (** digest observed by the scrubber *)
}

val pp_finding : Format.formatter -> finding -> unit

type repair_outcome =
  | Repaired  (** healed from the baseline snapshot *)
  | Repair_failed of string
      (** the snapshot did not reproduce the expected digest — escalate *)

(** {2 Lifecycle} *)

val create : Dynacut.session -> t
(** An empty scrubber for the session's tree; baselines are captured
    lazily at the first {!scrub} (or explicitly via {!rebaseline}). *)

val rebaseline : t -> pid:int -> unit
(** (Re)capture [pid]'s baseline from its live pages — required after
    any legitimate mutation of immutable pages outside the transaction
    engine. A dead pid's manifest is dropped instead. Scrubs detect
    restored processes themselves (a restore installs a fresh page
    table, which marks the manifest stale) and rebaseline automatically. *)

val pages_tracked : t -> int
(** Total baseline pages across all manifests. *)

(** {2 Scrubbing} *)

val scrub : t -> ?pids:int list -> quantum:int -> unit -> finding list
(** Audit up to [quantum] pages, continuing from the rotation cursor
    ([?pids] defaults to the session's tree). Stale or missing manifests
    are refreshed first; each page audit passes the fault site
    [scrub.page] (scoped to the owning pid). Returns the digest
    mismatches found — detection only; pair with {!repair}. *)

val scrub_full : t -> ?pids:int list -> unit -> finding list
(** One full pass over every tracked page — the forced audit behind
    [dynacut scrub] and the chaos probes. *)

val recheck : t -> finding -> bool
(** Digest the finding's page again — [true] if it now matches the
    baseline (used post-repair, and to detect re-divergence). *)

(** {2 Repair} *)

val repair : t -> finding -> repair_outcome
(** Heal one diverged page in place (fault site [integrity.repair],
    scoped to the pid): the page's baseline snapshot is digest-checked
    against the baseline and poked over the live page. The snapshot is
    the only source needed — the working image, the pristine image plus
    the committed deltas and the backing binary could only be accepted
    if they reproduced the same digest, i.e. the same bytes. *)
