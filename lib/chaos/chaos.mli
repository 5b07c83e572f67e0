(** Directed chaos coverage (DESIGN.md §6c).

    {!probe} runs one directed (site, mode) scenario from the one
    per-site table, an exhaustive match over {!Fault.Site.t}: it
    provably reaches the site, strikes it exactly once, and asserts the
    uniform contract — a kill killed the controller there, every pid is
    applied-XOR-unchanged (and, after a kill, on its expected side),
    recovery converges, and the app serves. {!coverage_matrix} runs it
    for every registered site in every {!Fault.applicable_modes} mode
    (the [bench chaos] gate: no unexercised applicable mode); its
    [Kill] column is the crash-recovery matrix
    ([examples/crash_matrix.ml]). *)

val get : string
(** The request every probe serves: [GET /index.html]. *)

val refusal_of_exn : exn -> string option
(** The typed failures treated as a clean refusal (the operation was
    denied, nothing is half-done), described; [None] for anything else,
    which is a host bug and must propagate. *)

exception Probe_failure of string

type outcome = [ `Completed | `Killed | `Refused of string ]

val strike :
  ?spec:Fault.spec ->
  Machine.t ->
  Fault.Site.t ->
  Fault.mode ->
  (unit -> unit) ->
  outcome
(** [strike m site mode op] runs [op] with [site] armed in [mode] under
    [spec] (one-shot by default) against the machine under test [m]:
    [`Completed] when [op] returned, [`Refused] on a typed clean
    refusal, [`Killed] on controller death. Raises {!Probe_failure}
    unless the site fired exactly once, a [Kill] killed the controller
    there, a [Delay] neither refused nor killed, and a [Delay n] charged
    exactly [n] cycles to [m]. *)

(** {2 The fleet the fleet probes run} *)

val ltpd_fleet : int -> Fleet.t * Oracle.ctx
(** A booted [n]-worker ltpd fleet under a first-byte cut that
    redirects to [ltpd_403], and the oracle context over its
    redirect-effective feature blocks. *)

val rollout : Fleet.t -> Rollout.outcome
(** The two-wave rollout of that cut, one canary window per wave, with
    GETs as traffic (a refused GET is part of the run). *)

val fleet_converges : Oracle.ctx -> Fleet.t -> Fleet.recovery
(** Recover the fleet (a second pass if a still-armed kill ends the
    first) and demand XOR, waves kept or unwound per the manifest
    prefix recovery found, an idempotent second pass, and a GET answered
    200. Raises {!Probe_failure} on the first violation. *)

(** {2 The coverage matrix} *)

type probe = {
  p_site : Fault.Site.t;
  p_mode : Fault.mode;
  p_ok : bool;
  p_detail : string;  (** empty when ok *)
}

val probe : Fault.Site.t -> Fault.mode -> probe
(** Reset every fault, strike [site] once in [mode] through its
    scenario and check the uniform contract. Any exception the scenario
    lets escape is this probe's failure, named in [p_detail] — never an
    abort of the whole sweep. *)

val coverage_matrix : unit -> probe list
(** {!probe} for every site of {!Fault.Site.all} in every
    {!Fault.applicable_modes} mode. *)
