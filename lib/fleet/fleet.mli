(** The fleet orchestrator (DESIGN.md §6a).

    Runs N single-process guest workers, one listener each on a shared
    port, reached only through the least-loaded {!Balancer}, and
    customizes the whole fleet:

    - {!rollout} applies one cut wave-by-wave, with a
      {!Supervisor.guarded_cut} canary gating every wave;
    - every worker is its own process tree with its own
      {!Dynacut.session} and crash journal, so after a controller death
      each worker recovers alone through {!Dynacut.recover}: every pid
      ends applied XOR unchanged.

    {!boot} boots N processes of one app on a single machine and
    assembles the fleet over them. *)

type t

exception Fleet_error of string

val create :
  Machine.t ->
  port:int ->
  pids:int list ->
  blocks:Covgraph.block list ->
  policy:Dynacut.policy ->
  t
(** Assemble a fleet over already-booted workers. Every pid must be the
    root of its own process tree and own a listener on [port]; each gets
    its own {!Dynacut.session} (and crash journal). Raises {!Fleet_error} (or
    {!Balancer.Balancer_error}) otherwise. *)

val boot :
  ?seed:int ->
  n:int ->
  blocks:Covgraph.block list ->
  policy:Dynacut.policy ->
  Workload.app ->
  t
(** The one way a scenario boots a fleet: [Workload.spawn_fleet] (with
    [?seed]), [Workload.wait_fleet_ready], then {!create}
    on the app's port.
    [blocks] is evaluated before the call, so discovery's throwaway
    machines precede the machine under test: the [Obs] clock follows
    the last machine created (DESIGN.md §5). Raises {!Fleet_error} for
    an app with no port. *)

val machine : t -> Machine.t
val pids : t -> int list
(** The workers' pids, in the order they were booted. *)

val workers : t -> Rollout.worker list
val worker : t -> pid:int -> Rollout.worker
val balancer : t -> Balancer.t

val request :
  ?max_cycles:int -> t -> string -> [ `Reply of int * string | `Refused ]
(** One closed-loop request through the least-loaded balancer: the
    reply plus the pid that served it, or [`Refused] when no worker is
    eligible. *)

val rollout :
  ?config:Rollout.config ->
  t ->
  drive:(unit -> unit) ->
  unit ->
  Rollout.outcome * Rollout.wave_report list
(** Rolling rollout of the fleet's cut; see {!Rollout.run}. [drive]
    advances machine + traffic for the canary observation windows. *)
