(** The fleet orchestrator (DESIGN.md §6a): N single-process workers,
    one listener each on a shared port, customized by composing
    existing subsystems — {!Balancer} (the one way a request reaches a
    worker), {!Rollout} (wave-by-wave cuts with a
    {!Supervisor.guarded_cut} canary per wave) and one
    {!Dynacut.session} (and hence one crash-consistency journal) per
    worker. After a controller death each worker recovers through its
    own journal ({!Dynacut.recover}). *)

type t = {
  machine : Machine.t;
  balancer : Balancer.t;
  workers : Rollout.worker list;
  blocks : Covgraph.block list;
  policy : Dynacut.policy;
}

exception Fleet_error of string

let worker_states = [ "serving"; "cut"; "reverted" ]

(** Refresh the [fleet.workers{state=…}] gauge family from the live
    worker records. *)
let refresh_gauges t =
  List.iter
    (fun state ->
      let n =
        List.length
          (List.filter (fun w -> w.Rollout.w_state = state) t.workers)
      in
      Obs.set_gauge
        (Obs.gauge ~labels:[ ("state", state) ] "fleet.workers")
        (float_of_int n))
    worker_states

(** Assemble a fleet over already-booted workers: every pid must be the
    root of its own tree and own a listener on [port]. *)
let create (machine : Machine.t) ~(port : int)
    ~(pids : int list) ~(blocks : Covgraph.block list)
    ~(policy : Dynacut.policy) : t =
  if pids = [] then raise (Fleet_error "fleet needs at least one worker");
  let workers = List.map (fun pid -> Rollout.make_worker machine ~pid) pids in
  let balancer = Balancer.create machine ~port ~workers:pids in
  let t = { machine; balancer; workers; blocks; policy } in
  refresh_gauges t;
  t

(** Boot [n] workers of [app] on one machine and assemble the fleet;
    see fleet.mli on why [blocks] is an argument. *)
let boot ?seed ~n ~blocks ~policy (app : Workload.app) : t =
  let port =
    match app.Workload.a_port with
    | Some p -> p
    | None -> raise (Fleet_error (app.Workload.a_name ^ " is not a server"))
  in
  let ctxs = Workload.spawn_fleet ?seed ~n app in
  Workload.wait_fleet_ready ctxs;
  let pids = List.map (fun c -> c.Workload.pid) ctxs in
  create (List.hd ctxs).Workload.m ~port ~pids ~blocks ~policy

let machine t = t.machine
let pids t = List.map (fun w -> w.Rollout.w_pid) t.workers
let workers t = t.workers
let balancer t = t.balancer

let worker t ~pid =
  match List.find_opt (fun w -> w.Rollout.w_pid = pid) t.workers with
  | Some w -> w
  | None -> raise (Fleet_error (Printf.sprintf "no worker with pid %d" pid))

(** One closed-loop request through the balancer. *)
let request ?max_cycles t text = Balancer.request ?max_cycles t.balancer text

(** Rolling rollout of the fleet's cut (see {!Rollout.run}). *)
let rollout ?(config = Rollout.default_config) t ~(drive : unit -> unit) () :
    Rollout.outcome * Rollout.wave_report list =
  let outcome, reports =
    Rollout.run ~workers:t.workers ~config ~blocks:t.blocks
      ~policy:t.policy ~drive ()
  in
  refresh_gauges t;
  (outcome, reports)
