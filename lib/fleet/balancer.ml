(** The health-scored fleet dispatcher (DESIGN.md §6b).

    PR 1-5's balancer was a control plane over the kernel's blind
    round-robin ({!Net.route}); this one owns the dispatch decision.
    Each request is routed to the {e least-loaded healthy} worker:
    dead, frozen, drained, backlog-full and straggling workers are
    skipped (so a worker being cut mid-wave receives zero new
    dispatches before it is even frozen). When every worker is skipped
    the request is refused; the bounded accept queues are the only
    load limit.

    Every decision is recorded twice: in the metric registry
    ([fleet.dispatches{pid}], [fleet.timeouts],
    [fleet.refused], the [fleet.request_cycles] latency histogram,
    [fleet.inflight] / [net.accept_queue_depth{owner,port}] gauges) and
    in a bounded in-memory decision log that tests and the acceptance
    criteria read back ("a frozen worker received zero dispatches").

    Split API: {!dispatch}/{!poll} are non-blocking (the open-loop
    generator in {!Loadgen} interleaves many in-flight requests), while
    {!request} keeps the closed-loop connect-run-reply contract the
    rollout driver and the CLI use. *)

type config = { b_backlog_max : int  (** per-listener accept-queue bound *) }

let default_config = { b_backlog_max = 8 }

(* latency samples a worker needs before the straggler test applies *)
let straggler_min = 3

(** Why a worker was passed over for one dispatch. *)
type skip =
  | Dead
  | Frozen
  | Drained
  | Backlog_full
  | Straggler
      (** response-latency EWMA over 3 × the fleet's best: a
          gray-failing worker gets no dispatch, like a frozen one *)

type verdict =
  | Dispatched of int  (** chosen worker pid *)
  | All_skipped  (** every worker skipped -> refused *)

type decision = {
  d_clock : int64;
  d_verdict : verdict;
  d_skipped : (int * skip) list;  (** per-pid skip reasons, pid order *)
}

type health = {
  mutable h_ewma : float;  (** EWMA of in-flight, sampled per dispatch *)
  mutable h_inflight : int;  (** dispatched, not yet completed *)
  mutable h_dispatched : int;  (** cumulative, the tie-breaker *)
  mutable h_lat_ewma : float;
      (** EWMA of response latency in cycles, sampled at {!poll}
          resolution (replies and timeouts — a timeout is a censored
          sample at the full deadline, exactly what a straggler emits) *)
  mutable h_lat_samples : int;  (** latency samples folded in so far *)
}

type t = {
  machine : Machine.t;
  port : int;
  workers : int list;  (** worker tree-root pids, registration order *)
  cfg : config;
  health : (int, health) Hashtbl.t;
  mutable inflight : int;  (** aggregate dispatched-not-completed *)
  mutable decisions : decision list;  (** newest first, bounded *)
  mutable n_decisions : int;
}

(** One dispatched request: poll it until a reply, a timeout, or the
    serving worker's death resolves it. *)
type ticket = {
  tk_conn : Net.conn;
  tk_pid : int;
  tk_sent : int64;
  mutable tk_open : bool;
}

exception Balancer_error of string

(** A balancer over [workers], the tree-root pids of the fleet. *)
let create ?config (machine : Machine.t) ~(port : int) ~(workers : int list) :
    t =
  let cfg = Option.value config ~default:default_config in
  let health = Hashtbl.create 8 in
  List.iter
    (fun pid ->
      Hashtbl.replace health pid
        {
          h_ewma = 0.;
          h_inflight = 0;
          h_dispatched = 0;
          h_lat_ewma = 0.;
          h_lat_samples = 0;
        })
    workers;
  {
    machine;
    port;
    workers;
    cfg;
    health;
    inflight = 0;
    decisions = [];
    n_decisions = 0;
  }

let listener t ~pid =
  match Net.find_listener_owned t.machine.Machine.net ~port:t.port ~owner:pid with
  | Some l -> l
  | None ->
      raise
        (Balancer_error
           (Printf.sprintf "worker %d has no listener on port %d" pid t.port))

(** Stop routing new connections to [pid]; in-flight ones are untouched. *)
let drain t ~pid = (listener t ~pid).Net.accepting <- false

let undrain t ~pid = (listener t ~pid).Net.accepting <- true

let health t ~pid =
  match Hashtbl.find_opt t.health pid with
  | Some h -> h
  | None -> raise (Balancer_error (Printf.sprintf "pid %d is not a worker" pid))

let ewma_latency t ~pid = (health t ~pid).h_lat_ewma

(* fold one response-latency observation into [pid]'s EWMA *)
let note_latency t ~pid (cycles : float) =
  match Hashtbl.find_opt t.health pid with
  | None -> ()
  | Some h ->
      (* weight of the newest sample *)
      let alpha = 0.3 in
      h.h_lat_samples <- h.h_lat_samples + 1;
      h.h_lat_ewma <-
        (if h.h_lat_samples = 1 then cycles
         else (alpha *. cycles) +. ((1. -. alpha) *. h.h_lat_ewma));
      Obs.set_gauge
        (Obs.gauge ~labels:[ ("pid", string_of_int pid) ] "fleet.latency_ewma")
        h.h_lat_ewma

(* the fastest credible worker's latency EWMA, excluding [pid] itself —
   the straggler test is relative, so a uniformly slow fleet (or a lone
   worker) has no stragglers *)
let lat_baseline t ~excluding =
  List.fold_left
    (fun acc pid ->
      if pid = excluding then acc
      else
        let h = health t ~pid in
        if h.h_lat_samples >= straggler_min then
          match acc with
          | None -> Some h.h_lat_ewma
          | Some b -> Some (min b h.h_lat_ewma)
        else acc)
    None t.workers

(** The decision log, oldest first (bounded at 512 decisions). *)
let decisions t = List.rev t.decisions

let dispatches ~pid =
  Obs.counter_value
    (Obs.counter ~labels:[ ("pid", string_of_int pid) ] "fleet.dispatches")

let latency_hist () =
  Obs.histogram
    ~buckets:[ 1e3; 1e4; 5e4; 1e5; 5e5; 1e6; 5e6 ]
    "fleet.request_cycles"

let record t verdict skipped =
  let d =
    { d_clock = t.machine.Machine.clock; d_verdict = verdict; d_skipped = skipped }
  in
  t.decisions <- d :: t.decisions;
  t.n_decisions <- t.n_decisions + 1;
  if t.n_decisions > 512 then begin
    (* drop the oldest half rather than one-at-a-time list surgery *)
    let keep = 256 in
    let rec take k = function
      | x :: xs when k > 0 -> x :: take (k - 1) xs
      | _ -> []
    in
    t.decisions <- take keep t.decisions;
    t.n_decisions <- keep
  end

let classify t ~pid ~(baseline : float option) : (Net.listener, skip) result =
  let alive =
    match Machine.proc t.machine pid with
    | Some p -> if Proc.is_live p then Some p else None
    | None -> None
  in
  match alive with
  | None -> Error Dead
  | Some p ->
      if p.Proc.frozen then Error Frozen
      else
        let l = listener t ~pid in
        if not l.Net.accepting then Error Drained
        else if Net.backlog_full l then Error Backlog_full
        else
          let h = health t ~pid in
          match baseline with
          | Some b
            when h.h_lat_samples >= straggler_min && h.h_lat_ewma > 3. *. b ->
              Error Straggler
          | _ -> Ok l

(** Health-score every worker and pick the least-loaded eligible one.
    Score = EWMA(in-flight) + current accept-queue depth + relative
    response-latency penalty (how many times slower than the fleet's
    best — scale-free, so cycles never swamp queue depths); ties go to
    the worker with fewer cumulative dispatches, then lower pid. A
    worker past 3 × the best latency is skipped
    outright ({!Straggler}). Fault site [balancer.health]. *)
let pick t : (int * Net.listener * (int * skip) list, (int * skip) list) result
    =
  Fault.site "balancer.health";
  let skipped = ref [] in
  let best = ref None in
  List.iter
    (fun pid ->
      let h = health t ~pid in
      (* weight of the newest in-flight sample *)
      let alpha = 0.3 in
      h.h_ewma <- (alpha *. float_of_int h.h_inflight) +. ((1. -. alpha) *. h.h_ewma);
      let baseline = lat_baseline t ~excluding:pid in
      (* age stale slowness toward the fleet baseline on every decision
         — a worker whose latency data says "slow" but which gets no
         dispatches (skipped as a straggler, or merely outscored) would
         otherwise never refresh that data and starve forever; fresh
         slow samples re-raise the EWMA immediately *)
      (match baseline with
      | Some b when h.h_lat_samples >= straggler_min && h.h_lat_ewma > b ->
          let e = b +. ((h.h_lat_ewma -. b) *. 0.9) in
          (* once the residual is inside noise, snap to the baseline so
             the score tie-break (fewest dispatches) can reach the
             worker again — an asymptotic decay never ties exactly *)
          h.h_lat_ewma <- (if e -. b < 0.05 *. b then b else e)
      | _ -> ());
      match classify t ~pid ~baseline with
      | Error reason -> skipped := (pid, reason) :: !skipped
      | Ok l ->
          let lat_term =
            match baseline with
            | Some b when b > 0. && h.h_lat_samples > 0 ->
                max 0. ((h.h_lat_ewma /. b) -. 1.)
            | _ -> 0.
          in
          let score =
            h.h_ewma +. float_of_int (Net.backlog_depth l) +. lat_term
          in
          let better =
            match !best with
            | None -> true
            | Some (_, _, s, disp) ->
                score < s || (score = s && h.h_dispatched < disp)
          in
          if better then best := Some (pid, l, score, h.h_dispatched))
    t.workers;
  match !best with
  | Some (pid, l, _, _) -> Ok (pid, l, List.rev !skipped)
  | None -> Error (List.rev !skipped)

let set_inflight_gauge t =
  Obs.set_gauge (Obs.gauge "fleet.inflight") (float_of_int t.inflight)

(** Non-blocking dispatch of one request. [`Refused] means no worker
    was eligible (the per-pid reasons are in the decision log). [`Shed]
    is never produced: it stays in the result type only for callers
    that still match it. Fault sites [balancer.dispatch] (every
    attempt) and [balancer.health] (scoring). *)
let dispatch ?deadline t (text : string) :
    [ `Ticket of ticket | `Shed | `Refused ] =
  Fault.site "balancer.dispatch";
  match pick t with
  | Error skipped ->
      Obs.incr (Obs.counter "fleet.refused");
      record t All_skipped skipped;
      `Refused
  | Ok (pid, l, skipped) -> (
      Net.set_backlog_max l t.cfg.b_backlog_max;
      match Net.connect_via t.machine.Machine.net l with
      | exception Net.Refused _ ->
          (* raced to full between scoring and admit *)
          Obs.incr (Obs.counter "fleet.refused");
          record t All_skipped [ (pid, Backlog_full) ];
          `Refused
      | conn ->
          let h = health t ~pid in
          h.h_inflight <- h.h_inflight + 1;
          h.h_dispatched <- h.h_dispatched + 1;
          t.inflight <- t.inflight + 1;
          set_inflight_gauge t;
          Obs.incr
            (Obs.counter ~labels:[ ("pid", string_of_int pid) ]
               "fleet.dispatches");
          record t (Dispatched pid) skipped;
          (match deadline with
          | Some at -> Net.set_deadline conn at
          | None -> ());
          Net.client_send conn text;
          `Ticket
            {
              tk_conn = conn;
              tk_pid = pid;
              tk_sent = t.machine.Machine.clock;
              tk_open = true;
            })

let finish t (tk : ticket) =
  if tk.tk_open then begin
    tk.tk_open <- false;
    let h = health t ~pid:tk.tk_pid in
    h.h_inflight <- max 0 (h.h_inflight - 1);
    t.inflight <- max 0 (t.inflight - 1);
    set_inflight_gauge t
  end

(** Poll a ticket against the current virtual clock. A reply resolves it
    (recording the latency in [fleet.request_cycles]); a passed deadline
    abandons the connection ([fleet.timeouts], the server may still
    waste work on the stale backlog entry); a dead worker resolves it
    with whatever bytes already arrived. *)
let poll t (tk : ticket) :
    [ `Pending | `Reply of int * string | `Timed_out of int ] =
  if not tk.tk_open then `Pending
  else if Net.client_pending tk.tk_conn > 0 then begin
    finish t tk;
    let cycles = Int64.sub t.machine.Machine.clock tk.tk_sent in
    Obs.observe (latency_hist ()) (Int64.to_float cycles);
    note_latency t ~pid:tk.tk_pid (Int64.to_float cycles);
    `Reply (tk.tk_pid, Net.client_recv tk.tk_conn)
  end
  else if Net.expired tk.tk_conn ~now:t.machine.Machine.clock then begin
    finish t tk;
    Net.client_close tk.tk_conn;
    (* a timeout is a censored latency sample at the full deadline —
       stragglers mostly emit these, and they must count against them *)
    note_latency t ~pid:tk.tk_pid
      (Int64.to_float (Int64.sub t.machine.Machine.clock tk.tk_sent));
    Obs.incr (Obs.counter "fleet.timeouts");
    Obs.event ~kind:"balancer"
      (Printf.sprintf "timeout pid=%d conn=%d" tk.tk_pid
         tk.tk_conn.Net.conn_id);
    `Timed_out tk.tk_pid
  end
  else
    let dead =
      match Machine.proc t.machine tk.tk_pid with
      | Some p -> not (Proc.is_live p)
      | None -> true
    in
    if dead then begin
      finish t tk;
      `Reply (tk.tk_pid, Net.client_recv tk.tk_conn)
    end
    else `Pending

(** One closed-loop request: dispatch, run the machine until the reply
    lands (or the deadline passes, or the serving worker dies), resolve.
    [`Timed_out pid] carries the worker the request was stranded on. *)
let request ?(max_cycles = 2_000_000) ?deadline_cycles t (text : string) :
    [ `Reply of int * string | `Refused | `Timed_out of int ] =
  let deadline =
    Option.map
      (fun d -> Int64.add t.machine.Machine.clock d)
      deadline_cycles
  in
  match dispatch ?deadline t text with
  | `Shed | `Refused -> `Refused
  | `Ticket tk ->
      let resolved = ref `Pending in
      let pred () =
        match poll t tk with
        | `Pending -> false
        | (`Reply _ | `Timed_out _) as r ->
            resolved := r;
            true
      in
      let (_ : _) = Machine.run_until t.machine ~max_cycles ~pred in
      (match !resolved with
      | `Pending ->
          (* cycle budget ran out with the request still pending *)
          finish t tk;
          `Reply (tk.tk_pid, Net.client_recv tk.tk_conn)
      | `Reply (pid, s) -> `Reply (pid, s)
      | `Timed_out pid -> `Timed_out pid)
