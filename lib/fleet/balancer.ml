(** The least-loaded fleet dispatcher (DESIGN.md §6b).

    PR 1-5's balancer was a control plane over the kernel's blind
    round-robin ({!Net.route}); this one owns the dispatch decision.
    Each request is routed to the {e least-loaded eligible} worker:
    dead, frozen, drained and backlog-full workers are skipped (so a
    worker being cut mid-wave receives zero new dispatches before it is
    even frozen). When every worker is skipped the request is refused;
    the bounded accept queues are the only load limit.

    Every decision is recorded twice: in the metric registry
    ([fleet.dispatches{pid}], [fleet.refused], the
    [fleet.request_cycles] latency histogram, [fleet.inflight] /
    [net.accept_queue_depth{owner,port}] gauges) and in a bounded
    in-memory decision log that tests and the acceptance criteria read
    back ("a frozen worker received zero dispatches").

    Split API: {!dispatch}/{!poll} are non-blocking, while {!request}
    keeps the closed-loop connect-run-reply contract the rollout driver
    and the CLI use. *)

(** The per-listener accept-queue bound: the fleet's only load limit. *)
let backlog_max = 8

(** Why a worker was passed over for one dispatch. *)
type skip = Dead | Frozen | Drained | Backlog_full

type verdict =
  | Dispatched of int  (** chosen worker pid *)
  | All_skipped  (** every worker skipped -> refused *)

type decision = {
  d_clock : int64;
  d_verdict : verdict;
  d_skipped : (int * skip) list;  (** per-pid skip reasons, pid order *)
}

type health = {
  mutable h_inflight : int;  (** dispatched, not yet completed *)
  mutable h_dispatched : int;  (** cumulative, the tie-breaker *)
}

type t = {
  machine : Machine.t;
  port : int;
  workers : int list;  (** worker tree-root pids, registration order *)
  health : (int, health) Hashtbl.t;
  mutable inflight : int;  (** aggregate dispatched-not-completed *)
  mutable decisions : decision list;  (** newest first, bounded *)
  mutable n_decisions : int;
}

(** One dispatched request: poll it until a reply or the serving
    worker's death resolves it. *)
type ticket = {
  tk_conn : Net.conn;
  tk_pid : int;
  tk_sent : int64;
  mutable tk_open : bool;
}

exception Balancer_error of string

(** A balancer over [workers], the tree-root pids of the fleet. *)
let create (machine : Machine.t) ~(port : int) ~(workers : int list) : t =
  let health = Hashtbl.create 8 in
  List.iter
    (fun pid -> Hashtbl.replace health pid { h_inflight = 0; h_dispatched = 0 })
    workers;
  { machine; port; workers; health; inflight = 0; decisions = []; n_decisions = 0 }

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

let classify t ~pid : (Net.listener, skip) result =
  match Machine.proc t.machine pid with
  | Some p when Proc.is_live p ->
      if p.Proc.frozen then Error Frozen
      else
        let l = listener t ~pid in
        if not l.Net.accepting then Error Drained
        else if Net.backlog_full l then Error Backlog_full
        else Ok l
  | _ -> Error Dead

(** Pick the least-loaded eligible worker: the lowest in-flight count
    plus accept-queue depth, ties to the worker with fewer cumulative
    dispatches, then the lower pid. *)
let pick t : (int * Net.listener * (int * skip) list, (int * skip) list) result
    =
  let skipped = ref [] in
  let best = ref None in
  List.iter
    (fun pid ->
      match classify t ~pid with
      | Error reason -> skipped := (pid, reason) :: !skipped
      | Ok l -> (
          let h = health t ~pid in
          let key = (h.h_inflight + Net.backlog_depth l, h.h_dispatched, pid) in
          match !best with
          | Some (_, _, k) when compare k key <= 0 -> ()
          | _ -> best := Some (pid, l, key)))
    t.workers;
  match !best with
  | Some (pid, l, _) -> Ok (pid, l, List.rev !skipped)
  | None -> Error (List.rev !skipped)

let set_inflight_gauge t =
  Obs.set_gauge (Obs.gauge "fleet.inflight") (float_of_int t.inflight)

let dispatch_ticket t (text : string) : [ `Ticket of ticket | `Refused ] =
  Fault.site Balancer_dispatch;
  match pick t with
  | Error skipped ->
      Obs.incr (Obs.counter "fleet.refused");
      record t All_skipped skipped;
      `Refused
  | Ok (pid, l, skipped) -> (
      Net.set_backlog_max l backlog_max;
      match Net.connect_via t.machine.Machine.net l with
      | exception Net.Refused _ ->
          (* raced to full between picking and admit *)
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
          Net.client_send conn text;
          `Ticket
            {
              tk_conn = conn;
              tk_pid = pid;
              tk_sent = t.machine.Machine.clock;
              tk_open = true;
            })

(** Non-blocking dispatch of one request. [`Refused] means no worker
    was eligible (the per-pid reasons are in the decision log). [`Shed]
    is never produced: it stays in the result type only for callers
    that still match it. Fault site [balancer.dispatch]. *)
let dispatch t text : [ `Ticket of ticket | `Shed | `Refused ] =
  (dispatch_ticket t text :> [ `Ticket of ticket | `Shed | `Refused ])

let finish t (tk : ticket) =
  if tk.tk_open then begin
    tk.tk_open <- false;
    let h = health t ~pid:tk.tk_pid in
    h.h_inflight <- max 0 (h.h_inflight - 1);
    t.inflight <- max 0 (t.inflight - 1);
    set_inflight_gauge t
  end

let poll_reply t (tk : ticket) : [ `Pending | `Reply of int * string ] =
  if not tk.tk_open then `Pending
  else if Net.client_pending tk.tk_conn > 0 then begin
    finish t tk;
    let cycles = Int64.sub t.machine.Machine.clock tk.tk_sent in
    Obs.observe (latency_hist ()) (Int64.to_float cycles);
    `Reply (tk.tk_pid, Net.client_recv tk.tk_conn)
  end
  else
    match Machine.proc t.machine tk.tk_pid with
    | Some p when Proc.is_live p -> `Pending
    | _ ->
        finish t tk;
        `Reply (tk.tk_pid, Net.client_recv tk.tk_conn)

(** Poll a ticket against the current virtual clock. A reply resolves it
    (recording the latency in [fleet.request_cycles]); a dead worker
    resolves it with whatever bytes already arrived. [`Timed_out] is
    never produced: it stays in the result type only for callers that
    still match it. *)
let poll t tk : [ `Pending | `Reply of int * string | `Timed_out of int ] =
  (poll_reply t tk :> [ `Pending | `Reply of int * string | `Timed_out of int ])

(** One closed-loop request: dispatch, run the machine until the reply
    lands (or the serving worker dies, or [max_cycles] pass), resolve. *)
let request ?(max_cycles = 2_000_000) t (text : string) :
    [ `Reply of int * string | `Refused ] =
  match dispatch_ticket t text with
  | `Refused -> `Refused
  | `Ticket tk ->
      let reply = ref None in
      let pred () =
        match poll_reply t tk with
        | `Pending -> false
        | `Reply r ->
            reply := Some r;
            true
      in
      let (_ : _) = Machine.run_until t.machine ~max_cycles ~pred in
      (match !reply with
      | Some r -> `Reply r
      | None ->
          (* cycle budget ran out with the request still pending *)
          finish t tk;
          `Reply (tk.tk_pid, Net.client_recv tk.tk_conn))
