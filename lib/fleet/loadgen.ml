(** Deterministic open-loop load generator (DESIGN.md §6b).

    The closed-loop drivers ({!Balancer.request}, [Workload.rpc]) can
    never offer more load than the fleet can serve — each request waits
    for the previous reply. Overload only exists open-loop: arrivals
    follow a Poisson process on the virtual clock (inter-arrival times
    drawn from {!Rng}, so a fixed seed replays bit-for-bit) and are
    dispatched whether or not earlier requests have finished, so
    offered load can exceed capacity and the timeout/retry machinery
    actually engages.

    Clients are impatient: every request carries a deadline, a timed-out
    or refused request retries with capped-jittered exponential
    backoff — but only while the {e per-run retry budget} lasts, so
    retries stop amplifying load exactly when the fleet is saturated
    (tracked as [fleet.retries] / [fleet.budget_exhausted]).

    The machine cannot advance its own clock while every worker blocks
    on accept ([Machine.run] returns [`Idle]); between events the
    generator advances the clock manually, exactly like a host's
    timerfd would fire. *)

type config = {
  lg_seed : int;
  lg_offered : float;  (** mean arrival rate, requests per Mcycle *)
  lg_requests : int;  (** total arrivals to generate *)
  lg_deadline : int64;  (** per-request deadline, cycles *)
  lg_retry_budget : int;  (** per-run budget shared by all requests *)
  lg_max_cycles : int;  (** overall budget (runaway guard) *)
}

let default_config =
  {
    lg_seed = 7;
    lg_offered = 50.;
    lg_requests = 100;
    lg_deadline = 400_000L;
    lg_retry_budget = 50;
    lg_max_cycles = 600_000_000;
  }

type stats = {
  s_offered : int;  (** first-attempt arrivals generated *)
  s_completed : int;  (** replies with a body, within deadline *)
  s_failed : int;  (** gave up: empty reply, retries/budget exhausted *)
  s_refused : int;  (** no eligible worker at dispatch *)
  s_timeouts : int;  (** deadlines that passed in flight *)
  s_retries : int;  (** re-dispatches actually performed *)
  s_budget_exhausted : int;  (** retries wanted but denied by the budget *)
  s_cycles : int64;  (** virtual span of the whole run *)
  s_p50 : float;  (** completed-request latency percentiles, cycles *)
  s_p99 : float;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "offered=%d completed=%d failed=%d refused=%d timeouts=%d \
     retries=%d budget_exhausted=%d cycles=%Ld p50=%.0f p99=%.0f"
    s.s_offered s.s_completed s.s_failed s.s_refused s.s_timeouts
    s.s_retries s.s_budget_exhausted s.s_cycles s.s_p50 s.s_p99

(* exponential inter-arrival for a Poisson process at [rate]/Mcycle *)
let interarrival rng ~rate =
  let u = Rng.float rng in
  let dt = -.log (1. -. u) /. (rate /. 1e6) in
  Int64.of_float (max 1. dt)

(* capped exponential backoff with full jitter on the upper half:
   d = min(400k, 50k * 2^(attempt-1)) cycles; wait in [d/2, d) *)
let backoff rng ~attempt =
  let cap = 400_000L in
  let d = ref 50_000L in
  for _ = 2 to attempt do
    d := Int64.min cap (Int64.mul !d 2L)
  done;
  let d = Int64.to_float (Int64.min cap !d) in
  Int64.of_float (max 1. ((d /. 2.) +. (Rng.float rng *. d /. 2.)))

(** Drive the saturated fleet: generate [lg_requests] Poisson arrivals
    against [b], retrying within the budget, until every request either
    completed, timed out for good, or was dropped. *)
let run (b : Balancer.t) (cfg : config) ~(text : string) : stats =
  if cfg.lg_offered <= 0. then invalid_arg "Loadgen.run: lg_offered <= 0";
  let m = Balancer.(b.machine) in
  let rng = Rng.create cfg.lg_seed in
  let start = m.Machine.clock in
  let hard_deadline = Int64.add start (Int64.of_int cfg.lg_max_cycles) in
  let budget = ref cfg.lg_retry_budget in
  let completed = ref 0
  and failed = ref 0
  and refused = ref 0
  and timeouts = ref 0
  and retries = ref 0
  and budget_exhausted = ref 0 in
  let latencies = ref [] in
  (* arrivals still to generate, and the clock of the next one *)
  let remaining = ref cfg.lg_requests in
  let next_arrival = ref (Int64.add start (interarrival rng ~rate:cfg.lg_offered)) in
  (* requests waiting out a backoff: (due clock, attempt) *)
  let waiting = ref [] in
  (* dispatched tickets: (ticket, attempt) *)
  let inflight = ref [] in
  let give_up () =
    incr failed;
    Obs.incr (Obs.counter "fleet.budget_exhausted");
    incr budget_exhausted
  in
  (* a failed attempt either schedules a retry or burns the request *)
  let retry_or_fail ~attempt =
    (* at most 3 retries per request *)
    if attempt > 3 then incr failed
    else if !budget <= 0 then give_up ()
    else begin
      decr budget;
      incr retries;
      Obs.incr (Obs.counter "fleet.retries");
      let due =
        Int64.add m.Machine.clock (backoff rng ~attempt)
      in
      waiting := (due, attempt) :: !waiting
    end
  in
  let launch ~attempt =
    let deadline = Int64.add m.Machine.clock cfg.lg_deadline in
    match Balancer.dispatch ~deadline b text with
    | `Ticket tk -> inflight := (tk, attempt) :: !inflight
    | `Shed | `Refused ->
        incr refused;
        retry_or_fail ~attempt:(attempt + 1)
  in
  let poll_inflight () =
    inflight :=
      List.filter
        (fun (tk, attempt) ->
          match Balancer.poll b tk with
          | `Pending -> true
          | `Reply (_, body) ->
              if String.length body > 0 then begin
                incr completed;
                latencies :=
                  Int64.to_float
                    (Int64.sub m.Machine.clock Balancer.(tk.tk_sent))
                  :: !latencies
              end
              else (* worker died under the request *)
                retry_or_fail ~attempt:(attempt + 1);
              false
          | `Timed_out _ ->
              incr timeouts;
              retry_or_fail ~attempt:(attempt + 1);
              false)
        !inflight
  in
  let next_event () =
    let cands =
      (if !remaining > 0 then [ !next_arrival ] else [])
      @ List.map fst !waiting
      @ List.filter_map
          (fun (tk, _) -> Net.deadline Balancer.(tk.tk_conn))
          !inflight
    in
    match cands with
    | [] -> None
    | c :: cs -> Some (List.fold_left Int64.min c cs)
  in
  let done_ () = !remaining = 0 && !waiting = [] && !inflight = [] in
  while (not (done_ ())) && m.Machine.clock < hard_deadline do
    (* fire everything due at the current clock *)
    if !remaining > 0 && m.Machine.clock >= !next_arrival then begin
      decr remaining;
      next_arrival :=
        Int64.add !next_arrival (interarrival rng ~rate:cfg.lg_offered);
      launch ~attempt:1
    end
    else begin
      let due, rest =
        List.partition (fun (d, _) -> m.Machine.clock >= d) !waiting
      in
      waiting := rest;
      match due with
      | (_, attempt) :: requeue ->
          waiting := requeue @ !waiting;
          launch ~attempt
      | [] -> (
          poll_inflight ();
          if not (done_ ()) then
            match next_event () with
            | None -> ()
            | Some target ->
                let target = Int64.min target hard_deadline in
                if target > m.Machine.clock then begin
                  let budget_cycles =
                    Int64.to_int (Int64.sub target m.Machine.clock)
                  in
                  let progressed () =
                    List.exists
                      (fun (tk, _) ->
                        Net.client_pending Balancer.(tk.tk_conn) > 0)
                      !inflight
                  in
                  match
                    Machine.run_until m ~max_cycles:budget_cycles
                      ~pred:progressed
                  with
                  | `Pred | `Budget -> ()
                  | `Idle | `Dead ->
                      (* nothing runnable: advance the clock to the next
                         arrival/backoff/deadline, like a host timer *)
                      m.Machine.clock <- Int64.max m.Machine.clock target
                end)
    end
  done;
  (* whatever is still in flight when the budget guard trips *)
  List.iter (fun (_, _) -> incr failed) !inflight;
  let s_offered = cfg.lg_requests - !remaining in
  let p p_ = Obs.percentile_list p_ !latencies in
  let st =
    {
      s_offered;
      s_completed = !completed;
      s_failed = !failed;
      s_refused = !refused;
      s_timeouts = !timeouts;
      s_retries = !retries;
      s_budget_exhausted = !budget_exhausted;
      s_cycles = Int64.sub m.Machine.clock start;
      s_p50 = p 50.;
      s_p99 = p 99.;
    }
  in
  Obs.event ~kind:"loadgen" (Format.asprintf "%a" pp_stats st);
  st
