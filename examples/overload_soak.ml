(* Determinism guard for the overload-resilience path (DESIGN.md §6b).

   The whole point of driving overload on the virtual clock is that a
   saturated run — Poisson arrivals, health-scored dispatch, bounded
   accept queues, deadline timeouts, jittered retries — replays
   bit-for-bit from its seed. This soak runs the same saturating
   scenario twice from scratch and asserts the two observability dumps
   (counters, gauges, histograms, the event ring with its virtual-cycle
   timestamps) are byte-identical, and that the run actually exercised
   the machinery (timeouts > 0, retries > 0). A host-time leak into the
   deterministic surface, an iteration-order dependence in the balancer,
   or an un-seeded random draw anywhere in the path breaks this
   immediately. *)

let app = Workload.ltpd
let get = Workload.http_get "/index.html"

let soak () =
  Obs.reset ();
  Fault.reset ();
  let blocks = Common.web_feature_blocks app in
  let policy =
    { Dynacut.method_ = `First_byte; on_trap = `Redirect "ltpd_403" }
  in
  let n = 3 in
  (* shallow queues so saturation shows early *)
  let balancer = { Balancer.b_backlog_max = 2 } in
  let fleet = Fleet.boot ~balancer ~n ~blocks ~policy app in
  let cfg =
    {
      Loadgen.default_config with
      Loadgen.lg_seed = 42;
      lg_offered = 150.;
      lg_requests = 80;
      lg_deadline = 150_000L;
      lg_retry_budget = 40;
    }
  in
  let st = Fleet.overload fleet cfg ~text:get in
  (st, Obs.dump_json ())

let () =
  let st1, dump1 = soak () in
  let st2, dump2 = soak () in
  Format.printf "run 1: %a@." Loadgen.pp_stats st1;
  Format.printf "run 2: %a@." Loadgen.pp_stats st2;
  if st1.Loadgen.s_timeouts = 0 then
    failwith "overload_soak: no request timed out — not saturated";
  if st1.Loadgen.s_retries = 0 then
    failwith "overload_soak: no retries — backoff path never exercised";
  if dump1 <> dump2 then begin
    Format.printf "dump 1 (%d bytes) <> dump 2 (%d bytes)@."
      (String.length dump1) (String.length dump2);
    failwith "overload_soak: same seed produced different observability dumps"
  end;
  Format.printf
    "overload soak deterministic: %d bytes of metrics identical across runs \
     (timeouts=%d retries=%d)@."
    (String.length dump1) st1.Loadgen.s_timeouts
    st1.Loadgen.s_retries
