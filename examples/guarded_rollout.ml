(** Guarded rollout — the post-cut supervisor end to end.

    A cut that survives the transactional pipeline can still be the
    *wrong* cut: the coverage diff may have swept a wanted path into the
    undesired set. The supervisor turns that from an outage into a
    non-event:

    1. a *good* cut (disable PUT/DELETE) rolls out canary-first: one ngx
       worker takes the cut, serves a wanted-traffic observation window,
       and only then is the cut promoted to the whole tree;
    2. a *bad* cut (the wanted GET path under `Terminate — the first GET
       kills whatever serves it) is stopped by the canary: the worker
       that died is rebuilt from its pristine image and the master never
       sees a single patched byte;
    3. a trap-storm against a dispatch-arm cut trips the circuit
       breaker: the feature is auto-re-enabled, a half-open probe
       re-cuts after the cooldown, and a second storm abandons the cut
       for good — every decision stamped with the virtual clock.

    Run with: dune exec examples/guarded_rollout.exe *)

let get = "GET /index.html HTTP/1.0\r\n\r\n"
let put = "PUT /evil.html HTTP/1.0\r\n\r\nowned"

let status resp =
  match String.index_opt resp ' ' with
  | Some k when String.length resp >= k + 4 -> String.sub resp (k + 1) 3
  | _ -> "dead"

let () =
  Fault.reset ();
  let app = Workload.ngx in
  (* discovery for acts 1 and 3 runs first: it boots throwaway machines,
     and the metrics clock follows the last machine created *)
  let good_blocks = Common.web_feature_blocks app in
  (* act 3's "feature" is an inverted trace diff (wanted = PUT,
     undesired = GET): under [`Redirect "ngx_http_403"] the
     same-function filter keeps exactly the GET dispatch arm inside
     [ngx_http_handler], so every wanted GET traps, deterministically *)
  let storm_blocks =
    let cfg_of = Common.cfg_of_app app in
    let _, wanted =
      Workload.trace_requests ~app ~requests:[ put ] ~nudge_at_ready:true ()
    in
    let _, undesired =
      Workload.trace_requests ~app ~requests:[ get ] ~nudge_at_ready:true ()
    in
    (Tracediff.feature_blocks ~cfg_of ~wanted:[ wanted ] ~undesired:[ undesired ]
       ())
      .Tracediff.undesired
  in
  let c = Workload.boot app in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let drive () = ignore (Workload.rpc ~max_cycles:800_000 c get) in
  let config = { Supervisor.default_config with Supervisor.canary_windows = 1 } in

  Printf.printf "ngx up (pids %s): GET -> %s, PUT -> %s\n\n"
    (String.concat "," (List.map string_of_int (Dynacut.tree_pids session)))
    (status (Workload.rpc c get))
    (status (Workload.rpc c put));

  (* 1. a good cut promotes: canary worker first, then the whole tree *)
  print_endline "-- good cut (disable PUT/DELETE), canary first --";
  let good =
    Supervisor.create session ~config
      ~blocks:good_blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "ngx_declined" }
  in
  let r = Supervisor.guarded_cut good ~canary:true ~drive () in
  Format.printf "rollout: %a; GET -> %s, PUT -> %s@." Supervisor.pp_rollout r
    (status (Workload.rpc c get))
    (status (Workload.rpc c put));
  print_endline (Supervisor.render_log good);
  (* roll the good cut back so the next act starts clean *)
  ignore (Dynacut.try_reenable session (Supervisor.journals good));

  (* 2. a bad cut is absorbed by the canary: the master never sees it *)
  print_endline "\n-- bad cut (wanted GET path under `Terminate), canary first --";
  let bad =
    Supervisor.create session ~config
      ~blocks:
        [
          Supervisor.block_of_sym (Common.app_exe app) ~module_:"ngx"
            ~sym:"ngx_http_get";
        ]
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Terminate }
  in
  let r = Supervisor.guarded_cut bad ~canary:true ~drive () in
  Format.printf "rollout: %a; GET -> %s (worker respawned pristine)@."
    Supervisor.pp_rollout r
    (status (Workload.rpc c get));
  print_endline (Supervisor.render_log bad);

  (* 3. the circuit breaker: storm -> trip -> auto re-enable -> half-open
     probe -> second storm -> abandoned, on the inverted diff above *)
  print_endline "\n-- trap-storm circuit breaker (no canary: worst case) --";
  let storm_cfg =
    {
      config with
      Supervisor.window = 5_000_000L;
      max_traps = 2;
      cooldown = 10_000_000L;
      max_trips = 2;
    }
  in
  let m = c.Workload.m in
  let storm =
    Supervisor.create session ~config:storm_cfg ~blocks:storm_blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "ngx_http_403" }
  in
  ignore (Supervisor.guarded_cut storm ~canary:false ~drive:(fun () -> ()) ());
  let storm_round () =
    for _ = 1 to 3 do drive () done;
    Supervisor.tick storm;
    Format.printf "after storm: breaker %a, GET -> %s@." Supervisor.pp_breaker
      (Supervisor.breaker_state storm)
      (status (Workload.rpc c get))
  in
  storm_round ();
  (* cooldown elapses in virtual time; the next tick half-open probes *)
  m.Machine.clock <- Int64.add m.Machine.clock storm_cfg.Supervisor.cooldown;
  Supervisor.tick storm;
  Format.printf "after cooldown: breaker %a (probe re-cut)@." Supervisor.pp_breaker
    (Supervisor.breaker_state storm);
  storm_round ();
  print_endline (Supervisor.render_log storm);
  assert (Supervisor.breaker_state storm = Supervisor.Abandoned);
  assert (Proc.is_live (Machine.proc_exn m c.Workload.pid))
