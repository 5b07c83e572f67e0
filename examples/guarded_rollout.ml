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
       sees a single patched byte.

    Every decision is stamped with the virtual clock.

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
  (* discovery for act 1 runs first: it boots throwaway machines, and
     the metrics clock follows the last machine created *)
  let good_blocks = Common.web_feature_blocks app in
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
  let r = Supervisor.guarded_cut good ~drive () in
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
  let r = Supervisor.guarded_cut bad ~drive () in
  Format.printf "rollout: %a; GET -> %s (worker respawned pristine)@."
    Supervisor.pp_rollout r
    (status (Workload.rpc c get));
  print_endline (Supervisor.render_log bad);
  assert (Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid))
