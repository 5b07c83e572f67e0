(** Fault drill — the transactional cut pipeline under injected
    failures. A live-rewrite middleware must never trade availability
    for customization: every stage of cut (checkpoint → rewrite →
    inject → validate → restore) can fail, and whatever fails, the
    target either runs the fully-applied cut or is exactly the process
    it was before.

    The drill boots ngx, then:
    1. injects a one-shot fault at each pipeline site in turn and shows
       the transaction rolling back with the server still answering;
    2. marks a fault transient and shows the retry path absorbing it;
    3. runs a clean cut and probes the now-blocked feature.

    Run with: dune exec examples/fault_drill.exe *)

let get = "GET /index.html HTTP/1.0\r\n\r\n"
let put = "PUT /evil.html HTTP/1.0\r\n\r\nowned"

let status resp =
  match String.index_opt resp ' ' with
  | Some k when String.length resp >= k + 4 -> String.sub resp (k + 1) 3
  | _ -> "???"

let () =
  let app = Workload.ngx in
  let blocks = Common.web_feature_blocks app in
  let c = Workload.boot app in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let policy =
    { Dynacut.method_ = `First_byte; on_trap = `Redirect "ngx_declined" }
  in

  Printf.printf "ngx up (pid %d): GET -> %s, PUT -> %s\n\n" c.Workload.pid
    (status (Workload.rpc c get))
    (status (Workload.rpc c put));

  print_endline "-- drill: one-shot fault at every pipeline site --";
  List.iter
    (fun site ->
      Fault.reset ();
      Fault.arm site Fault.One_shot;
      let r = Dynacut.try_cut session ~blocks ~policy () in
      Format.printf "%-18s %a; GET -> %s@." (Fault.Site.name site) Dynacut.pp_outcome
        r.Dynacut.r_outcome
        (status (Workload.rpc c get)))
    [
      Criu_checkpoint;
      Criu_save;
      Criu_load;
      Rewrite_patch;
      Inject_lib;
      Inject_policy;
      Restore_process;
    ];

  print_endline "\n-- drill: transient fault, absorbed by retry --";
  Fault.reset ();
  Fault.arm ~transient:true Criu_save Fault.One_shot;
  let r = Dynacut.try_cut session ~blocks ~policy () in
  Format.printf "criu.save (transient): %a after %d retry(s), %d backoff cycles@."
    Dynacut.pp_outcome r.Dynacut.r_outcome r.Dynacut.r_retries
    r.Dynacut.r_backoff_cycles;
  Fault.reset ();

  Printf.printf "\ncustomized: GET -> %s, PUT -> %s (blocked via ngx_declined)\n"
    (status (Workload.rpc c get))
    (status (Workload.rpc c put));
  assert (Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid))
