(** The paper's motivating server scenario (§1, §4.2): keep a web server
    read-only during peak hours, open a short maintenance window for
    uploads at night, and drop the initialization code as soon as boot
    finishes.

    Timeline (all on one live ltpd process, no restarts):
      boot  -> init code removed (wipe)
      peak  -> PUT/DELETE disabled, redirected to the 403 path
      night -> PUT/DELETE re-enabled, admin uploads a file
      peak  -> window closed again; the uploaded file still serves

    Run with: dune exec examples/webserver_customization.exe *)

let show title resp =
  let first_line = List.hd (String.split_on_char '\r' resp) in
  Printf.printf "%-28s %s\n%!" title first_line

let () =
  (* profile the two behaviours offline *)
  let features = Common.web_feature_blocks Workload.ltpd in
  let init_blocks, _, _ = Common.init_only_blocks Workload.ltpd in
  Printf.printf "profiled: %d PUT/DELETE blocks, %d init-only blocks\n\n"
    (List.length features) (List.length init_blocks);

  let c = Workload.boot Workload.ltpd in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in

  (* boot finished: the initialization code will never run again *)
  let _, t =
    Dynacut.cut session ~blocks:init_blocks
      ~policy:{ Dynacut.method_ = `Wipe; on_trap = `Kill }
  in
  Format.printf "init code wiped (%d blocks): %a@.@." (List.length init_blocks)
    Dynacut.pp_timings t;

  (* peak hours: read-only *)
  let put_journal, _ =
    Dynacut.cut session ~blocks:features
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "ltpd_403" }
  in
  print_endline "-- peak hours (read-only) --";
  show "GET /index.html" (Workload.rpc c (Workload.http_get "/index.html"));
  show "PUT /report.txt" (Workload.rpc c (Workload.http_put "/report.txt" "q3 numbers"));
  show "DELETE /index.html" (Workload.rpc c (Workload.http_delete "/index.html"));

  (* midnight: the administrator opens the write window *)
  let (_ : Dynacut.timings) = Dynacut.reenable session put_journal in
  print_endline "\n-- maintenance window --";
  show "PUT /report.txt" (Workload.rpc c (Workload.http_put "/report.txt" "q3 numbers"));
  show "GET /report.txt" (Workload.rpc c (Workload.http_get "/report.txt"));

  (* window closes *)
  let _, _ =
    Dynacut.cut session ~blocks:features
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "ltpd_403" }
  in
  print_endline "\n-- peak hours again --";
  show "PUT /other.txt" (Workload.rpc c (Workload.http_put "/other.txt" "nope"));
  show "GET /report.txt" (Workload.rpc c (Workload.http_get "/report.txt"));

  let alive = Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid) in
  Printf.printf "\nserver alive across all four phases: %b\n" alive;
  assert alive;
  print_endline "webserver customization OK"
