(** Guest application tests: the servers serve, the SPEC kernels compute,
    and the planted CVEs are really exploitable on the vanilla binaries. *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains sub str =
  let n = String.length sub and m = String.length str in
  let rec go i = i + n <= m && (String.sub str i n = sub || go (i + 1)) in
  go 0

let check_contains what sub str =
  if not (contains sub str) then Alcotest.failf "%s: %S not in %S" what sub str

(* ---------- ltpd ---------- *)

let test_ltpd_get_and_404 () =
  let c = Workload.boot Workload.ltpd in
  let r = Workload.rpc c (Workload.http_get "/index.html") in
  check_contains "status" "200 OK" r;
  check_contains "body" "hello from ltpd" r;
  let r = Workload.rpc c (Workload.http_get "/nope.html") in
  check_contains "404" "404 Not Found" r

let test_ltpd_methods () =
  let c = Workload.boot Workload.ltpd in
  check_contains "head" "200 OK" (Workload.rpc c (Workload.http_head "/index.html"));
  check_contains "post echoes" "a=1&b=2" (Workload.rpc c (Workload.http_post "/x" "a=1&b=2"));
  check_contains "options" "Allow:" (Workload.rpc c "OPTIONS / HTTP/1.0\r\n\r\n");
  check_contains "unknown method" "403" (Workload.rpc c "BREW /pot HTTP/1.0\r\n\r\n")

let test_ltpd_webdav_put_get_delete () =
  let c = Workload.boot Workload.ltpd in
  check_contains "put" "201 Created"
    (Workload.rpc c (Workload.http_put "/up.txt" "uploaded-content"));
  check_contains "get upload" "uploaded-content"
    (Workload.rpc c (Workload.http_get "/up.txt"));
  check_contains "delete" "204" (Workload.rpc c (Workload.http_delete "/up.txt"));
  check_contains "gone" "404" (Workload.rpc c (Workload.http_get "/up.txt"))

let test_ltpd_config_parsed () =
  let c = Workload.boot Workload.ltpd in
  (* docroot comes from the config file; serving works only if parsing
     worked *)
  check_contains "css" "color: black" (Workload.rpc c (Workload.http_get "/style.css"))

(* ---------- ngx ---------- *)

let test_ngx_master_worker () =
  let c = Workload.boot Workload.ngx in
  let procs = Machine.all_procs c.Workload.m in
  Alcotest.(check int) "master + worker" 2 (List.length procs);
  check_contains "get via worker" "hello from ltpd"
    (Workload.rpc c (Workload.http_get "/index.html"));
  check_contains "dav put" "201" (Workload.rpc c (Workload.http_put "/d.txt" "dav-data"));
  check_contains "dav get" "dav-data" (Workload.rpc c (Workload.http_get "/d.txt"));
  check_contains "dav delete" "204" (Workload.rpc c (Workload.http_delete "/d.txt"));
  check_contains "unknown" "403" (Workload.rpc c "BREW / HTTP/1.0\r\n\r\n")

(* ---------- rkv ---------- *)

let test_rkv_commands () =
  let c = Workload.boot Workload.rkv in
  Alcotest.(check string) "ping" "+PONG" (Workload.rpc c "PING\n");
  Alcotest.(check string) "get rdb key" "$hello" (Workload.rpc c "GET greeting\n");
  Alcotest.(check string) "set" "+OK" (Workload.rpc c "SET k1 v1\n");
  Alcotest.(check string) "get" "$v1" (Workload.rpc c "GET k1\n");
  Alcotest.(check string) "missing" "$-1" (Workload.rpc c "GET nope\n");
  Alcotest.(check string) "incr" ":42" (Workload.rpc c "INCR counter\n");
  Alcotest.(check string) "exists" ":1" (Workload.rpc c "EXISTS k1\n");
  Alcotest.(check string) "del" ":1" (Workload.rpc c "DEL k1\n");
  Alcotest.(check string) "exists after del" ":0" (Workload.rpc c "EXISTS k1\n");
  Alcotest.(check string) "append" ":8" (Workload.rpc c "APPEND color -red\n");
  Alcotest.(check string) "echo" "hi" (Workload.rpc c "ECHO hi\n");
  Alcotest.(check string) "unknown" "-ERR unknown command" (Workload.rpc c "BOGUS\n");
  check_contains "info" "canary=ok" (Workload.rpc c "INFO\n")

let test_rkv_setrange_benign_and_overflow () =
  let c = Workload.boot Workload.rkv in
  (* benign use *)
  Alcotest.(check string) "benign setrange" ":4" (Workload.rpc c "SETRANGE greeting 2 xy\n");
  Alcotest.(check string) "patched" "$hexyo" (Workload.rpc c "GET greeting\n");
  (* CVE-2019-10192 emulation: oversized offset clobbers the next slot *)
  let (_ : string) = Workload.rpc c "SETRANGE greeting 70 JUNKJUNK\n" in
  Alcotest.(check bool) "server survived the silent corruption" true
    (Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid));
  (* a huge offset crashes the server outright *)
  let (_ : string) = Workload.rpc c "SETRANGE greeting 999999 X\n" in
  match (Machine.proc_exn c.Workload.m c.Workload.pid).Proc.state with
  | Proc.Killed s -> Alcotest.(check int) "SIGSEGV" Abi.sigsegv s
  | st -> Alcotest.failf "expected crash, got %s" (Proc.state_to_string st)

let test_rkv_stralgo_benign_and_overflow () =
  let c = Workload.boot Workload.rkv in
  (* LCS("abcd","abd") = 3 *)
  Alcotest.(check string) "benign stralgo" ":3" (Workload.rpc c "STRALGO abcd abd\n");
  (* CVE-2021-32625 emulation: a 16-char first argument walks row 16 of
     the 16x16 matrix — outside it — and row offset (16*16+4)*8 lands
     exactly on the heap canary *)
  let (_ : string) =
    Workload.rpc c (Printf.sprintf "STRALGO %s %s\n" (String.make 16 'a') "aaaa")
  in
  check_contains "canary corrupted" "canary=CORRUPTED" (Workload.rpc c "INFO\n");
  (* and much longer inputs crash the server outright *)
  let vlong = String.make 60 'b' in
  let (_ : string) = Workload.rpc c (Printf.sprintf "STRALGO %s %s\n" vlong vlong) in
  match (Machine.proc_exn c.Workload.m c.Workload.pid).Proc.state with
  | Proc.Killed s -> Alcotest.(check int) "SIGSEGV" Abi.sigsegv s
  | st -> Alcotest.failf "expected crash, got %s" (Proc.state_to_string st)

let test_rkv_config_overflow () =
  let c = Workload.boot Workload.rkv in
  Alcotest.(check string) "benign config" "+OK" (Workload.rpc c "CONFIG SET small\n");
  check_contains "ok canary" "canary=ok" (Workload.rpc c "INFO\n");
  (* CVE-2016-8339 emulation: a 40-byte value overflows config_param,
     the admin token, and the canary *)
  let (_ : string) = Workload.rpc c ("CONFIG SET " ^ String.make 40 'Z' ^ "\n") in
  check_contains "corrupted" "canary=CORRUPTED" (Workload.rpc c "INFO\n")

(* ---------- SPEC kernels ---------- *)

let spec_result_line (c : Workload.ctx) =
  Workload.console c

let test_spec_kernels_run () =
  List.iter
    (fun (k : Spec.kernel) ->
      let c = Workload.boot (Workload.spec_app k) in
      (match Workload.run_to_exit c with
      | Proc.Exited 0 -> ()
      | st ->
          Alcotest.failf "%s ended with %s (console: %s)" k.Spec.k_name
            (Proc.state_to_string st) (spec_result_line c));
      check_contains k.Spec.k_name "result" (spec_result_line c))
    Spec.all

let test_spec_deterministic () =
  let run () =
    let c = Workload.boot (Workload.spec_app Spec.leela) in
    let (_ : Proc.state) = Workload.run_to_exit c in
    spec_result_line c
  in
  Alcotest.(check string) "same output across runs" (run ()) (run ())

let test_spec_image_size_ordering () =
  (* the paper's Figure 7 table: mcf has by far the smallest image,
     omnetpp the largest of the suite (we keep the ordering at 1/100
     scale) *)
  let size k =
    let c = Workload.boot (Workload.spec_app k) in
    Machine.freeze c.Workload.m ~pid:c.Workload.pid;
    let img = Checkpoint.dump c.Workload.m ~pid:c.Workload.pid () in
    Images.image_size img
  in
  let mcf = size Spec.mcf
  and perl = size Spec.perlbench
  and omnet = size Spec.omnetpp in
  Alcotest.(check bool) "mcf smallest" true (mcf < perl && mcf < omnet);
  Alcotest.(check bool) "omnetpp largest" true (omnet > perl)

let test_web_wanted_traffic_ok () =
  (* every wanted request gets an HTTP response (no hangs, no crashes) *)
  let c = Workload.boot Workload.ltpd in
  List.iter
    (fun r ->
      let resp = Workload.rpc c r in
      Alcotest.(check bool)
        (Printf.sprintf "response to %S" (String.sub r 0 (min 12 (String.length r))))
        true
        (starts_with ~prefix:"HTTP/1.0 " resp))
    (Workload.web_wanted @ Workload.web_undesired)

let suite =
  [
    Alcotest.test_case "ltpd GET + 404" `Quick test_ltpd_get_and_404;
    Alcotest.test_case "ltpd methods" `Quick test_ltpd_methods;
    Alcotest.test_case "ltpd WebDAV PUT/GET/DELETE" `Quick test_ltpd_webdav_put_get_delete;
    Alcotest.test_case "ltpd config parsing" `Quick test_ltpd_config_parsed;
    Alcotest.test_case "ngx master/worker serving" `Quick test_ngx_master_worker;
    Alcotest.test_case "rkv command set" `Quick test_rkv_commands;
    Alcotest.test_case "rkv SETRANGE overflow (CVE-2019-10192)" `Quick
      test_rkv_setrange_benign_and_overflow;
    Alcotest.test_case "rkv STRALGO overflow (CVE-2021-32625)" `Quick
      test_rkv_stralgo_benign_and_overflow;
    Alcotest.test_case "rkv CONFIG overflow (CVE-2016-8339)" `Quick test_rkv_config_overflow;
    Alcotest.test_case "SPEC kernels run to completion" `Slow test_spec_kernels_run;
    Alcotest.test_case "SPEC deterministic" `Quick test_spec_deterministic;
    Alcotest.test_case "SPEC image size ordering" `Slow test_spec_image_size_ordering;
    Alcotest.test_case "web traffic mix served" `Quick test_web_wanted_traffic_ok;
  ]
