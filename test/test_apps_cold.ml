(** Tests for the "cold" feature surface: commands and modules that exist
    in the binaries but that no benchmark workload exercises. They must
    still be *correct* — DynaCut's premise is disabling working features,
    not dead code. (These tests run on their own machines and do not
    perturb the experiments' coverage.) *)

let contains sub str =
  let n = String.length sub and m = String.length str in
  let rec go i = i + n <= m && (String.sub str i n = sub || go (i + 1)) in
  go 0

let check_contains what sub str =
  if not (contains sub str) then Alcotest.failf "%s: %S not in %S" what sub str

(* ---------- rkv cold commands ---------- *)

let test_rkv_ttl_persist () =
  let c = Workload.boot Workload.rkv in
  Alcotest.(check string) "ttl missing" ":-2" (Workload.rpc c "TTL nope\n");
  Alcotest.(check string) "ttl no expiry" ":-1" (Workload.rpc c "TTL greeting\n");
  Alcotest.(check string) "expire" ":1" (Workload.rpc c "EXPIRE greeting 100\n");
  Alcotest.(check string) "expire missing" ":0" (Workload.rpc c "EXPIRE nope 5\n");
  Alcotest.(check string) "persist" ":1" (Workload.rpc c "PERSIST greeting\n");
  (* persisted key still readable *)
  Alcotest.(check string) "get after persist" "$hello" (Workload.rpc c "GET greeting\n")

let test_rkv_type_rename () =
  let c = Workload.boot Workload.rkv in
  Alcotest.(check string) "type" "+string" (Workload.rpc c "TYPE greeting\n");
  Alcotest.(check string) "type missing" "+none" (Workload.rpc c "TYPE nope\n");
  Alcotest.(check string) "rename" "+OK" (Workload.rpc c "RENAME greeting hi\n");
  Alcotest.(check string) "old gone" "$-1" (Workload.rpc c "GET greeting\n");
  Alcotest.(check string) "new there" "$hello" (Workload.rpc c "GET hi\n");
  Alcotest.(check string) "rename missing" "-ERR no such key" (Workload.rpc c "RENAME nope x\n")

let test_rkv_string_commands () =
  let c = Workload.boot Workload.rkv in
  Alcotest.(check string) "strlen" ":5" (Workload.rpc c "STRLEN greeting\n");
  Alcotest.(check string) "strlen missing" ":0" (Workload.rpc c "STRLEN nope\n");
  Alcotest.(check string) "getrange" "$llo" (Workload.rpc c "GETRANGE greeting 2\n");
  Alcotest.(check string) "getrange past end" "$" (Workload.rpc c "GETRANGE greeting 99\n");
  Alcotest.(check string) "getset old" "$hello" (Workload.rpc c "GETSET greeting newv\n");
  Alcotest.(check string) "getset stored" "$newv" (Workload.rpc c "GET greeting\n");
  Alcotest.(check string) "getset missing" "$-1" (Workload.rpc c "GETSET fresh v0\n")

let test_rkv_mget_scan () =
  let c = Workload.boot Workload.rkv in
  check_contains "mget both" "hello" (Workload.rpc c "MGET greeting color\n");
  check_contains "mget second" "blue" (Workload.rpc c "MGET greeting color\n");
  let r = Workload.rpc c "SCAN 0\n" in
  Alcotest.(check bool) "scan cursor" true (String.length r > 1 && r.[0] = ':');
  Alcotest.(check string) "dbsize" ":3" (Workload.rpc c "DBSIZE\n")

let test_rkv_randomkey () =
  let c = Workload.boot Workload.rkv in
  let r = Workload.rpc c "RANDOMKEY\n" in
  Alcotest.(check bool) "one of the rdb keys" true
    (List.mem r [ "$greeting"; "$counter"; "$color" ])

let test_rkv_auth () =
  let c = Workload.boot Workload.rkv in
  Alcotest.(check string) "bad password" "-ERR invalid password"
    (Workload.rpc c "AUTH wrong\n");
  Alcotest.(check string) "good password" "+OK" (Workload.rpc c "AUTH secret-token\n")

let test_rkv_save_debug () =
  let c = Workload.boot Workload.rkv in
  Alcotest.(check string) "save fails read-only" "-ERR read-only filesystem"
    (Workload.rpc c "SAVE\n");
  Alcotest.(check string) "debug sleep" "+OK" (Workload.rpc c "DEBUG SLEEP 1000\n");
  Alcotest.(check string) "debug unknown" "-ERR unknown debug subcommand"
    (Workload.rpc c "DEBUG FROB\n");
  (* DEBUG SEGFAULT really crashes — redis parity *)
  let (_ : string) = Workload.rpc c "DEBUG SEGFAULT\n" in
  match (Machine.proc_exn c.Workload.m c.Workload.pid).Proc.state with
  | Proc.Killed s -> Alcotest.(check int) "segv" Abi.sigsegv s
  | st -> Alcotest.failf "expected segv, got %s" (Proc.state_to_string st)

let test_rkv_cold_commands_blockable () =
  (* the point of shipping cold commands: DynaCut can block them all *)
  let profile = [ "TTL greeting\n"; "RENAME a b\n"; "SCAN 0\n"; "AUTH x\n" ] in
  let blocks = Common.rkv_feature_blocks profile in
  Alcotest.(check bool) "found distinct blocks" true (List.length blocks > 0);
  let c = Workload.boot Workload.rkv in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let _ =
    Dynacut.cut session ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "rkv_err" }
  in
  Alcotest.(check string) "TTL blocked" "-ERR unknown command" (Workload.rpc c "TTL greeting\n");
  Alcotest.(check string) "AUTH blocked" "-ERR unknown command" (Workload.rpc c "AUTH secret-token\n");
  Alcotest.(check string) "GET fine" "$hello" (Workload.rpc c "GET greeting\n")

(* ---------- ltpd cold modules ---------- *)

let test_ltpd_status_page () =
  let c = Workload.boot Workload.ltpd in
  let r = Workload.rpc c (Workload.http_get "/server-status") in
  check_contains "status" "uptime=" r;
  check_contains "served" "served=" r

let test_ltpd_dirlist () =
  let c = Workload.boot Workload.ltpd in
  let r = Workload.rpc c (Workload.http_get "/") in
  check_contains "listing" "<ul>" r;
  check_contains "entries" "<li>entry</li>" r

let test_ltpd_cgi () =
  let c = Workload.boot Workload.ltpd in
  (* a "script" under the docroot *)
  Vfs.add c.Workload.m.Machine.fs "/www/cgi-bin/hello.sh" "echo hello-from-cgi";
  let r = Workload.rpc c (Workload.http_get "/cgi-bin/hello.sh") in
  check_contains "cgi output" "hello-from-cgi" r;
  check_contains "missing script 404" "404"
    (Workload.rpc c (Workload.http_get "/cgi-bin/nope.sh"))

let test_ltpd_conditional_get () =
  let c = Workload.boot Workload.ltpd in
  let req = "GET /index.html HTTP/1.0\r\nIf-None-Match: \"xyz\"\r\n\r\n" in
  check_contains "304" "304 Not Modified" (Workload.rpc c req)

let test_ltpd_range_request () =
  let c = Workload.boot Workload.ltpd in
  let req = "GET /about.txt HTTP/1.0\r\nRange: bytes=5\r\n\r\n" in
  let r = Workload.rpc c req in
  check_contains "206" "206 Partial Content" r;
  (* "ltpd test site" from offset 5 = "test site" *)
  check_contains "tail" "test site" r

let test_ltpd_rewrite_rule () =
  let c = Workload.boot Workload.ltpd in
  Vfs.add c.Workload.m.Machine.fs "/www/new/page.txt" "rewritten-target";
  let r = Workload.rpc c (Workload.http_get "/old/page.txt") in
  check_contains "served from /new/" "rewritten-target" r

let test_ltpd_proxy_no_upstream () =
  let c = Workload.boot Workload.ltpd in
  check_contains "no upstream" "no upstream" (Workload.rpc c (Workload.http_get "/proxy/x"))

(* ---------- ngx cold modules ---------- *)

let test_ngx_api_proxy () =
  let c = Workload.boot Workload.ngx in
  (* upstreams exist in the config: round-robin picks one, dial fails *)
  check_contains "gateway timeout" "504" (Workload.rpc c (Workload.http_get "/api/users"))

let test_ngx_fastcgi () =
  let c = Workload.boot Workload.ngx in
  check_contains "bad gateway" "502" (Workload.rpc c (Workload.http_get "/fcgi/app"))

let test_ngx_tls_hello () =
  let c = Workload.boot Workload.ngx in
  (* a TLS ClientHello on the plain port gets the toy handshake bytes *)
  let r = Workload.rpc c "\x16\x03\x01junk" in
  Alcotest.(check int) "16-byte ServerHello" 16 (String.length r)

let test_ngx_mkcol_propfind () =
  let c = Workload.boot Workload.ngx in
  check_contains "mkcol" "201" (Workload.rpc c "MKCOL /col HTTP/1.0\r\n\r\n");
  check_contains "propfind" "207" (Workload.rpc c "PROPFIND / HTTP/1.0\r\n\r\n")

let suite =
  [
    Alcotest.test_case "rkv TTL/EXPIRE/PERSIST" `Quick test_rkv_ttl_persist;
    Alcotest.test_case "rkv TYPE/RENAME" `Quick test_rkv_type_rename;
    Alcotest.test_case "rkv STRLEN/GETRANGE/GETSET" `Quick test_rkv_string_commands;
    Alcotest.test_case "rkv MGET/SCAN/DBSIZE" `Quick test_rkv_mget_scan;
    Alcotest.test_case "rkv RANDOMKEY" `Quick test_rkv_randomkey;
    Alcotest.test_case "rkv AUTH" `Quick test_rkv_auth;
    Alcotest.test_case "rkv SAVE/DEBUG" `Quick test_rkv_save_debug;
    Alcotest.test_case "cold commands blockable" `Quick test_rkv_cold_commands_blockable;
    Alcotest.test_case "ltpd status page" `Quick test_ltpd_status_page;
    Alcotest.test_case "ltpd directory listing" `Quick test_ltpd_dirlist;
    Alcotest.test_case "ltpd cgi" `Quick test_ltpd_cgi;
    Alcotest.test_case "ltpd conditional GET (304)" `Quick test_ltpd_conditional_get;
    Alcotest.test_case "ltpd range request (206)" `Quick test_ltpd_range_request;
    Alcotest.test_case "ltpd rewrite rule" `Quick test_ltpd_rewrite_rule;
    Alcotest.test_case "ltpd proxy without upstream" `Quick test_ltpd_proxy_no_upstream;
    Alcotest.test_case "ngx /api proxy" `Quick test_ngx_api_proxy;
    Alcotest.test_case "ngx fastcgi" `Quick test_ngx_fastcgi;
    Alcotest.test_case "ngx TLS hello" `Quick test_ngx_tls_hello;
    Alcotest.test_case "ngx MKCOL/PROPFIND" `Quick test_ngx_mkcol_propfind;
  ]
