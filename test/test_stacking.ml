(** Stacked-cut semantics: multiple features disabled over time on one
    live process, partially re-enabled in any order — the "gradually
    enlarged allow-list" usage the paper describes in §6. *)

let redirect = { Dynacut.method_ = `First_byte; on_trap = `Redirect "rkv_err" }

let test_two_features_stacked () =
  let set_blocks = Common.rkv_feature_blocks [ "SET a 1\n" ] in
  let str_blocks = Common.rkv_feature_blocks [ "STRALGO abc abd\n" ] in
  let c = Workload.boot Workload.rkv in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let set_j, _ = Dynacut.cut session ~blocks:set_blocks ~policy:redirect in
  let _str_j, _ = Dynacut.cut session ~blocks:str_blocks ~policy:redirect in
  (* both blocked, both via the redirect (server alive) *)
  Alcotest.(check string) "SET blocked" "-ERR unknown command" (Workload.rpc c "SET a 1\n");
  Alcotest.(check string) "STRALGO blocked" "-ERR unknown command"
    (Workload.rpc c "STRALGO abc abd\n");
  Alcotest.(check string) "GET fine" "$hello" (Workload.rpc c "GET greeting\n");
  Alcotest.(check bool) "alive" true (Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid));
  (* re-enable only SET: STRALGO must stay blocked *)
  let (_ : Dynacut.timings) = Dynacut.reenable session set_j in
  Alcotest.(check string) "SET back" "+OK" (Workload.rpc c "SET a 1\n");
  Alcotest.(check string) "STRALGO still blocked" "-ERR unknown command"
    (Workload.rpc c "STRALGO abc abd\n");
  Alcotest.(check bool) "still alive" true
    (Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid))

let test_mode_conflict_rejected () =
  let set_blocks = Common.rkv_feature_blocks [ "SET a 1\n" ] in
  let str_blocks = Common.rkv_feature_blocks [ "STRALGO abc abd\n" ] in
  let c = Workload.boot Workload.rkv in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let _ = Dynacut.cut session ~blocks:set_blocks ~policy:redirect in
  match
    Dynacut.cut session ~blocks:str_blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Verify }
  with
  | exception Dynacut.Dynacut_error _ -> ()
  | _ -> Alcotest.fail "expected mode-conflict error"

let test_many_cut_reenable_cycles () =
  (* robustness: 20 disable/enable cycles on one live server, with the
     store's state progressing through the open windows *)
  let blocks = Common.rkv_feature_blocks [ "SET a 1\n" ] in
  let c = Workload.boot Workload.rkv in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  for k = 1 to 20 do
    let j, _ = Dynacut.cut session ~blocks ~policy:redirect in
    Alcotest.(check string) "blocked" "-ERR unknown command"
      (Workload.rpc c (Printf.sprintf "SET cyc v%d\n" k));
    let (_ : Dynacut.timings) = Dynacut.reenable session j in
    Alcotest.(check string) "set in window" "+OK"
      (Workload.rpc c (Printf.sprintf "SET cyc v%d\n" k));
    Alcotest.(check string) "stored"
      (Printf.sprintf "$v%d" k)
      (Workload.rpc c "GET cyc\n")
  done;
  Alcotest.(check bool) "alive after 40 rewrites" true
    (Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid))

let test_stacked_cut_on_multiprocess () =
  (* ngx: stack PUT/DELETE block with an extra MKCOL-ish block across the
     master/worker tree *)
  let features = Common.web_feature_blocks Workload.ngx in
  let c = Workload.boot Workload.ngx in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let j, _ =
    Dynacut.cut session ~blocks:features
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "ngx_declined" }
  in
  let contains sub str =
    let n = String.length sub and m = String.length str in
    let rec go i = i + n <= m && (String.sub str i n = sub || go (i + 1)) in
    go 0
  in
  let put = Workload.rpc c (Workload.http_put "/a.txt" "x") in
  Alcotest.(check bool) "PUT 403" true (contains "403" put);
  let (_ : Dynacut.timings) = Dynacut.reenable session j in
  let put = Workload.rpc c (Workload.http_put "/a.txt" "x") in
  Alcotest.(check bool) "PUT 201 after reenable" true (contains "201" put);
  (* both processes alive *)
  List.iter
    (fun (p : Proc.t) -> Alcotest.(check bool) "alive" true (Proc.is_live p))
    (Machine.all_procs c.Workload.m)

let suite =
  [
    Alcotest.test_case "two features stacked, partial re-enable" `Quick
      test_two_features_stacked;
    Alcotest.test_case "mode conflict rejected" `Quick test_mode_conflict_rejected;
    Alcotest.test_case "20 cut/re-enable cycles" `Slow test_many_cut_reenable_cycles;
    Alcotest.test_case "stacked cut on master/worker" `Quick test_stacked_cut_on_multiprocess;
  ]
