(** Tests for the §5 future-work features we implemented: automatic
    phase detection, page-per-function layout + unmap-based unloading,
    and library debloating. *)

let libc = Test_machine.libc

(* ---------- autophase ---------- *)

let test_autophase_fires_on_accept () =
  let c = Workload.spawn ~traced:true Workload.rkv in
  let auto = Autophase.arm c.Workload.m (Workload.collector c) in
  Alcotest.(check bool) "not yet" false (Autophase.fired auto);
  Workload.wait_ready c;
  Alcotest.(check bool) "fired at accept" true (Autophase.fired auto);
  match Autophase.init_log auto with
  | Some log -> Alcotest.(check bool) "init coverage" true (Drcov.bb_count log > 0)
  | None -> Alcotest.fail "no init log"

let test_autophase_matches_manual () =
  let cfg_of = Common.cfg_of_app Workload.rkv in
  let mi, ms = Common.server_phases Workload.rkv ~requests:Workload.kv_wanted in
  let ai, as_ = Workload.trace_requests_auto ~app:Workload.rkv ~requests:Workload.kv_wanted () in
  let manual = Tracediff.init_blocks ~cfg_of ~init:mi ~serving:ms () in
  let auto = Tracediff.init_blocks ~cfg_of ~init:ai ~serving:as_ () in
  let gm = Covgraph.create () and ga = Covgraph.create () in
  List.iter (Covgraph.add gm) manual.Tracediff.undesired;
  List.iter (Covgraph.add ga) auto.Tracediff.undesired;
  let common = List.length (Covgraph.intersect gm ga) in
  let agreement = float_of_int common /. float_of_int (max 1 (Covgraph.cardinal gm)) in
  Alcotest.(check bool)
    (Printf.sprintf "agreement >= 90%% (got %.0f%%)" (agreement *. 100.))
    true (agreement >= 0.9)

let test_autophase_disarm_restores_hook () =
  let c = Workload.spawn ~traced:true Workload.rkv in
  let before = c.Workload.m.Machine.on_syscall in
  let auto = Autophase.arm c.Workload.m (Workload.collector c) in
  Autophase.disarm auto;
  Alcotest.(check bool) "hook restored" true (c.Workload.m.Machine.on_syscall == before)

(* ---------- page-per-function layout ---------- *)

let paged_exe () = Crt0.link_app ~func_align:4096 ~libc Test_core.dispatch_server

let test_func_align_page_boundaries () =
  let exe = paged_exe () in
  let bounds = Funcbounds.of_self exe in
  Array.iter
    (fun f -> Alcotest.(check int) (Printf.sprintf "fn at 0x%x page aligned" f) 0 (f mod 4096))
    bounds.Funcbounds.fb_starts;
  Alcotest.(check bool) "several functions" true
    (Array.length bounds.Funcbounds.fb_starts >= 4)

let test_paged_binary_still_runs () =
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  Vfs.add_self m.Machine.fs "dsrv" (paged_exe ());
  let p = Machine.spawn m ~exe_path:"dsrv" () in
  let (_ : _) = Machine.run m ~max_cycles:4_000_000 in
  Alcotest.(check bool) "alive in accept" true (Proc.is_live p);
  let c = Net.connect m.Machine.net 9200 in
  Net.client_send c "G";
  let (_ : _) = Machine.run m ~max_cycles:2_000_000 in
  Alcotest.(check string) "serves" "VAL=7" (Net.client_recv c)

let test_unmap_whole_feature_page () =
  (* unmap do_set's page on the paged build: SET crashes with SIGSEGV,
     GET keeps working *)
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  let exe = paged_exe () in
  Vfs.add_self m.Machine.fs "dsrv" exe;
  let p = Machine.spawn m ~exe_path:"dsrv" () in
  let (_ : _) = Machine.run m ~max_cycles:4_000_000 in
  let do_set = Option.get (Self.find_symbol exe "do_set") in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  let page_off = do_set.Self.sym_off / 4096 * 4096 in
  let blocks = [ { Covgraph.b_module = "dsrv"; b_off = page_off; b_size = 4096 } ] in
  let journals, _ =
    Dynacut.cut session ~blocks ~policy:{ Dynacut.method_ = `Unmap_pages; on_trap = `Kill }
  in
  let rpc cmd =
    let c = Net.connect m.Machine.net 9200 in
    Net.client_send c cmd;
    let (_ : _) = Machine.run m ~max_cycles:2_000_000 in
    Net.client_recv c
  in
  Alcotest.(check string) "GET fine" "VAL=7" (rpc "G");
  let (_ : string) = rpc "S" in
  (match (Machine.proc_exn m p.Proc.pid).Proc.state with
  | Proc.Killed s -> Alcotest.(check int) "SIGSEGV on unmapped page" Abi.sigsegv s
  | st -> Alcotest.failf "expected segv, got %s" (Proc.state_to_string st));
  (* remap restores the feature on a fresh process image *)
  Machine.reap m ~pid:p.Proc.pid;
  ignore journals

(* ---------- library debloating ---------- *)

let test_libc_init_only_wipe_is_safe () =
  let app = Workload.ltpd in
  let init_blocks, _, _ = Common.init_only_blocks app in
  let libc_blocks =
    List.filter (fun (b : Covgraph.block) -> b.Covgraph.b_module = "libc.so") init_blocks
  in
  Alcotest.(check bool) "found libc init-only code" true (List.length libc_blocks > 0);
  let c = Workload.boot app in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let _ =
    Dynacut.cut session ~blocks:libc_blocks
      ~policy:{ Dynacut.method_ = `Wipe; on_trap = `Kill }
  in
  List.iter
    (fun r ->
      let resp = Workload.rpc c r in
      Alcotest.(check bool) "answered" true (String.length resp > 0))
    Workload.web_wanted;
  Alcotest.(check bool) "alive" true (Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid))

let suite =
  [
    Alcotest.test_case "autophase fires on accept" `Quick test_autophase_fires_on_accept;
    Alcotest.test_case "autophase matches manual nudge" `Quick test_autophase_matches_manual;
    Alcotest.test_case "autophase disarm" `Quick test_autophase_disarm_restores_hook;
    Alcotest.test_case "func_align=4096 page boundaries" `Quick test_func_align_page_boundaries;
    Alcotest.test_case "paged binary still serves" `Quick test_paged_binary_still_runs;
    Alcotest.test_case "unmap a whole feature page" `Quick test_unmap_whole_feature_page;
    Alcotest.test_case "libc init-only wipe is safe" `Quick test_libc_init_only_wipe_is_safe;
  ]
