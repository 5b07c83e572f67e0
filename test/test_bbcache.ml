(** Decoded-block code cache tests: a cached-vs-interpreted differential
    (replies, virtual clock, drcov bytes and the observability dump),
    nudge-precise invalidation across all three rewrite strategies,
    self-modifying-page eviction, post-[Fleet.recover] cache coldness,
    slicer interpreter-fallback, and two-run determinism of the
    observability dump with the cache enabled. *)

let get = "GET /index.html HTTP/1.0\r\n\r\n"

let lpolicy = { Dynacut.method_ = `First_byte; on_trap = `Redirect "ltpd_403" }

(* ---------- differential: cached = interpreted, byte for byte ---------- *)

type run = {
  replies : string list;
  clock : int64;
  drcov : string;
  dump : string;  (** [Obs.dump_json] minus the cache's own series *)
  traps : int;
}

(* The dump with every [bbcache.*] line dropped, blank lines dropped and
   separators trimmed (a dropped line can leave its section empty or
   move the comma of its neighbour). *)
let without_bbcache dump =
  String.split_on_char '\n' dump
  |> List.filter (fun l ->
         l <> "" && not (Workload.contains ~sub:"\"bbcache." l))
  |> List.map (fun l ->
         let n = String.length l in
         if n > 0 && l.[n - 1] = ',' then String.sub l 0 (n - 1) else l)
  |> String.concat "\n"

(* Boot [app] traced, optionally cut it, drive [reqs]. The cache is
   enabled before the first instruction, so decode, init, cut,
   trap-handler and serving paths all run cached. *)
let run_mode ~cached ?cut app reqs =
  Obs.reset ();
  Fault.reset ();
  let c = Workload.spawn ~traced:true app in
  let m = c.Workload.m in
  let bb = if cached then Some (Bbcache.enable m) else None in
  Workload.wait_ready c;
  Option.iter
    (fun (blocks, policy) ->
      let session = Dynacut.create m ~root_pid:c.Workload.pid in
      ignore (Dynacut.cut session ~blocks ~policy))
    cut;
  let replies = List.map (Workload.rpc c) reqs in
  let drcov = Drcov.to_string (Collector.detach (Workload.collector c)) in
  let r =
    {
      replies;
      clock = m.Machine.clock;
      drcov;
      dump = without_bbcache (Obs.dump_json ());
      traps = Obs.counter_value (Obs.counter "machine.traps");
    }
  in
  Option.iter Bbcache.disable bb;
  r

(* Run the scenario interpreted, then cached, and demand the same
   program: the cache may change host time only. *)
let differential ?cut app reqs =
  let i = run_mode ~cached:false ?cut app reqs in
  let c = run_mode ~cached:true ?cut app reqs in
  Alcotest.(check (list string)) "replies identical" i.replies c.replies;
  Alcotest.(check int64) "virtual clock identical" i.clock c.clock;
  Alcotest.(check string) "drcov byte-identical" i.drcov c.drcov;
  Alcotest.(check string) "obs dump identical (bbcache.* aside)" i.dump c.dump;
  i

let test_differential_ltpd () =
  let r =
    differential
      ~cut:(Common.web_feature_blocks Workload.ltpd, lpolicy)
      Workload.ltpd
      (Workload.web_wanted @ Workload.web_undesired @ [ get ])
  in
  Alcotest.(check bool) "undesired requests really trapped" true (r.traps > 0)

(* rkv: no cut, the pure serving path *)
let test_differential_rkv () =
  ignore
    (differential Workload.rkv (Workload.kv_wanted @ Workload.kv_undesired))

(* ngx: a master + worker tree, cut as a whole — two processes share the
   scheduler, so quantum boundaries must land identically too *)
let test_differential_ngx () =
  let policy =
    { Dynacut.method_ = `First_byte; on_trap = `Redirect "ngx_declined" }
  in
  let r =
    differential
      ~cut:(Common.web_feature_blocks Workload.ngx, policy)
      Workload.ngx
      (Workload.web_wanted @ Workload.web_undesired @ [ get ])
  in
  Alcotest.(check bool) "undesired requests really trapped" true (r.traps > 0)

(* Two ltpd workers boot side by side, both runnable: stopped mid-boot,
   each must have retired the same instructions in both modes — every
   quantum boundary falls on the same instruction, or the interleaving
   drifts. *)
let test_differential_quanta () =
  let boot ~cached =
    Fault.reset ();
    let ctxs = Workload.spawn_fleet ~n:2 Workload.ltpd in
    let m = (List.hd ctxs).Workload.m in
    let bb = if cached then Some (Bbcache.enable m) else None in
    ignore (Machine.run m ~max_cycles:100_003);
    let retired =
      List.map (fun c -> (Machine.proc_exn m c.Workload.pid).Proc.retired) ctxs
    in
    Option.iter Bbcache.disable bb;
    (m.Machine.clock, retired)
  in
  let ci, ri = boot ~cached:false and cc, rc = boot ~cached:true in
  Alcotest.(check int64) "virtual clock identical" ci cc;
  Alcotest.(check (list int)) "per-worker progress identical" ri rc

(* ---------- drcov byte-identity (the tracer as cache stubs) ---------- *)

(* No cut: the tracer alone must see the same blocks in both modes *)
let drcov_identity app reqs =
  let i = run_mode ~cached:false app reqs in
  let c = run_mode ~cached:true app reqs in
  Alcotest.(check string) "drcov byte-identical" i.drcov c.drcov

let test_drcov_identity_ltpd () =
  drcov_identity Workload.ltpd (Workload.web_wanted @ Workload.web_undesired)

let test_drcov_identity_rkv () =
  drcov_identity Workload.rkv (Workload.kv_wanted @ Workload.kv_undesired)

(* ---------- invalidation: cut -> flush -> re-enable -> re-decode ---------- *)

(* One full roundtrip on the dispatcher server under cached execution:
   warm the cache, cut (checkpoint/rewrite/restore builds a fresh
   process, so the cache must read cold), serve against the rewritten
   text, re-enable, and prove the post-cut traffic re-decoded rather
   than reusing any pre-cut block. *)
let roundtrip method_ ~probe_cut () =
  Fault.reset ();
  let m, p = Test_core.boot () in
  let pid = p.Proc.pid in
  let bb = Bbcache.enable m in
  Alcotest.(check string) "pre-cut S" "SET-OK" (Test_core.request m "S");
  Alcotest.(check bool) "cache warm" true (Bbcache.cached_blocks bb ~pid > 0);
  let decodes_warm = (Bbcache.stats bb).Bbcache.st_decodes in
  let session = Dynacut.create m ~root_pid:pid in
  let policy = { Dynacut.method_; on_trap = `Redirect "err_path" } in
  let journals, (_ : Dynacut.timings) =
    Dynacut.cut session ~blocks:(Test_core.feature_blocks ()) ~policy
  in
  Alcotest.(check int) "cache cold after restore-from-image" 0
    (Bbcache.cached_blocks bb ~pid);
  (* wanted path serves from re-decoded blocks of the rewritten text *)
  Alcotest.(check string) "wanted intact" "VAL=8" (Test_core.request m "G");
  if probe_cut then
    Alcotest.(check string) "feature blocked" "ERR" (Test_core.request m "S");
  Alcotest.(check bool) "post-cut traffic re-decoded" true
    ((Bbcache.stats bb).Bbcache.st_decodes > decodes_warm);
  let decodes_cut = (Bbcache.stats bb).Bbcache.st_decodes in
  (* re-enable restores the original bytes through another
     checkpoint/restore: cold again, then re-decode *)
  let (_ : Dynacut.timings) = Dynacut.reenable session journals in
  Alcotest.(check int) "cache cold after re-enable" 0
    (Bbcache.cached_blocks bb ~pid);
  Alcotest.(check string) "feature restored" "SET-OK" (Test_core.request m "S");
  Alcotest.(check bool) "post-reenable traffic re-decoded" true
    ((Bbcache.stats bb).Bbcache.st_decodes > decodes_cut);
  Bbcache.disable bb

(* `Unmap_pages keeps on_trap = `Kill (its only supported action), so the
   undesired probe would kill the server — skip it and roundtrip the
   wanted path only *)
let test_roundtrip_first_byte () = roundtrip `First_byte ~probe_cut:true ()
let test_roundtrip_wipe () = roundtrip `Wipe ~probe_cut:true ()

let test_roundtrip_unmap () =
  Fault.reset ();
  let m, p = Test_core.boot () in
  let pid = p.Proc.pid in
  let bb = Bbcache.enable m in
  Alcotest.(check string) "pre-cut S" "SET-OK" (Test_core.request m "S");
  Alcotest.(check bool) "cache warm" true (Bbcache.cached_blocks bb ~pid > 0);
  let session = Dynacut.create m ~root_pid:pid in
  let journals, (_ : Dynacut.timings) =
    Dynacut.cut session
      ~blocks:(Test_core.feature_blocks ())
      ~policy:{ Dynacut.method_ = `Unmap_pages; on_trap = `Kill }
  in
  Alcotest.(check int) "cache cold after restore-from-image" 0
    (Bbcache.cached_blocks bb ~pid);
  Alcotest.(check string) "wanted intact over unmapped pages" "VAL=8"
    (Test_core.request m "G");
  let (_ : Dynacut.timings) = Dynacut.reenable session journals in
  Alcotest.(check int) "cache cold after re-enable" 0
    (Bbcache.cached_blocks bb ~pid);
  Alcotest.(check string) "feature restored" "SET-OK" (Test_core.request m "S");
  Bbcache.disable bb

(* ---------- self-modifying page: live patch evicts, never stale ---------- *)

let test_self_modifying_eviction () =
  Fault.reset ();
  let m, p = Test_core.boot () in
  let pid = p.Proc.pid in
  let bb = Bbcache.enable m in
  Alcotest.(check string) "warm" "SET-OK" (Test_core.request m "S");
  (* live first-byte int3, no checkpoint/restore cycle: the dirtied page
     must evict the cached do_set block before the next dispatch. A
     stale block would answer SET-OK; the re-decoded int3 (no verifier
     handler installed) must kill the server instead. *)
  let exe = Option.get (Vfs.find_self m.Machine.fs "dsrv") in
  let feat = Option.get (Self.find_symbol exe "feat_set") in
  let addr = Int64.add exe.Self.base (Int64.of_int feat.Self.sym_off) in
  Mem.poke8 (Machine.proc_exn m pid).Proc.mem addr 0xCC;
  let (_ : string) = Test_core.request m "S" in
  Alcotest.(check bool) "trap killed the worker (no stale block ran)" false
    (Proc.is_live (Machine.proc_exn m pid));
  Alcotest.(check bool) "eviction really happened" true
    ((Bbcache.stats bb).Bbcache.st_flushes > 0);
  Bbcache.disable bb

(* ---------- post-Fleet.recover coldness ---------- *)

let test_fleet_recover_coldness () =
  Fault.reset ();
  Obs.reset ();
  let ctxs = Workload.spawn_fleet ~n:2 Workload.ltpd in
  Workload.wait_fleet_ready ctxs;
  let m = (List.hd ctxs).Workload.m in
  let pids = List.map (fun c -> c.Workload.pid) ctxs in
  let fleet =
    Fleet.create m ~port:Ltpd.port ~pids
      ~blocks:(Common.web_feature_blocks Workload.ltpd)
      ~policy:lpolicy
  in
  let bb = Bbcache.enable m in
  for _ = 1 to 4 do
    ignore (Fleet.request fleet get)
  done;
  List.iter
    (fun pid ->
      Alcotest.(check bool) "every worker warm" true
        (Bbcache.cached_blocks bb ~pid > 0))
    pids;
  (* controller dies mid-restore during wave 1 of a rollout; recovery
     rolls the half-cut worker back from its pristine image — a fresh
     process whose cache must read cold *)
  Fault.arm ~kill:true "restore.process" Fault.One_shot;
  let config =
    Rollout.
      {
        r_waves = 2;
        r_sup = { Supervisor.default_config with Supervisor.canary_windows = 1 };
      }
  in
  let drive () = ignore (Fleet.request fleet get) in
  (match Fleet.rollout fleet ~config ~drive () with
  | (_ : Rollout.outcome * Rollout.wave_report list) ->
      Alcotest.fail "controller survived its mid-restore death"
  | exception Fault.Controller_killed _ -> ());
  let r = Fleet.recover m ~pids in
  let rolled =
    List.filter_map
      (fun (pid, a) -> if a = `Rolled_back then Some pid else None)
      r.Fleet.fr_workers
  in
  Alcotest.(check bool) "a worker was respawned from image" true (rolled <> []);
  List.iter
    (fun pid ->
      Alcotest.(check int) "no stale block survives respawn-from-image" 0
        (Bbcache.cached_blocks bb ~pid))
    rolled;
  for _ = 1 to 4 do
    ignore (Fleet.request fleet get)
  done;
  List.iter
    (fun pid ->
      Alcotest.(check bool) "respawned worker re-decoded and serves" true
        (Bbcache.cached_blocks bb ~pid > 0))
    rolled;
  Bbcache.disable bb

(* ---------- slicer forces interpreter fallback ---------- *)

let test_slicer_fallback () =
  let slice_run ~cached =
    Obs.reset ();
    Fault.reset ();
    let c = Workload.spawn Workload.ltpd in
    let bb = if cached then Some (Bbcache.enable c.Workload.m) else None in
    Workload.wait_ready c;
    let hits0 =
      match bb with Some b -> (Bbcache.stats b).Bbcache.st_hits | None -> 0
    in
    let sl =
      Slicer.attach c.Workload.m ~pid:c.Workload.pid
        ~wanted_out:(Slicelab.wanted_out_of Workload.ltpd) ()
    in
    ignore (Workload.rpc c get);
    Slicer.detach sl;
    let s = Slicer.slice sl in
    let hits_during =
      match bb with
      | Some b -> (Bbcache.stats b).Bbcache.st_hits - hits0
      | None -> 0
    in
    (match bb with Some b -> Bbcache.disable b | None -> ());
    (s, hits_during)
  in
  let si, _ = slice_run ~cached:false in
  let sc, hits = slice_run ~cached:true in
  Alcotest.(check bool) "slice non-empty" true (si <> []);
  Alcotest.(check bool) "identical slices with cache enabled" true (si = sc);
  Alcotest.(check int) "on_insn hook forced the interpreter (0 cache hits)"
    0 hits

(* ---------- two-run determinism of the dump, cache enabled ---------- *)

let test_cached_dump_deterministic () =
  let run () =
    Obs.reset ();
    Fault.reset ();
    let c = Workload.spawn Workload.ltpd in
    let bb = Bbcache.enable c.Workload.m in
    Workload.wait_ready c;
    List.iter
      (fun r -> ignore (Workload.rpc c r))
      (Workload.web_wanted @ Workload.web_undesired);
    let d = Obs.dump_json () in
    Bbcache.disable bb;
    d
  in
  Alcotest.(check string) "byte-identical dumps" (run ()) (run ())

let suite =
  [
    Alcotest.test_case "pinning: ltpd cut, cached = interpreted" `Quick
      test_differential_ltpd;
    Alcotest.test_case "pinning: rkv, cached = interpreted" `Quick
      test_differential_rkv;
    Alcotest.test_case "pinning: ngx tree cut, cached = interpreted" `Quick
      test_differential_ngx;
    Alcotest.test_case "pinning: two booting workers, cached = interpreted"
      `Quick test_differential_quanta;
    Alcotest.test_case "drcov byte-identity: ltpd" `Quick
      test_drcov_identity_ltpd;
    Alcotest.test_case "drcov byte-identity: rkv" `Quick test_drcov_identity_rkv;
    Alcotest.test_case "roundtrip: first-byte cut" `Quick
      test_roundtrip_first_byte;
    Alcotest.test_case "roundtrip: wipe cut" `Quick test_roundtrip_wipe;
    Alcotest.test_case "roundtrip: unmap cut" `Quick test_roundtrip_unmap;
    Alcotest.test_case "self-modifying page evicts" `Quick
      test_self_modifying_eviction;
    Alcotest.test_case "post-Fleet.recover coldness" `Quick
      test_fleet_recover_coldness;
    Alcotest.test_case "slicer forces interpreter fallback" `Quick
      test_slicer_fallback;
    Alcotest.test_case "cached dump is deterministic" `Quick
      test_cached_dump_deterministic;
  ]
