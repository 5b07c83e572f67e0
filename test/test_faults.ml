(** Fault-injection tests for the transactional cut pipeline: a fault at
    any registered site during [cut] must leave the target alive and
    serving its pre-cut behaviour (rollback invariant), corrupted tmpfs
    images must be rejected at load, transient faults must be retried,
    and a chaos soak drives cut/reenable cycles against ngx under random
    single-site faults. *)

let redirect_policy =
  { Dynacut.method_ = `First_byte; on_trap = `Redirect "err_path" }

(* every site the dsrv cut pipeline reaches (tcp_repair needs an open
   connection and gets its own test below) *)
let cut_sites : Fault.Site.t list =
  [
    Criu_checkpoint;
    Criu_save;
    Criu_load;
    Rewrite_patch;
    Inject_lib;
    Inject_policy;
    Restore_process;
  ]

(* ---------- rollback invariant, one site at a time ---------- *)

let check_rollback_at site () =
  Fault.reset ();
  let blocks = Test_core.feature_blocks () in
  let m, p = Test_core.boot () in
  Alcotest.(check string) "pre-cut G" "VAL=7" (Test_core.request m "G");
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  Fault.arm site Fault.One_shot;
  let r = Dynacut.try_cut session ~blocks ~policy:redirect_policy () in
  let name = Fault.Site.name site in
  Alcotest.(check bool) (name ^ " fired") true (Fault.fired site = 1);
  (match r.Dynacut.r_outcome with
  | `Rolled_back rb ->
      Alcotest.(check string) "error names the site"
        ("injected fault at " ^ name) rb.Dynacut.rb_error
  | `Applied -> Alcotest.failf "fault at %s did not roll back" name);
  Alcotest.(check bool) "no journals" true (r.Dynacut.r_journals = []);
  (* the tree is alive and shows its *pre-cut* behaviour: the feature is
     not blocked *)
  Alcotest.(check bool) "server alive" true
    (Proc.is_live (Machine.proc_exn m p.Proc.pid));
  Alcotest.(check string) "G unchanged" "VAL=7" (Test_core.request m "G");
  Alcotest.(check string) "S unchanged" "SET-OK" (Test_core.request m "S");
  (* a clean retry with the (one-shot) fault gone now succeeds *)
  let r2 = Dynacut.try_cut session ~blocks ~policy:redirect_policy () in
  (match r2.Dynacut.r_outcome with
  | `Applied -> ()
  | o -> Alcotest.failf "clean retry: %a" Dynacut.pp_outcome o);
  Alcotest.(check string) "feature now blocked" "ERR" (Test_core.request m "S");
  Fault.reset ()

let test_rollback_tcp_repair () =
  Fault.reset ();
  let blocks = Test_core.feature_blocks () in
  let m, p = Test_core.boot () in
  (* open a connection and let the server block in recv on it, so the
     restore stage has TCP state to repair *)
  let c = Net.connect m.Machine.net 9200 in
  let (_ : _) = Machine.run m ~max_cycles:500_000 in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  Fault.arm Restore_tcp_repair Fault.One_shot;
  let r = Dynacut.try_cut session ~blocks ~policy:redirect_policy () in
  Alcotest.(check bool) "tcp_repair fired" true (Fault.fired Restore_tcp_repair = 1);
  (match r.Dynacut.r_outcome with
  | `Rolled_back rb -> Alcotest.(check string) "stage" "restore" rb.Dynacut.rb_stage
  | `Applied -> Alcotest.fail "expected rollback");
  (* the mid-cut connection still completes its request after rollback *)
  Net.client_send c "G";
  let (_ : _) = Machine.run m ~max_cycles:2_000_000 in
  Alcotest.(check string) "in-flight request survives rollback" "VAL=7"
    (Net.client_recv c);
  Alcotest.(check string) "feature unchanged" "SET-OK" (Test_core.request m "S");
  Fault.reset ()

(* ---------- image corruption ---------- *)

let test_corrupt_image_rejected () =
  let m, p = Test_core.boot () in
  Machine.freeze m ~pid:p.Proc.pid;
  let img = Checkpoint.dump m ~pid:p.Proc.pid () in
  let path =
    Checkpoint.save_sealed m ~dir:"/tmpfs/t" ~pid:p.Proc.pid (Validate.encode_sealed img)
  in
  let blob = Option.get (Vfs.find m.Machine.fs path) in
  (* flip one byte in the middle of the payload *)
  let corrupt = Bytes.of_string blob in
  let k = Bytes.length corrupt / 2 in
  Bytes.set corrupt k (Char.chr (Char.code (Bytes.get corrupt k) lxor 0x40));
  Vfs.add m.Machine.fs path (Bytes.to_string corrupt);
  Alcotest.(check bool) "bit flip caught" true
    (match Restore.load_from_tmpfs m ~path with
    | _ -> false
    | exception Validate.Validate_error _ -> true);
  (* truncation *)
  Vfs.add m.Machine.fs path (String.sub blob 0 (String.length blob - 7));
  Alcotest.(check bool) "truncation caught" true
    (match Restore.load_from_tmpfs m ~path with
    | _ -> false
    | exception Validate.Validate_error _ -> true);
  (* and the good blob still loads *)
  Vfs.add m.Machine.fs path blob;
  let loaded = Restore.load_from_tmpfs m ~path in
  Alcotest.(check int) "round trip" img.Images.core.Images.c_pid
    loaded.Images.core.Images.c_pid

(* ---------- retries ---------- *)

let test_transient_fault_retried () =
  Fault.reset ();
  let blocks = Test_core.feature_blocks () in
  let m, p = Test_core.boot () in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  Fault.arm ~transient:true Criu_save Fault.One_shot;
  let r = Dynacut.try_cut session ~blocks ~policy:redirect_policy () in
  (match r.Dynacut.r_outcome with
  | `Applied -> ()
  | o -> Alcotest.failf "expected applied after retry: %a" Dynacut.pp_outcome o);
  Alcotest.(check bool) "retried" true (r.Dynacut.r_retries >= 1);
  Alcotest.(check bool) "backoff charged" true (r.Dynacut.r_backoff_cycles > 0);
  Alcotest.(check string) "feature blocked" "ERR" (Test_core.request m "S");
  Fault.reset ()

(* the commit step is retried too: a transient one-shot fault at
   restore.process costs one retry, and the cut tree then serves exactly
   like a twin cut without any fault *)
let test_commit_transient_retried () =
  Fault.reset ();
  let blocks = Test_core.feature_blocks () in
  let serve m = List.map (Test_core.request m) [ "G"; "S"; "X"; "G" ] in
  let twin, tp = Test_core.boot () in
  let r0 =
    Dynacut.try_cut (Dynacut.create twin ~root_pid:tp.Proc.pid) ~blocks
      ~policy:redirect_policy ()
  in
  Alcotest.(check bool) "twin applied" true (r0.Dynacut.r_outcome = `Applied);
  let m, p = Test_core.boot () in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  Fault.arm ~transient:true Restore_process Fault.One_shot;
  let r = Dynacut.try_cut session ~blocks ~policy:redirect_policy () in
  Alcotest.(check bool) "restore.process fired" true (Fault.fired Restore_process = 1);
  (match r.Dynacut.r_outcome with
  | `Applied -> ()
  | o -> Alcotest.failf "expected applied after retry: %a" Dynacut.pp_outcome o);
  Alcotest.(check int) "one retry" 1 r.Dynacut.r_retries;
  Fault.reset ();
  Alcotest.(check (list string)) "serves like the fault-free twin" (serve twin)
    (serve m)

(* a transient fault that fires on every checkpoint exhausts the retry
   budget: two retries, then a rollback at the checkpoint stage *)
let test_checkpoint_transient_exhausted () =
  Fault.reset ();
  let blocks = Test_core.feature_blocks () in
  let m, p = Test_core.boot () in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  Fault.arm ~transient:true Criu_checkpoint (Fault.Every_nth 1);
  let r = Dynacut.try_cut session ~blocks ~policy:redirect_policy () in
  (match r.Dynacut.r_outcome with
  | `Rolled_back rb -> Alcotest.(check string) "stage" "checkpoint" rb.Dynacut.rb_stage
  | `Applied -> Alcotest.fail "expected rollback");
  Alcotest.(check int) "two retries" 2 r.Dynacut.r_retries;
  Fault.reset ();
  Alcotest.(check string) "unchanged" "SET-OK" (Test_core.request m "S");
  Alcotest.(check string) "still serving" "VAL=8" (Test_core.request m "G")

(* a rollback after a retried transient fault restores the state the
   transaction started from. The re-enable of a live cut retries its
   checkpoint (the first dump fails before any pristine image is
   written), then fails for good at restore: the rollback must bring
   back the cut tree this transaction dumped, not the uncut tree an
   older pristine image holds *)
let test_retried_checkpoint_rollback_keeps_cut () =
  Fault.reset ();
  let blocks = Test_core.feature_blocks () in
  let m, p = Test_core.boot () in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  let r = Dynacut.try_cut session ~blocks ~policy:redirect_policy () in
  Alcotest.(check bool) "cut applied" true (r.Dynacut.r_outcome = `Applied);
  Alcotest.(check string) "feature cut" "ERR" (Test_core.request m "S");
  Fault.arm ~transient:true Criu_checkpoint Fault.One_shot;
  Fault.arm Restore_process Fault.One_shot;
  let r2 = Dynacut.try_reenable session r.Dynacut.r_journals in
  (match r2.Dynacut.r_outcome with
  | `Rolled_back rb -> Alcotest.(check string) "stage" "restore" rb.Dynacut.rb_stage
  | `Applied -> Alcotest.fail "expected rollback");
  Alcotest.(check int) "one retry" 1 r2.Dynacut.r_retries;
  Fault.reset ();
  Alcotest.(check string) "still cut" "ERR" (Test_core.request m "S");
  Alcotest.(check string) "still serving" "VAL=7" (Test_core.request m "G")

(* a persistent (non-transient) fault at rewrite.unmap is not retried:
   the unmap cut rolls back and the tree keeps its pre-cut behaviour *)
let test_persistent_unmap_fault_rolls_back () =
  Fault.reset ();
  let blocks = Test_core.feature_blocks () in
  Fault.arm Rewrite_unmap (Fault.Every_nth 1);
  let m, p = Test_core.boot () in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  let r =
    Dynacut.try_cut session ~blocks
      ~policy:{ Dynacut.method_ = `Unmap_pages; on_trap = `Redirect "err_path" }
      ()
  in
  (match r.Dynacut.r_outcome with
  | `Rolled_back _ -> ()
  | o -> Alcotest.failf "expected rollback: %a" Dynacut.pp_outcome o);
  Alcotest.(check int) "not retried" 0 r.Dynacut.r_retries;
  Alcotest.(check string) "unchanged" "SET-OK" (Test_core.request m "S");
  Fault.reset ()

(* ---------- chaos soak against ngx ---------- *)

let test_chaos_soak_ngx () =
  Fault.reset ();
  let app =
    List.find (fun (a : Workload.app) -> a.Workload.a_name = "ngx") Workload.all_apps
  in
  let blocks = Common.web_feature_blocks app in
  let c = Workload.boot app in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let get = "GET /index.html HTTP/1.0\r\n\r\n" in
  let answers () =
    let resp = Workload.rpc c get in
    Alcotest.(check bool)
      (Printf.sprintf "GET answered (got %S)" resp)
      true
      (String.length resp > 0
      && String.sub resp 0 (min 12 (String.length resp)) = "HTTP/1.0 200")
  in
  answers ();
  let rng = Rng.create 1234 in
  let policy = { Dynacut.method_ = `First_byte; on_trap = `Redirect "ngx_declined" } in
  (* only sites a cut reaches: an armed site that no cut hits tests
     nothing (restore.tcp_repair needs a connection open across the cut,
     and gets its own test above) *)
  let chaos_sites = cut_sites @ [ Journal_lock; Journal_append ] in
  for _cycle = 1 to 12 do
    Fault.reset ();
    let site = Rng.choose rng chaos_sites in
    Fault.arm site Fault.One_shot;
    (match Dynacut.try_cut session ~blocks ~policy () with
    | { Dynacut.r_outcome = `Applied; r_journals; _ } ->
        answers ();
        (* the armed fault may fire here instead; a rolled-back reenable
           just leaves the feature blocked — still serving *)
        ignore (Dynacut.try_reenable session r_journals)
    | { Dynacut.r_outcome = `Rolled_back _; _ } -> ());
    Alcotest.(check bool) (Fault.Site.name site ^ " reached") true (Fault.hits site > 0);
    Fault.reset ();
    (* the invariant: whatever the fault hit, ngx answers *)
    answers ()
  done;
  Alcotest.(check bool) "server alive after soak" true
    (Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid))

(* ---------- supervisor fault sites ---------- *)

(** A fault at [supervisor.promote] must leave the fleet atomic: the
    canary's cut is reverted and the other pids' transaction rolled
    back, so every pid is fully original; a clean retry then leaves
    every pid fully cut. *)
let test_promote_fault_fleet_invariant () =
  Fault.reset ();
  let app = Workload.ngx in
  let blocks = Common.web_feature_blocks app in
  let c = Workload.boot app in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let effective = Dynacut.redirect_filter session ~sym:"ngx_declined" blocks in
  Alcotest.(check bool) "effective blocks nonempty" true (effective <> []);
  let base = (Common.app_exe app).Self.base in
  let byte_of pid (b : Covgraph.block) =
    Mem.peek8
      (Machine.proc_exn c.Workload.m pid).Proc.mem
      (Int64.add base (Int64.of_int b.Covgraph.b_off))
  in
  let originals = List.map (byte_of c.Workload.pid) effective in
  let check_fleet label want =
    List.iter
      (fun pid ->
        let got = List.map (byte_of pid) effective in
        Alcotest.(check (list int))
          (Printf.sprintf "%s: pid %d" label pid)
          want got)
      (Dynacut.tree_pids session)
  in
  let sup =
    Supervisor.create session
      ~config:{ Supervisor.default_config with Supervisor.canary_windows = 1 }
      ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "ngx_declined" }
  in
  let drive () =
    ignore (Workload.rpc ~max_cycles:800_000 c "GET /index.html HTTP/1.0\r\n\r\n")
  in
  Fault.arm Supervisor_promote Fault.One_shot;
  (match Supervisor.guarded_cut sup ~drive () with
  | Supervisor.R_promotion_failed -> ()
  | r -> Alcotest.failf "expected promotion failure: %a" Supervisor.pp_rollout r);
  Alcotest.(check bool) "promote fired" true (Fault.fired Supervisor_promote = 1);
  (* every pid fully original *)
  check_fleet "after failed promotion" originals;
  Alcotest.(check string) "feature unchanged"
    "HTTP/1.0 201" (String.sub (Workload.rpc c "PUT /u.txt HTTP/1.0\r\n\r\ndata") 0 12);
  (* the (one-shot) fault is gone: the same supervisor promotes cleanly *)
  (match Supervisor.guarded_cut sup ~drive () with
  | Supervisor.R_promoted -> ()
  | r -> Alcotest.failf "clean retry: %a" Supervisor.pp_rollout r);
  (* every pid fully cut *)
  check_fleet "after promotion" (List.map (fun _ -> 0xCC) effective);
  Alcotest.(check string) "feature blocked everywhere"
    "HTTP/1.0 403" (String.sub (Workload.rpc c "PUT /u.txt HTTP/1.0\r\n\r\ndata") 0 12);
  Fault.reset ()

(* ---------- guarded rollout chaos soak ---------- *)

let test_guarded_chaos_soak () =
  Fault.reset ();
  let app = Workload.ngx in
  let blocks = Common.web_feature_blocks app in
  let c = Workload.boot app in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let get = "GET /index.html HTTP/1.0\r\n\r\n" in
  let answers () =
    let resp = Workload.rpc c get in
    Alcotest.(check bool)
      (Printf.sprintf "GET answered (got %S)" resp)
      true
      (String.length resp > 0
      && String.sub resp 0 (min 12 (String.length resp)) = "HTTP/1.0 200")
  in
  answers ();
  let rng = Rng.create 4242 in
  let policy = { Dynacut.method_ = `First_byte; on_trap = `Redirect "ngx_declined" } in
  let config = { Supervisor.default_config with Supervisor.canary_windows = 1 } in
  (* the sites a fault-free guarded cut + re-enable of ngx reaches on
     every cycle (inject.lib only on the first, which maps the handler
     library), so each armed fault strikes *)
  let chaos_sites : Fault.Site.t list =
    [
      Bbcache_flush;
      Criu_checkpoint;
      Criu_load;
      Criu_save;
      Inject_policy;
      Journal_append;
      Journal_lock;
      Net_serve;
      Restore_process;
      Rewrite_patch;
      Supervisor_promote;
    ]
  in
  (* a fault on the serving path (e.g. net.serve) aborts that one
     request; the soak's oracle is the post-cycle answers () check *)
  let drive () =
    try ignore (Workload.rpc ~max_cycles:800_000 c get)
    with Fault.Injected _ -> ()
  in
  for cycle = 1 to 10 do
    Fault.reset ();
    let site = Rng.choose rng chaos_sites in
    Fault.arm site Fault.One_shot;
    let sup = Supervisor.create session ~config ~blocks ~policy in
    (match Supervisor.guarded_cut sup ~drive () with
    | Supervisor.R_promoted ->
        drive ();
        (* the armed fault may fire here instead; a rolled-back reenable
           just leaves the feature blocked — still serving *)
        ignore (Dynacut.try_reenable session (Supervisor.journals sup))
    | Supervisor.R_canary_rejected | Supervisor.R_promotion_failed
    | Supervisor.R_rolled_back _ ->
        ());
    Alcotest.(check int)
      (Printf.sprintf "cycle %d: %s fired once" cycle (Fault.Site.name site))
      1 (Fault.fired site);
    Fault.reset ();
    (* the invariant: whatever the fault hit, ngx answers *)
    answers ()
  done;
  Alcotest.(check bool) "server alive after soak" true
    (Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid))

(* ---------- the static site registry ---------- *)

let test_known_sites_registry () =
  let known = List.map Fault.Site.name Fault.Site.all in
  let expected =
    [
      "criu.checkpoint";
      "criu.save";
      "criu.load";
      "rewrite.patch";
      "rewrite.unmap";
      "inject.lib";
      "inject.policy";
      "restore.process";
      "restore.tcp_repair";
      "restore.respawn";
      "supervisor.promote";
      "journal.lock";
      "journal.append";
      "recover.replay";
      "balancer.dispatch";
      "net.accept_queue";
      "net.serve";
      "slice.trace";
      "slice.compute";
      "bbcache.dispatch";
      "bbcache.flush";
    ]
  in
  (* the names and their order: the order fixes the coverage matrix's
     probe order *)
  Alcotest.(check (list string)) "registry names in order" expected known;
  List.iter
    (fun s ->
      Alcotest.(check bool) "described" true
        (String.length (Fault.Site.description s) > 0))
    Fault.Site.all

(* every spelling names its site back; a near miss names none *)
let test_site_names_round_trip () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Fault.Site.name s ^ " round-trips")
        true
        (Fault.Site.of_name (Fault.Site.name s) = Some s))
    Fault.Site.all;
  Alcotest.(check bool) "criu.sav names no site" true
    (Fault.Site.of_name "criu.sav" = None)

(* one mode parser: every applicable mode of every site round-trips
   through its printed name, alone and as an --inject-fault option *)
let test_mode_spelling_round_trip () =
  List.iter
    (fun s ->
      List.iter
        (fun m ->
          let text = Fault.mode_to_string m in
          Alcotest.(check bool) (text ^ " round-trips") true
            (Fault.mode_of_string text = m);
          let site, _, _, mode =
            Fault.parse_spec (Fault.Site.name s ^ ":" ^ text)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s:%s parses" (Fault.Site.name s) text)
            true
            (site = s && mode = m))
        (Fault.applicable_modes s))
    Fault.Site.all;
  List.iter
    (fun text ->
      match Fault.mode_of_string text with
      | m -> Alcotest.failf "%S parsed as %s" text (Fault.mode_to_string m)
      | exception Invalid_argument _ -> ())
    [ "delay=0"; "delay=-5"; "delay="; "delay=x"; "delay=25000"; "explode" ];
  List.iter
    (fun spec ->
      match Fault.parse_spec spec with
      | _ -> Alcotest.failf "%s parsed" spec
      | exception Invalid_argument _ -> ())
    [ "net.serve:delay=0"; "net.serve:delay=40000" ]

(* a misspelt or deleted site would be armed and never fire, so
   parse_spec refuses it, naming the site; a deleted option (the
   per-pid scope) is refused too, named *)
let test_parse_spec_unknown_site () =
  List.iter
    (fun (spec, bad) ->
      match Fault.parse_spec spec with
      | _ -> Alcotest.failf "%s parsed" spec
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "error %S names %s" msg bad)
            true
            (Workload.contains ~sub:(Printf.sprintf "%S" bad) msg))
    [
      ("criu.sav:once", "criu.sav");
      ("crit.encode", "crit.encode");
      ("crit.decode:once", "crit.decode");
      ("net.serve:once:pid=100", "pid=100");
    ];
  let site, spec, transient, mode = Fault.parse_spec "criu.save:once" in
  Alcotest.(check string) "site" "criu.save" (Fault.Site.name site);
  Alcotest.(check bool) "one-shot fail" true
    (spec = Fault.One_shot && mode = Fault.Fail && not transient)

(* a storage mode at a site with no storage write would be armed and
   never fire, so parse_spec and arm_mode both refuse it, naming the
   site and the mode; every applicable mode still arms *)
let test_inapplicable_mode_refused () =
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "error %S names the site and the mode" msg)
          true
          (Workload.contains ~sub:{|"rewrite.patch"|} msg
          && Workload.contains ~sub:{|"corrupt"|} msg)
  in
  refused "parse_spec rewrite.patch:corrupt" (fun () ->
      ignore (Fault.parse_spec "rewrite.patch:corrupt"));
  refused "arm_mode Rewrite_patch Corrupt" (fun () ->
      Fault.arm_mode Rewrite_patch Fault.One_shot Fault.Corrupt);
  Alcotest.(check bool) "nothing armed" false (Fault.armed Rewrite_patch);
  List.iter
    (fun s ->
      List.iter
        (fun m ->
          if List.mem m (Fault.applicable_modes s) then begin
            Fault.arm_mode s Fault.One_shot m;
            Fault.disarm s
          end
          else
            match Fault.arm_mode s Fault.One_shot m with
            | () ->
                Alcotest.failf "%s armed in mode %s" (Fault.Site.name s)
                  (Fault.mode_to_string m)
            | exception Invalid_argument _ -> ())
        [ Fault.Fail; Fault.Kill; Fault.Corrupt; Fault.Enospc; Fault.Eio ])
    Fault.Site.all;
  Fault.reset ()

let suite =
  List.map
    (fun site ->
      Alcotest.test_case
        ("rollback at " ^ Fault.Site.name site)
        `Quick (check_rollback_at site))
    cut_sites
  @ [
      Alcotest.test_case "rollback at restore.tcp_repair" `Quick
        test_rollback_tcp_repair;
      Alcotest.test_case "corrupt/truncated image rejected" `Quick
        test_corrupt_image_rejected;
      Alcotest.test_case "transient fault retried" `Quick test_transient_fault_retried;
      Alcotest.test_case "commit transient fault retried" `Quick
        test_commit_transient_retried;
      Alcotest.test_case "checkpoint transient exhausted" `Quick
        test_checkpoint_transient_exhausted;
      Alcotest.test_case "retried checkpoint, rollback keeps the cut" `Quick
        test_retried_checkpoint_rollback_keeps_cut;
      Alcotest.test_case "persistent unmap fault rolls back" `Quick
        test_persistent_unmap_fault_rolls_back;
      Alcotest.test_case "chaos soak vs ngx" `Slow test_chaos_soak_ngx;
      Alcotest.test_case "promote fault: fleet stays atomic" `Quick
        test_promote_fault_fleet_invariant;
      Alcotest.test_case "guarded rollout chaos soak" `Slow test_guarded_chaos_soak;
      Alcotest.test_case "fault-site registry complete" `Quick
        test_known_sites_registry;
      Alcotest.test_case "parse_spec rejects an unknown site" `Quick
        test_parse_spec_unknown_site;
      Alcotest.test_case "site names round-trip" `Quick test_site_names_round_trip;
      Alcotest.test_case "mode spellings round-trip" `Quick
        test_mode_spelling_round_trip;
      Alcotest.test_case "a mode that cannot fire is refused" `Quick
        test_inapplicable_mode_refused;
    ]
