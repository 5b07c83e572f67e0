(** Dynamic seccomp filtering via image rewriting (paper §5) and
    CRIT-based manual image surgery. *)

open Dsl

let libc = Test_machine.libc

let test_filter_kills_denied_syscall () =
  (* a post-init rkv never forks; deny fork and prove the policy bites *)
  let c = Workload.boot Workload.rkv in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let (_ : Dynacut.timings) =
    Dynacut.apply_seccomp session ~denied:(Some [ Abi.sys_fork; Abi.sys_open ])
  in
  (* allowed traffic still flows *)
  Alcotest.(check string) "GET fine" "$hello" (Workload.rpc c "GET greeting\n");
  Alcotest.(check string) "SET fine" "+OK" (Workload.rpc c "SET k v\n");
  (* the filter persists in the live process *)
  let p = Machine.proc_exn c.Workload.m c.Workload.pid in
  Alcotest.(check bool) "filter installed" true
    (p.Proc.seccomp = Some [ Abi.sys_fork; Abi.sys_open ]);
  (* now have the guest trip it: SAVE calls nothing denied, but a fresh
     guest that calls open is killed by SIGSYS *)
  let u =
    unit_ "opener"
      [ func "main" [] [ ret (call "open" [ s "/etc/rkv.conf" ]) ] ]
  in
  Vfs.add_self c.Workload.m.Machine.fs "opener" (Crt0.link_app ~libc u);
  let q = Machine.spawn c.Workload.m ~exe_path:"opener" () in
  q.Proc.seccomp <- Some [ Abi.sys_open ];
  let (_ : _) = Machine.run c.Workload.m ~max_cycles:100_000 in
  match q.Proc.state with
  | Proc.Killed s -> Alcotest.(check int) "SIGSYS" Abi.sigsys s
  | st -> Alcotest.failf "expected SIGSYS kill, got %s" (Proc.state_to_string st)

let test_filter_survives_checkpoint_restore () =
  let blocks = Common.rkv_feature_blocks [ "SET a 1\n" ] in
  let c = Workload.boot Workload.rkv in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let (_ : Dynacut.timings) =
    Dynacut.apply_seccomp session ~denied:(Some [ Abi.sys_fork ])
  in
  (* a second unrelated rewrite must not lose the filter *)
  let _ =
    Dynacut.cut session ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "rkv_err" }
  in
  let p = Machine.proc_exn c.Workload.m c.Workload.pid in
  Alcotest.(check bool) "filter survived the second rewrite" true
    (p.Proc.seccomp = Some [ Abi.sys_fork ])

let test_filter_clearable () =
  let c = Workload.boot Workload.rkv in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let (_ : Dynacut.timings) = Dynacut.apply_seccomp session ~denied:(Some [ Abi.sys_fork ]) in
  let (_ : Dynacut.timings) = Dynacut.apply_seccomp session ~denied:None in
  let p = Machine.proc_exn c.Workload.m c.Workload.pid in
  Alcotest.(check bool) "cleared" true (p.Proc.seccomp = None);
  Alcotest.(check string) "still serves" "$hello" (Workload.rpc c "GET greeting\n")

let test_filter_inherited_by_fork () =
  let u =
    unit_ "fkf"
      [
        func "main" []
          [
            decl "pid" (call "fork" []);
            when_ (v "pid" ==: i 0) [ ret (call "open" [ s "/x" ]) ];
            do_ "nanosleep" [ i 100000 ];
            ret0;
          ];
      ]
  in
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  Vfs.add_self m.Machine.fs "fkf" (Crt0.link_app ~libc u);
  let p = Machine.spawn m ~exe_path:"fkf" () in
  p.Proc.seccomp <- Some [ Abi.sys_open ];
  let (_ : _) = Machine.run m ~max_cycles:1_000_000 in
  let child =
    List.find (fun (q : Proc.t) -> q.Proc.parent = p.Proc.pid) (Machine.all_procs m)
  in
  (match child.Proc.state with
  | Proc.Killed s -> Alcotest.(check int) "child SIGSYS" Abi.sigsys s
  | st -> Alcotest.failf "expected child kill, got %s" (Proc.state_to_string st));
  Alcotest.(check bool) "parent exits fine" true (p.Proc.state = Proc.Exited 0)

(* ---------- the filter change is a transaction ---------- *)

(* the tree after a failed or recovered filter change: the same pid,
   live, thawed, carrying exactly one of [filters], still serving *)
let check_intact c ~filters what =
  let p = Machine.proc_exn c.Workload.m c.Workload.pid in
  Alcotest.(check bool) (what ^ ": live") true (Proc.is_live p);
  Alcotest.(check bool) (what ^ ": thawed") false p.Proc.frozen;
  Alcotest.(check bool) (what ^ ": one whole filter") true
    (List.mem p.Proc.seccomp filters);
  Alcotest.(check string) (what ^ ": serves") "$hello"
    (Workload.rpc c "GET greeting\n")

let before = Some [ Abi.sys_fork ]
let after = Some [ Abi.sys_fork; Abi.sys_socket ]

(* an rkv already carrying the [before] filter, and its session *)
let filtered_rkv () =
  Fault.reset ();
  let c = Workload.boot Workload.rkv in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let (_ : Dynacut.timings) = Dynacut.apply_seccomp session ~denied:before in
  (c, session)

let test_fault_rolls_back site () =
  let c, session = filtered_rkv () in
  Fault.arm site Fault.One_shot;
  (match Dynacut.apply_seccomp session ~denied:after with
  | (_ : Dynacut.timings) ->
      Alcotest.failf "filter change survived a fault at %s" (Fault.Site.name site)
  | exception Dynacut.Dynacut_error _ -> ());
  Fault.reset ();
  let site = Fault.Site.name site in
  check_intact c ~filters:[ before ] site;
  (* the rollback closed the journal: the next change goes through *)
  let (_ : Dynacut.timings) = Dynacut.apply_seccomp session ~denied:after in
  check_intact c ~filters:[ after ] (site ^ " then retried")

let kill_mid_change site =
  let c, session = filtered_rkv () in
  Fault.arm ~kill:true site Fault.One_shot;
  (match Dynacut.apply_seccomp session ~denied:after with
  | (_ : Dynacut.timings) ->
      Alcotest.failf "controller survived kill at %s" (Fault.Site.name site)
  | exception Fault.Controller_killed _ -> ());
  Fault.reset ();
  c

let test_kill_then_recover () =
  let c = kill_mid_change Restore_process in
  let r = Dynacut.recover c.Workload.m ~root_pid:c.Workload.pid in
  Alcotest.(check bool) "recovery acted" true (r.Dynacut.rec_action <> `Nothing);
  check_intact c ~filters:[ before; after ] "recovered"

let test_open_journal_is_busy () =
  let c = kill_mid_change Criu_load in
  let fresh = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  match Dynacut.apply_seccomp fresh ~denied:after with
  | (_ : Dynacut.timings) -> Alcotest.fail "filter change on an open journal"
  | exception Journal.Busy _ -> ()

(* ---------- CRIT manual surgery ---------- *)

let test_crit_edit_register_roundtrip () =
  (* the paper's crit decode/edit/encode workflow: decode the image to
     text, change a register, encode, restore — the process resumes with
     the edited register *)
  let c = Workload.boot Workload.rkv in
  let m = c.Workload.m in
  Machine.freeze m ~pid:c.Workload.pid;
  let img = Checkpoint.dump m ~pid:c.Workload.pid () in
  let text = Crit.decode_to_text (Images.encode img) in
  (* textual surgery: bump r15 (callee-saved, unused while blocked) *)
  let sx = Sexpr.of_string text in
  let edited =
    match sx with
    | Sexpr.List items ->
        Sexpr.List
          (List.map
             (function
               | Sexpr.List [ Sexpr.Atom "core"; core ] ->
                   let core' =
                     match core with
                     | Sexpr.List fields ->
                         Sexpr.List
                           (List.map
                              (function
                                | Sexpr.List [ Sexpr.Atom "gpr"; Sexpr.List gprs ] ->
                                    let gprs' =
                                      List.mapi
                                        (fun i g ->
                                          if i = Reg.to_int Reg.R15 then
                                            Sexpr.Atom "0x1234567890"
                                          else g)
                                        gprs
                                    in
                                    Sexpr.List [ Sexpr.Atom "gpr"; Sexpr.List gprs' ]
                                | f -> f)
                              fields)
                     | _ -> core
                   in
                   Sexpr.List [ Sexpr.Atom "core"; core' ]
               | item -> item)
             items)
    | _ -> Alcotest.fail "bad image text"
  in
  let blob' = Crit.encode_from_text (Sexpr.to_string edited) in
  Machine.reap m ~pid:c.Workload.pid;
  let p = Restore.restore m (Images.decode blob') in
  Alcotest.(check int64) "edited register restored" 0x1234567890L
    (Proc.get p.Proc.regs Reg.R15);
  (* and the process still serves *)
  Alcotest.(check string) "alive" "$hello" (Workload.rpc c "GET greeting\n")

let suite =
  [
    Alcotest.test_case "denied syscall kills (SIGSYS)" `Quick test_filter_kills_denied_syscall;
    Alcotest.test_case "filter survives later rewrites" `Quick
      test_filter_survives_checkpoint_restore;
    Alcotest.test_case "filter clearable at run time" `Quick test_filter_clearable;
    Alcotest.test_case "filter inherited across fork" `Quick test_filter_inherited_by_fork;
  ]
  @ List.map
      (fun site ->
        Alcotest.test_case
          ("fault at " ^ Fault.Site.name site ^ " rolls the filter back")
          `Quick (test_fault_rolls_back site))
      [ Criu_checkpoint; Criu_save; Criu_load; Restore_process; Journal_append ]
  @ [
    Alcotest.test_case "controller death mid-change, then recover" `Quick
      test_kill_then_recover;
    Alcotest.test_case "open journal refuses a filter change (Busy)" `Quick
      test_open_journal_is_busy;
    Alcotest.test_case "CRIT decode/edit/encode surgery" `Quick test_crit_edit_register_roundtrip;
  ]
