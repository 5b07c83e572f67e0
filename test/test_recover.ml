(** Crash-recovery tests (DESIGN.md §5d): kill the controller at every
    pipeline site mid-cut, run [Dynacut.recover] as a fresh controller,
    and check the §5d invariant — every pid fully cut XOR fully
    original, recovery idempotent, resurrected controllers fenced. *)

let boot = Test_core.boot
let request = Test_core.request
let feature_blocks = Test_core.feature_blocks

let redirect_policy =
  { Dynacut.method_ = `First_byte; on_trap = `Redirect "err_path" }

(* Byte-level digest of a pid's full state (memory, registers, vmas):
   the idempotency tests compare these across recovery passes. Freezes
   around the dump; faults are suppressed so an armed chaos spec cannot
   fire inside the observer. *)
let state_digest m pid =
  Fault.suppressed (fun () ->
      let was_frozen = (Machine.proc_exn m pid).Proc.frozen in
      Machine.freeze m ~pid;
      let img = Checkpoint.dump m ~pid () in
      if not was_frozen then Machine.thaw m ~pid;
      Digest.string (Images.encode img))

(* Boot the dispatch server, arm a kill-mode fault at [site], and run a
   cut that dies there. Returns the orphaned machine, the root pid, and
   the blocks of the attempted cut. *)
let crash_cut_at site =
  Fault.reset ();
  let blocks = feature_blocks () in
  let m, p = boot () in
  Fault.arm ~kill:true site Fault.One_shot;
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  (match Dynacut.try_cut session ~blocks ~policy:redirect_policy () with
  | (_ : Dynacut.cut_result) ->
      Alcotest.failf "controller survived kill at %s" (Fault.Site.name site)
  | exception Fault.Controller_killed { site = s } ->
      Alcotest.(check string) "died at the armed site" (Fault.Site.name site)
        (Fault.Site.name s));
  (m, p.Proc.pid, blocks, session)

let check_serving m what =
  let g = request m "G" in
  Alcotest.(check bool) (what ^ ": GET answered") true
    (String.length g >= 4 && String.sub g 0 4 = "VAL=")

(* the cut never committed, so the feature must still work after
   recovery — and a fresh controller must be able to cut it cleanly *)
let check_original_then_recut m root_pid blocks =
  check_serving m "recovered";
  Alcotest.(check string) "feature intact (rolled back or untouched)" "SET-OK"
    (request m "S");
  let fresh = Dynacut.create m ~root_pid in
  let r = Dynacut.try_cut fresh ~blocks ~policy:redirect_policy () in
  (match r.Dynacut.r_outcome with
  | `Applied -> ()
  | o -> Alcotest.failf "clean re-cut failed: %a" Dynacut.pp_outcome o);
  Alcotest.(check string) "feature now cut" "ERR" (request m "S");
  check_serving m "after re-cut"

(* ---------- kill at every cut-pipeline site, then recover ---------- *)

(* expected recovery action per site, from the §5d decision table:
   before the lock there is nothing on storage; before Images_saved the
   tree was at most frozen; after it, uniform pristine rollback *)
let site_expectations : (Fault.Site.t * _) list =
  [
    (Journal_lock, [ `Nothing ]);
    (Journal_append, [ `Nothing; `Thawed ]);
    (Criu_checkpoint, [ `Thawed ]);
    (Criu_save, [ `Thawed ]);
    (Criu_load, [ `Rolled_back ]);
    (Rewrite_patch, [ `Rolled_back ]);
    (Inject_lib, [ `Rolled_back ]);
    (Inject_policy, [ `Rolled_back ]);
    (Restore_process, [ `Rolled_back ]);
  ]

let test_kill_at_site (site, expected) () =
  let m, root_pid, blocks, _dead = crash_cut_at site in
  let r = Dynacut.recover m ~root_pid in
  Alcotest.(check bool)
    (Format.asprintf "action for %s (%a)" (Fault.Site.name site) Dynacut.pp_recovery r)
    true
    (List.mem r.Dynacut.rec_action expected);
  check_original_then_recut m root_pid blocks

(* ---------- the resurrected controller is fenced ---------- *)

let test_fencing () =
  (* rewrite.patch: past Images_saved, but the tree is still alive (and
     frozen), so the competing controllers can actually reach the
     journal checks rather than dying on a missing pid *)
  let m, root_pid, blocks, dead = crash_cut_at Rewrite_patch in
  (* before recovery, a fresh controller sees the open transaction *)
  let early = Dynacut.create m ~root_pid in
  (match Dynacut.try_cut early ~blocks ~policy:redirect_policy () with
  | (_ : Dynacut.cut_result) -> Alcotest.fail "cut through an open journal"
  | exception Journal.Busy { txid } ->
      Alcotest.(check bool) "busy names the open tx" true (txid > 0));
  let r = Dynacut.recover m ~root_pid in
  Alcotest.(check bool) "rolled back" true (r.Dynacut.rec_action = `Rolled_back);
  (* the dead controller wakes up and tries to keep going: fenced *)
  (match Dynacut.try_cut dead ~blocks ~policy:redirect_policy () with
  | (_ : Dynacut.cut_result) -> Alcotest.fail "zombie controller not fenced"
  | exception Journal.Fenced { epoch; lock_epoch } ->
      Alcotest.(check bool) "newer epoch owns the lock" true (lock_epoch > epoch));
  (* the tree itself is unharmed by the zombie's attempt *)
  check_original_then_recut m root_pid blocks

(* a torn journal tail must not cost the fence: the third record
   (Images_saved) is written torn and the controller dies later, at
   rewrite.patch. Recovery acts on the prefix (the tree was at most
   frozen) and still stamps a newer epoch, so the dead controller,
   waking up, is fenced *)
let test_fencing_torn_tail () =
  Fault.reset ();
  let blocks = feature_blocks () in
  let m, p = boot () in
  let root_pid = p.Proc.pid in
  let dead = Dynacut.create m ~root_pid in
  Fault.arm_mode Journal_append
    (Fault.On_nth (Fault.hits Journal_append + 3))
    Fault.Corrupt;
  Fault.arm ~kill:true Rewrite_patch Fault.One_shot;
  (match Dynacut.try_cut dead ~blocks ~policy:redirect_policy () with
  | (_ : Dynacut.cut_result) -> Alcotest.fail "controller survived the kill"
  | exception Fault.Controller_killed _ -> ());
  Alcotest.(check int) "journal record torn" 1 (Fault.fired Journal_append);
  Fault.reset ();
  let r = Dynacut.recover m ~root_pid in
  Alcotest.(check bool) "tear detected" true r.Dynacut.rec_torn;
  Alcotest.(check bool) "thawed from the prefix" true
    (r.Dynacut.rec_action = `Thawed);
  (match Dynacut.try_cut dead ~blocks ~policy:redirect_policy () with
  | (_ : Dynacut.cut_result) -> Alcotest.fail "zombie controller not fenced"
  | exception Journal.Fenced { epoch; lock_epoch } ->
      Alcotest.(check bool) "newer epoch owns the lock" true (lock_epoch > epoch));
  check_original_then_recut m root_pid blocks

(* ---------- idempotency: recover twice == recover once ---------- *)

let test_recover_idempotent () =
  let m, root_pid, _blocks, _dead = crash_cut_at Restore_process in
  let r1 = Dynacut.recover m ~root_pid in
  Alcotest.(check bool) "first pass rolls back" true
    (r1.Dynacut.rec_action = `Rolled_back);
  let d1 = state_digest m root_pid in
  let r2 = Dynacut.recover m ~root_pid in
  Alcotest.(check bool) "second pass finds nothing" true
    (r2.Dynacut.rec_action = `Nothing);
  Alcotest.(check string) "byte-identical state" d1 (state_digest m root_pid);
  let (_ : Dynacut.recovery) = Dynacut.recover m ~root_pid in
  Alcotest.(check string) "third pass still identical" d1
    (state_digest m root_pid);
  check_serving m "after repeated recovery"

(* crashing {e inside} recovery and re-running converges to the same
   state as a recovery that never crashed *)
let test_crash_during_recovery () =
  let m, root_pid, blocks, _dead = crash_cut_at Restore_process in
  Fault.arm ~kill:true Recover_replay Fault.One_shot;
  (match Dynacut.recover m ~root_pid with
  | (_ : Dynacut.recovery) -> Alcotest.fail "recovery survived its kill"
  | exception Fault.Controller_killed { site } ->
      Alcotest.(check string) "died replaying" "recover.replay" (Fault.Site.name site));
  (* second recovery attempt completes the interrupted one *)
  let r = Dynacut.recover m ~root_pid in
  Alcotest.(check bool) "second attempt rolls back" true
    (r.Dynacut.rec_action = `Rolled_back);
  let d = state_digest m root_pid in
  let (_ : Dynacut.recovery) = Dynacut.recover m ~root_pid in
  Alcotest.(check string) "stable thereafter" d (state_digest m root_pid);
  check_original_then_recut m root_pid blocks

(* ---------- roll-forward: Commit on storage, cleanup lost ---------- *)

let test_roll_forward_completed () =
  Fault.reset ();
  let m, p = boot () in
  let pid = p.Proc.pid in
  (* simulate a controller that committed and died before cleanup: the
     pid is frozen mid-quiesce and the journal records a closed tx *)
  Machine.freeze m ~pid;
  let dir = Printf.sprintf "/tmpfs/dynacut-%d" pid in
  let j = Journal.attach m.Machine.fs ~dir in
  Journal.acquire j ~epoch:1;
  List.iter
    (Journal.append j ~epoch:1)
    [
      Journal.Begin { txid = 9; op = Journal.Cut; pids = [ pid ] };
      Journal.Frozen 9;
      Journal.Images_saved 9;
      Journal.Rewritten 9;
      Journal.Replaced { txid = 9; pid };
      Journal.Commit 9;
    ];
  let r = Dynacut.recover m ~root_pid:pid in
  Alcotest.(check bool) "completed" true (r.Dynacut.rec_action = `Completed);
  Alcotest.(check (list int)) "tx pids" [ pid ] r.Dynacut.rec_pids;
  Alcotest.(check bool) "thawed" false (Machine.proc_exn m pid).Proc.frozen;
  check_serving m "after roll-forward";
  let r2 = Dynacut.recover m ~root_pid:pid in
  Alcotest.(check bool) "then quiescent" true (r2.Dynacut.rec_action = `Nothing)

(* ---------- torn and corrupted journals ---------- *)

let journal_blob m root_pid =
  let path = Printf.sprintf "/tmpfs/dynacut-%d/journal" root_pid in
  match Vfs.find m.Machine.fs path with
  | Some b -> (path, b)
  | None -> Alcotest.fail "no journal on storage"

(* a crash mid-append tears the last frame; the valid prefix rules *)
let test_torn_tail () =
  let m, root_pid, blocks, _dead = crash_cut_at Restore_process in
  let path, blob = journal_blob m root_pid in
  Vfs.add m.Machine.fs path (String.sub blob 0 (String.length blob - 7));
  let r = Dynacut.recover m ~root_pid in
  Alcotest.(check bool) "tear detected" true r.Dynacut.rec_torn;
  (* Images_saved survives in the prefix, so the answer is still a
     uniform pristine rollback *)
  Alcotest.(check bool) "rolled back from the prefix" true
    (r.Dynacut.rec_action = `Rolled_back);
  let d = state_digest m root_pid in
  let r2 = Dynacut.recover m ~root_pid in
  Alcotest.(check bool) "second pass quiescent" true
    (r2.Dynacut.rec_action = `Nothing);
  Alcotest.(check string) "idempotent on a torn journal" d
    (state_digest m root_pid);
  check_original_then_recut m root_pid blocks

(* flip a byte mid-file: everything from the damaged frame on is
   discarded; recovery still lands on a §5d-consistent state *)
let test_corrupt_mid_file () =
  let m, root_pid, blocks, _dead = crash_cut_at Restore_process in
  let path, blob = journal_blob m root_pid in
  let b = Bytes.of_string blob in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xff));
  Vfs.add m.Machine.fs path (Bytes.to_string b);
  let r = Dynacut.recover m ~root_pid in
  Alcotest.(check bool) "corruption detected" true r.Dynacut.rec_torn;
  Alcotest.(check bool) "acted on the strongest completed record" true
    (List.mem r.Dynacut.rec_action [ `Thawed; `Rolled_back ]);
  let d = state_digest m root_pid in
  let (_ : Dynacut.recovery) = Dynacut.recover m ~root_pid in
  Alcotest.(check string) "stable" d (state_digest m root_pid);
  check_original_then_recut m root_pid blocks

(* truncating clean through frame boundaries steps the decision table
   down record by record; no cut point may crash the recovery pass *)
let test_every_truncation_point () =
  let m, root_pid, _blocks, _dead = crash_cut_at Restore_process in
  let _path, blob = journal_blob m root_pid in
  let n = String.length blob in
  let step = max 1 (n / 23) in
  let cut_len = ref 0 in
  while !cut_len < n do
    let records, _torn =
      (* decode the prefix exactly as recovery would *)
      let m2, p2 = boot () in
      let dir = Printf.sprintf "/tmpfs/dynacut-%d" p2.Proc.pid in
      let j2 = Journal.attach m2.Machine.fs ~dir in
      Vfs.add m2.Machine.fs (dir ^ "/journal") (String.sub blob 0 !cut_len);
      Journal.read j2
    in
    (* the prefix is always a prefix of the full record sequence *)
    Alcotest.(check bool)
      (Printf.sprintf "prefix at %d decodes" !cut_len)
      true
      (List.length records <= 7);
    cut_len := !cut_len + step
  done;
  ignore m;
  ignore root_pid

(* ---------- supervisor respawns are journaled ---------- *)

let test_respawn_journaled () =
  Fault.reset ();
  let blocks = feature_blocks () in
  let m, p = boot () in
  let pid = p.Proc.pid in
  let session = Dynacut.create m ~root_pid:pid in
  (* a successful cut leaves working + pristine images in tmpfs *)
  let (_ : Rewriter.journal list * Dynacut.timings) =
    Dynacut.cut session ~blocks ~policy:redirect_policy
  in
  Alcotest.(check string) "cut live" "ERR" (request m "S");
  (* the worker dies; the controller is killed mid-respawn *)
  Machine.reap m ~pid;
  Fault.arm ~kill:true Restore_respawn Fault.One_shot;
  (match
     Dynacut.journaled_respawn session ~pid
       ~path:(Dynacut.image_path session pid)
   with
  | (_ : Proc.t) -> Alcotest.fail "controller survived kill mid-respawn"
  | exception Fault.Controller_killed { site } ->
      Alcotest.(check string) "died respawning" "restore.respawn" (Fault.Site.name site));
  Alcotest.(check bool) "worker is gone" true (Machine.proc m pid = None);
  (* recovery redoes the unmatched respawn intent *)
  let r = Dynacut.recover m ~root_pid:pid in
  Alcotest.(check (list int)) "respawn redone" [ pid ] r.Dynacut.rec_respawned;
  (* the respawned worker runs the rewritten image: still cut *)
  check_serving m "after respawn recovery";
  Alcotest.(check string) "feature still cut" "ERR" (request m "S")

(* a clean respawn leaves no journal residue behind *)
let test_respawn_clean_no_residue () =
  Fault.reset ();
  let blocks = feature_blocks () in
  let m, p = boot () in
  let pid = p.Proc.pid in
  let session = Dynacut.create m ~root_pid:pid in
  let (_ : Rewriter.journal list * Dynacut.timings) =
    Dynacut.cut session ~blocks ~policy:redirect_policy
  in
  Machine.reap m ~pid;
  let (_ : Proc.t) =
    Dynacut.journaled_respawn session ~pid
      ~path:(Dynacut.image_path session pid)
  in
  let r = Dynacut.recover m ~root_pid:pid in
  Alcotest.(check bool) "nothing to recover" true
    (r.Dynacut.rec_action = `Nothing);
  Alcotest.(check (list int)) "no respawn redone" [] r.Dynacut.rec_respawned

let suite =
  List.map
    (fun ((site, _) as se) ->
      Alcotest.test_case ("kill at " ^ Fault.Site.name site) `Quick (test_kill_at_site se))
    site_expectations
  @ [
      Alcotest.test_case "zombie controller fenced, busy before recovery"
        `Quick test_fencing;
      Alcotest.test_case "zombie fenced after a torn journal tail" `Quick
        test_fencing_torn_tail;
      Alcotest.test_case "recovery is idempotent" `Quick test_recover_idempotent;
      Alcotest.test_case "crash during recovery" `Quick
        test_crash_during_recovery;
      Alcotest.test_case "roll-forward after commit" `Quick
        test_roll_forward_completed;
      Alcotest.test_case "torn journal tail" `Quick test_torn_tail;
      Alcotest.test_case "corrupted journal mid-file" `Quick
        test_corrupt_mid_file;
      Alcotest.test_case "every truncation point decodes" `Quick
        test_every_truncation_point;
      Alcotest.test_case "respawn journaled and redone" `Quick
        test_respawn_journaled;
      Alcotest.test_case "clean respawn leaves no residue" `Quick
        test_respawn_clean_no_residue;
    ]
