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

(* the tree's journal file on storage: its path and bytes *)
let journal_blob m root_pid =
  let path = Printf.sprintf "/tmpfs/dynacut-%d/journal" root_pid in
  match Vfs.find m.Machine.fs path with
  | Some b -> (path, b)
  | None -> Alcotest.fail "no journal on storage"

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
  Alcotest.(check (list int)) "nothing stranded" [] (Dynacut.stranded m ~root_pid);
  check_original_then_recut m root_pid blocks

(* a frame already on storage can still rot: the [Begin] record read
   back when it was appended, and the only frame in the journal is torn
   after the controller died at criu.checkpoint. Recovery gets an empty
   prefix, so it does nothing to a tree the dead controller had frozen,
   and the closing check [stranded] names the frozen pid *)
let test_torn_intent_stranded () =
  let m, root_pid, _blocks, _dead = crash_cut_at Criu_checkpoint in
  let path, blob = journal_blob m root_pid in
  Vfs.add m.Machine.fs path (String.sub blob 0 (String.length blob - 7));
  let r = Dynacut.recover m ~root_pid in
  Alcotest.(check bool) "tear detected" true r.Dynacut.rec_torn;
  Alcotest.(check bool) "nothing left to act on" true
    (r.Dynacut.rec_action = `Nothing);
  Alcotest.(check (list int)) "the frozen root is stranded" [ root_pid ]
    (Dynacut.stranded m ~root_pid)

(* ---------- tear x kill: a torn record never strands the tree ---------- *)

(* how many records one clean cut of the dispatch server appends *)
let records_per_cut () =
  Fault.reset ();
  let blocks = feature_blocks () in
  let m, p = boot () in
  let (_ : Rewriter.journal list * Dynacut.timings) =
    Dynacut.cut (Dynacut.create m ~root_pid:p.Proc.pid) ~blocks ~policy:redirect_policy
  in
  Fault.hits Journal_append

(* every record position of the cut armed torn, crossed with a kill at
   [site]. A torn record fails its own append, so the cut rolls back
   with its controller alive, or the kill strikes first; either way
   [recover] leaves nothing stranded and the tree serves its whole mix.
   journal.append is no kill site here: one site holds one armed fault,
   and the tear is armed there *)
let test_tear_kill site () =
  let n = records_per_cut () in
  Alcotest.(check int) "Begin, Images_saved, Commit" 3 n;
  for k = 1 to n do
    Fault.reset ();
    let blocks = feature_blocks () in
    let m, p = boot () in
    let root_pid = p.Proc.pid in
    let case = Printf.sprintf "record %d torn, kill at %s" k (Fault.Site.name site) in
    Fault.arm_mode Journal_append (Fault.On_nth k) Fault.Corrupt;
    Fault.arm ~kill:true site Fault.One_shot;
    (match Dynacut.try_cut (Dynacut.create m ~root_pid) ~blocks ~policy:redirect_policy () with
    | { Dynacut.r_outcome = `Rolled_back _; _ } ->
        Alcotest.(check int) (case ^ ": the tear rolled back") 1 (Fault.fired Journal_append)
    | { Dynacut.r_outcome = `Applied; _ } -> Alcotest.failf "%s: cut applied" case
    | exception Fault.Controller_killed { site = s } ->
        Alcotest.(check string) (case ^ ": died at the armed site") (Fault.Site.name site)
          (Fault.Site.name s));
    Fault.reset ();
    let (_ : Dynacut.recovery) = Dynacut.recover m ~root_pid in
    Alcotest.(check (list int)) (case ^ ": nothing stranded") [] (Dynacut.stranded m ~root_pid);
    check_original_then_recut m root_pid blocks
  done

(* the product's no-kill row: each record position torn with no kill
   armed. The tear alone fails the append, and the stage that appended
   the record rolls the cut back with its controller alive: [journal]
   for [Begin] and [Images_saved], [restore] for [Commit], whose
   rollback re-creates the already replaced pids from their pristine
   images. Nothing is stranded, the journal is closed, and the tree
   serves and re-cuts *)
let test_tear_no_kill () =
  let stages = [ "journal"; "journal"; "restore" ] in
  Alcotest.(check int) "one stage per record" (records_per_cut ()) (List.length stages);
  List.iteri
    (fun i stage ->
      let k = i + 1 in
      Fault.reset ();
      let blocks = feature_blocks () in
      let m, p = boot () in
      let root_pid = p.Proc.pid in
      let case = Printf.sprintf "record %d torn" k in
      Fault.arm_mode Journal_append (Fault.On_nth k) Fault.Corrupt;
      (match (Dynacut.try_cut (Dynacut.create m ~root_pid) ~blocks ~policy:redirect_policy ()).Dynacut.r_outcome with
      | `Rolled_back rb ->
          Alcotest.(check string) (case ^ ": rolled back at") stage rb.Dynacut.rb_stage
      | o -> Alcotest.failf "%s: %a" case Dynacut.pp_outcome o);
      Alcotest.(check int) (case ^ ": the tear fired") 1 (Fault.fired Journal_append);
      Fault.reset ();
      Alcotest.(check (list int)) (case ^ ": nothing stranded") [] (Dynacut.stranded m ~root_pid);
      Alcotest.(check bool) (case ^ ": the journal is closed") true
        ((Dynacut.recover m ~root_pid).Dynacut.rec_action = `Nothing);
      check_original_then_recut m root_pid blocks)
    stages

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

(* a torn journal tail must not cost the fence: the controller dies at
   rewrite.patch, and the last record on storage (Images_saved) is torn
   afterwards. Recovery acts on the prefix (the tree was at most frozen)
   and still stamps a newer epoch, so the dead controller, waking up, is
   fenced *)
let test_fencing_torn_tail () =
  let m, root_pid, blocks, dead = crash_cut_at Rewrite_patch in
  let path, blob = journal_blob m root_pid in
  Vfs.add m.Machine.fs path (String.sub blob 0 (String.length blob - 7));
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
      Journal.Begin { txid = 9; pids = [ pid ] };
      Journal.Images_saved 9;
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

(* [r]'s sealed frame, as [Journal.append] stores it *)
let sealed_frame m r =
  let dir = "/tmpfs/sealed-frame" in
  let j = Journal.attach m.Machine.fs ~dir in
  Journal.acquire j ~epoch:1;
  Journal.append j ~epoch:1 r;
  let frame = Option.get (Vfs.find m.Machine.fs (dir ^ "/journal")) in
  Journal.finish j;
  frame

(* the frame a crash in the middle of appending [r] leaves behind: the
   sealed record, cut 7 bytes short *)
let torn_frame m r =
  let frame = sealed_frame m r in
  String.sub frame 0 (String.length frame - 7)

(* a crash mid-append tears the last frame; the valid prefix rules. The
   controller died in restore and again while appending its [Commit]
   (the session's first transaction, tx 1) *)
let test_torn_tail () =
  let m, root_pid, blocks, _dead = crash_cut_at Restore_process in
  let path, blob = journal_blob m root_pid in
  Vfs.add m.Machine.fs path (blob ^ torn_frame m (Journal.Commit 1));
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

(* flip a byte in a frame already on storage, with an intact frame
   behind it: everything from the damaged frame on is discarded, the
   intact frame included, and recovery still lands on a §5d-consistent
   state. The byte is in the payload of [Images_saved], so the prefix
   keeps [Begin] (a flip inside [Begin] leaves an empty prefix, the case
   [stranded] detects, see [test_torn_intent_stranded]); the intact
   frame behind it is a [Commit], which recovery must not honour *)
let test_corrupt_mid_file () =
  let m, root_pid, blocks, _dead = crash_cut_at Restore_process in
  let path, blob = journal_blob m root_pid in
  let b = Bytes.of_string blob in
  let mid = Bytes.length b - 5 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xff));
  Vfs.add m.Machine.fs path (Bytes.to_string b ^ sealed_frame m (Journal.Commit 1));
  let r = Dynacut.recover m ~root_pid in
  Alcotest.(check bool) "corruption detected" true r.Dynacut.rec_torn;
  Alcotest.(check bool)
    (Format.asprintf "thawed from the Begin-only prefix (%a)" Dynacut.pp_recovery r)
    true
    (r.Dynacut.rec_action = `Thawed);
  let d = state_digest m root_pid in
  let (_ : Dynacut.recovery) = Dynacut.recover m ~root_pid in
  Alcotest.(check string) "stable" d (state_digest m root_pid);
  check_original_then_recut m root_pid blocks

(* truncating clean through frame boundaries steps the decision table
   down record by record; no cut point may crash the recovery pass *)
let test_every_truncation_point () =
  let m, root_pid, _blocks, _dead = crash_cut_at Restore_process in
  let _path, blob = journal_blob m root_pid in
  (* decode [bytes] as the journal, exactly as recovery would *)
  let decode bytes =
    let dir = Printf.sprintf "/tmpfs/dynacut-%d" root_pid in
    Vfs.add m.Machine.fs (dir ^ "/journal") bytes;
    fst (Journal.read (Journal.attach m.Machine.fs ~dir))
  in
  let full = decode blob in
  Alcotest.(check int) "Begin and Images_saved on storage" 2 (List.length full);
  let n = String.length blob in
  let step = max 1 (n / 23) in
  let cut_len = ref 0 in
  while !cut_len < n do
    let records = decode (String.sub blob 0 !cut_len) in
    (* the prefix is always a prefix of the full record sequence *)
    Alcotest.(check bool)
      (Printf.sprintf "prefix at %d is a prefix of the records" !cut_len)
      true
      (records = List.filteri (fun i _ -> i < List.length records) full);
    cut_len := !cut_len + step
  done

(* ---------- a respawn is a journal transaction ---------- *)

(* every cut block of the live [pid] holds the bytes an uncut twin of
   the server holds there *)
let check_byte_original m pid blocks what =
  let m0, p0 = boot () in
  let exe = Option.get (Vfs.find_self m.Machine.fs "dsrv") in
  let mem = (Machine.proc_exn m pid).Proc.mem
  and mem0 = (Machine.proc_exn m0 p0.Proc.pid).Proc.mem in
  List.iter
    (fun (b : Covgraph.block) ->
      for k = 0 to b.Covgraph.b_size - 1 do
        let va = Int64.add exe.Self.base (Int64.of_int (b.Covgraph.b_off + k)) in
        if Mem.peek8 mem va <> Mem.peek8 mem0 va then
          Alcotest.failf "%s: byte at 0x%Lx differs from the uncut twin" what va
      done)
    blocks

(* a cut dispatch server whose pid then died (reaped): the scene of a
   canary revert's respawn *)
let cut_then_reap () =
  Fault.reset ();
  let blocks = feature_blocks () in
  let m, p = boot () in
  let pid = p.Proc.pid in
  let session = Dynacut.create m ~root_pid:pid in
  let (_ : Rewriter.journal list * Dynacut.timings) =
    Dynacut.cut session ~blocks ~policy:redirect_policy
  in
  Alcotest.(check string) "cut live" "ERR" (request m "S");
  Machine.reap m ~pid;
  (m, pid, blocks, session)

(* the respawned pid runs its pristine image: byte-original, serving,
   the feature back, nothing stranded *)
let check_revived m pid blocks what =
  Alcotest.(check (list int)) (what ^ ": nothing stranded") [] (Dynacut.stranded m ~root_pid:pid);
  check_byte_original m pid blocks what;
  check_serving m what;
  Alcotest.(check string) (what ^ ": feature original") "SET-OK" (request m "S")

(* the controller dies at [site] inside [respawn_pristine]: after the
   respawn's [Begin] (restore.respawn) or while appending it
   (journal.append). Recovery revives the pid from its pristine image *)
let test_respawn_killed_at site () =
  let m, pid, blocks, session = cut_then_reap () in
  Fault.arm ~kill:true site Fault.One_shot;
  (match Dynacut.respawn_pristine session ~pid with
  | () -> Alcotest.fail "controller survived kill mid-respawn"
  | exception Fault.Controller_killed { site = s } ->
      Alcotest.(check string) "died respawning" (Fault.Site.name site) (Fault.Site.name s));
  Alcotest.(check bool) "worker is gone" true (Machine.proc m pid = None);
  let r = Dynacut.recover m ~root_pid:pid in
  Alcotest.(check bool)
    (Format.asprintf "recovery acted (%a)" Dynacut.pp_recovery r)
    true
    (r.Dynacut.rec_action <> `Nothing);
  Alcotest.(check (list int)) "the respawn's pid" [ pid ] r.Dynacut.rec_pids;
  check_revived m pid blocks ("after a kill at " ^ Fault.Site.name site);
  Alcotest.(check bool) "then quiescent" true
    ((Dynacut.recover m ~root_pid:pid).Dynacut.rec_action = `Nothing)

let test_respawn_journaled () = test_respawn_killed_at Restore_respawn ()

(* a respawn intent that does not read back refuses the respawn, and
   the torn frame is cut off again: the next intent lands where
   recovery reads it, so a controller killed mid-respawn is still
   redone *)
let test_respawn_torn_intent () =
  let m, pid, blocks, session = cut_then_reap () in
  Fault.arm_mode Journal_append Fault.One_shot Fault.Corrupt;
  (match Dynacut.respawn_pristine session ~pid with
  | () -> Alcotest.fail "respawned past a torn intent"
  | exception Validate.Validate_error _ -> ());
  Alcotest.(check bool) "worker still gone" true (Machine.proc m pid = None);
  Fault.arm ~kill:true Restore_respawn Fault.One_shot;
  (match Dynacut.respawn_pristine session ~pid with
  | () -> Alcotest.fail "controller survived kill mid-respawn"
  | exception Fault.Controller_killed _ -> ());
  let r = Dynacut.recover m ~root_pid:pid in
  Alcotest.(check bool) "journal was intact" false r.Dynacut.rec_torn;
  Alcotest.(check bool) "the respawn's transaction thawed" true
    (r.Dynacut.rec_action = `Thawed);
  check_revived m pid blocks "after the torn intent"

(* a clean respawn leaves no journal residue behind *)
let test_respawn_clean_no_residue () =
  let m, pid, blocks, session = cut_then_reap () in
  Dynacut.respawn_pristine session ~pid;
  let dir = Printf.sprintf "/tmpfs/dynacut-%d" pid in
  Alcotest.(check (list bool)) "no journal, no lock" [ false; false ]
    (List.map (fun f -> Vfs.exists m.Machine.fs (dir ^ f)) [ "/journal"; "/lock" ]);
  let r = Dynacut.recover m ~root_pid:pid in
  Alcotest.(check bool) "nothing to recover" true
    (r.Dynacut.rec_action = `Nothing);
  check_revived m pid blocks "after a clean respawn"

(* a respawn from a second session over a cut its controller died in
   (at rewrite.patch, past Images_saved) is refused: it must not finish
   the journal under the open transaction. The journal keeps its two
   records, and recovery rolls the tree back *)
let test_respawn_refused_over_open_tx () =
  let m, root_pid, blocks, _dead = crash_cut_at Rewrite_patch in
  let records () =
    List.length (fst (Journal.read (Journal.attach m.Machine.fs
      ~dir:(Printf.sprintf "/tmpfs/dynacut-%d" root_pid))))
  in
  Alcotest.(check int) "Begin and Images_saved" 2 (records ());
  let second = Dynacut.create m ~root_pid in
  (match Dynacut.respawn_pristine second ~pid:root_pid with
  | () -> Alcotest.fail "respawned over an open transaction"
  | exception Journal.Busy { txid } ->
      Alcotest.(check bool) "busy names the open tx" true (txid > 0));
  Alcotest.(check int) "the journal keeps its records" 2 (records ());
  let r = Dynacut.recover m ~root_pid in
  Alcotest.(check bool) "rolled back" true (r.Dynacut.rec_action = `Rolled_back);
  Alcotest.(check (list int)) "nothing stranded" [] (Dynacut.stranded m ~root_pid);
  check_original_then_recut m root_pid blocks

(* ---------- a torn lock write never leaves anyone acting unfenced ---------- *)

(* the cut's lock stamp does not read back: the previous lock (none)
   is put back and the cut rolls back at its journal stage, with
   nothing on storage for recovery *)
let test_torn_lock_rolls_back () =
  Fault.reset ();
  let blocks = feature_blocks () in
  let m, p = boot () in
  let root_pid = p.Proc.pid in
  Fault.arm_mode Journal_lock Fault.One_shot Fault.Corrupt;
  (match (Dynacut.try_cut (Dynacut.create m ~root_pid) ~blocks ~policy:redirect_policy ()).Dynacut.r_outcome with
  | `Rolled_back rb -> Alcotest.(check string) "rolled back at" "journal" rb.Dynacut.rb_stage
  | o -> Alcotest.failf "torn lock: %a" Dynacut.pp_outcome o);
  Alcotest.(check int) "the tear fired" 1 (Fault.fired Journal_lock);
  let dir = Printf.sprintf "/tmpfs/dynacut-%d" root_pid in
  Alcotest.(check (list bool)) "no journal, no lock" [ false; false ]
    (List.map (fun f -> Vfs.exists m.Machine.fs (dir ^ f)) [ "/journal"; "/lock" ]);
  Alcotest.(check (list int)) "nothing stranded" [] (Dynacut.stranded m ~root_pid);
  check_original_then_recut m root_pid blocks

(* recovery's fencing stamp does not read back: the pass fails before
   it acts, the journal and the previous lock are intact, and a second
   pass recovers *)
let test_torn_fence_recover_reruns () =
  let m, root_pid, blocks, _dead = crash_cut_at Criu_checkpoint in
  let j = Journal.attach m.Machine.fs ~dir:(Printf.sprintf "/tmpfs/dynacut-%d" root_pid) in
  let before = Journal.read j and epoch = Journal.lock_epoch j in
  Fault.arm_mode Journal_lock Fault.One_shot Fault.Corrupt;
  (match Dynacut.recover m ~root_pid with
  | (_ : Dynacut.recovery) -> Alcotest.fail "recovered unfenced"
  | exception Validate.Validate_error _ -> ());
  Alcotest.(check bool) "the journal is intact" true (Journal.read j = before);
  Alcotest.(check int) "the previous lock is back" epoch (Journal.lock_epoch j);
  let r = Dynacut.recover m ~root_pid in
  Alcotest.(check bool) "second pass thaws" true (r.Dynacut.rec_action = `Thawed);
  Alcotest.(check int) "fenced past the old lock" (epoch + 1) r.Dynacut.rec_epoch;
  Alcotest.(check (list int)) "nothing stranded" [] (Dynacut.stranded m ~root_pid);
  check_original_then_recut m root_pid blocks

let suite =
  List.map
    (fun ((site, _) as se) ->
      Alcotest.test_case ("kill at " ^ Fault.Site.name site) `Quick (test_kill_at_site se))
    site_expectations
  @ List.filter_map
      (fun (site, _) ->
        if site = Fault.Site.Journal_append then None
        else
          Some
            (Alcotest.test_case ("tear x kill at " ^ Fault.Site.name site) `Quick
               (test_tear_kill site)))
      site_expectations
  @ [
      Alcotest.test_case "tear x no kill: the cut rolls back live" `Quick
        test_tear_no_kill;
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
      Alcotest.test_case "torn intent record: the tree is stranded" `Quick
        test_torn_intent_stranded;
      Alcotest.test_case "corrupted journal mid-file" `Quick
        test_corrupt_mid_file;
      Alcotest.test_case "every truncation point decodes" `Quick
        test_every_truncation_point;
      Alcotest.test_case "respawn journaled and redone" `Quick
        test_respawn_journaled;
      Alcotest.test_case "clean respawn leaves no residue" `Quick
        test_respawn_clean_no_residue;
      Alcotest.test_case "torn respawn intent refused and cut off" `Quick
        test_respawn_torn_intent;
      Alcotest.test_case "kill at the respawn's journal.append" `Quick
        (test_respawn_killed_at Journal_append);
      Alcotest.test_case "respawn over an open transaction is busy" `Quick
        test_respawn_refused_over_open_tx;
      Alcotest.test_case "torn lock write rolls the cut back" `Quick
        test_torn_lock_rolls_back;
      Alcotest.test_case "torn fencing write: recover fails, re-run recovers" `Quick
        test_torn_fence_recover_reruns;
    ]
