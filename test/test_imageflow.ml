(** How images flow through a transaction (DESIGN.md §5a): each pid's
    image is decoded at most once and sealed twice — at the dump and
    once after all edits. The census pins that structure through the
    [criu.save]/[criu.load] hit counters; the oracle pins every stored
    frame and the virtual clock across a seeded ngx session of cuts,
    re-enables and a rollback. *)

let app = Workload.ngx
let blocks = lazy (Common.web_feature_blocks app)
let policy method_ = { Dynacut.method_; on_trap = `Redirect "ngx_declined" }

let boot ~seed =
  let c = Workload.spawn ~seed app in
  Workload.wait_ready c;
  let s = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  Alcotest.(check int) "ngx forked its worker" 2 (List.length (Dynacut.tree_pids s));
  (c, s)

let status reply = if String.length reply >= 12 then String.sub reply 9 3 else reply

(* PUT answers 403 while the feature is cut and 201 while it is
   enabled; GET always answers 200 *)
let check_serving c ~cut what =
  let put = Workload.rpc c (Workload.http_put "/upload.txt" "hello upload") in
  let get = Workload.rpc c (Workload.http_get "/index.html") in
  Alcotest.(check string) (what ^ ": PUT") (if cut then "403" else "201") (status put);
  Alcotest.(check string) (what ^ ": GET") "200" (status get)

let cut_ok s method_ =
  match Dynacut.try_cut s ~blocks:(Lazy.force blocks) ~policy:(policy method_) () with
  | { Dynacut.r_outcome = `Applied; r_journals; _ } -> r_journals
  | r -> Alcotest.failf "cut: %a" Dynacut.pp_outcome r.Dynacut.r_outcome

let reenable_ok s journals =
  match Dynacut.try_reenable s journals with
  | { Dynacut.r_outcome = `Applied; _ } -> ()
  | r -> Alcotest.failf "re-enable: %a" Dynacut.pp_outcome r.Dynacut.r_outcome

(* every file the session keeps under its tmpfs directory, with its
   length and MD5, then the virtual clock *)
let frames (c : Workload.ctx) =
  let m = c.Workload.m in
  let prefix = "/tmpfs/dynacut-" in
  let under p =
    String.length p > String.length prefix
    && String.sub p 0 (String.length prefix) = prefix
  in
  List.map
    (fun p ->
      let blob = Option.get (Vfs.find m.Machine.fs p) in
      Printf.sprintf "%s %d %s" p (String.length blob)
        (Digest.to_hex (Digest.string blob)))
    (List.sort compare (List.filter under (Vfs.list m.Machine.fs)))
  @ [ Printf.sprintf "clock %Ld" m.Machine.clock ]

(* ---------- census ---------- *)

let test_census () =
  let c, s = boot ~seed:42 in
  let npids = List.length (Dynacut.tree_pids s) in
  let census what =
    Alcotest.(check int) (what ^ ": criu.save hits") (2 * npids) (Fault.hits "criu.save");
    Alcotest.(check int) (what ^ ": criu.load hits") npids (Fault.hits "criu.load")
  in
  Fault.reset ();
  let journals = cut_ok s `First_byte in
  census "redirect first-byte cut";
  check_serving c ~cut:true "cut";
  Fault.reset ();
  reenable_ok s journals;
  census "re-enable";
  check_serving c ~cut:false "re-enabled";
  Fault.reset ()

(* ---------- stored-frame oracle ---------- *)

(* Recorded from a pipeline that unsealed and resealed the working image
   at every stage: sealing once must store the same bytes and leave the
   same virtual clock. *)
let pinned =
  [
    "cut-first-byte /tmpfs/dynacut-100/dump-100.img 570634 36c7ff5152986162b63103e52b6800db";
    "cut-first-byte /tmpfs/dynacut-100/dump-101.img 570626 edfd33cae77d111d95d7a1c29dc7958f";
    "cut-first-byte /tmpfs/dynacut-100/pristine-100.img 451500 d22b5248e34c5781416051c527ad074a";
    "cut-first-byte /tmpfs/dynacut-100/pristine-101.img 451492 ea69c1cca713404d76b771b66a9c54ea";
    "cut-first-byte clock 300000";
    "reenable-first-byte /tmpfs/dynacut-100/dump-100.img 570634 4d24a47f1c98376acebf0135b4751568";
    "reenable-first-byte /tmpfs/dynacut-100/dump-101.img 570626 492ff67bfaa8e9888490739999c0a745";
    "reenable-first-byte /tmpfs/dynacut-100/pristine-100.img 570634 fb90ec8d20a35d579df7e52867cb45a3";
    "reenable-first-byte /tmpfs/dynacut-100/pristine-101.img 570626 c7cc5405291b4d1a75d0f89c18222ba4";
    "reenable-first-byte clock 320000";
    "cut-wipe /tmpfs/dynacut-100/dump-100.img 570634 d3de372def96ca3bc9d32bdd6b6c2ce2";
    "cut-wipe /tmpfs/dynacut-100/dump-101.img 570626 8f5635eadcffb81f330fdd4c5a0c55b7";
    "cut-wipe /tmpfs/dynacut-100/pristine-100.img 570634 e72f53d45477be938dbdc0de5613d7b2";
    "cut-wipe /tmpfs/dynacut-100/pristine-101.img 570626 199b4b1195744c0772aa913201b3b627";
    "cut-wipe clock 350000";
    "reenable-wipe /tmpfs/dynacut-100/dump-100.img 570634 9b3e6a1f2b11b9ed6234649561b8f8e4";
    "reenable-wipe /tmpfs/dynacut-100/dump-101.img 570626 2c1892a05add91d341815d23d4b55874";
    "reenable-wipe /tmpfs/dynacut-100/pristine-100.img 570634 e4697c200f9e5a468678a41cca7d461b";
    "reenable-wipe /tmpfs/dynacut-100/pristine-101.img 570626 f389479de257cd20c627b871174c7e54";
    "reenable-wipe clock 370000";
    "cut-unmap /tmpfs/dynacut-100/dump-100.img 570634 6ff0c92132bb9193fff5d1f2dac10652";
    "cut-unmap /tmpfs/dynacut-100/dump-101.img 570626 e259b23da95dd3635bbc9427156f6a13";
    "cut-unmap /tmpfs/dynacut-100/pristine-100.img 570634 5c277c2686a12f5e0a8081decef9f8e9";
    "cut-unmap /tmpfs/dynacut-100/pristine-101.img 570626 14feca4ae693789c5875f32416cfdb0c";
    "cut-unmap clock 400000";
    "reenable-unmap /tmpfs/dynacut-100/dump-100.img 570634 ad068722138ddd663cae254d6a97dd4a";
    "reenable-unmap /tmpfs/dynacut-100/dump-101.img 570626 c0bc23dc4fdd5497c2329332734a0d0b";
    "reenable-unmap /tmpfs/dynacut-100/pristine-100.img 570634 24d6562f3c4733d52cd61bcb74a295c1";
    "reenable-unmap /tmpfs/dynacut-100/pristine-101.img 570626 6cf854cee63d6aa49535c4e306326447";
    "reenable-unmap clock 420000";
    "rollback /tmpfs/dynacut-100/dump-100.img 570634 4fd9cce4f4c8c731f09cb07ef2b92e6e";
    "rollback /tmpfs/dynacut-100/dump-101.img 570626 fc47611907df0774961894d53b03753c";
    "rollback /tmpfs/dynacut-100/pristine-100.img 570634 4fd9cce4f4c8c731f09cb07ef2b92e6e";
    "rollback /tmpfs/dynacut-100/pristine-101.img 570626 fc47611907df0774961894d53b03753c";
    "rollback clock 450000";
  ]

let test_oracle () =
  Fault.reset ();
  let c, s = boot ~seed:11 in
  let steps = ref [] in
  let record label = steps := !steps @ List.map (fun l -> label ^ " " ^ l) (frames c) in
  List.iter
    (fun (name, method_) ->
      let journals = cut_ok s method_ in
      record ("cut-" ^ name);
      check_serving c ~cut:true name;
      reenable_ok s journals;
      record ("reenable-" ^ name);
      check_serving c ~cut:false name)
    [ ("first-byte", `First_byte); ("wipe", `Wipe); ("unmap", `Unmap_pages) ];
  (* corrupt the last image write of the cut: the read-back catches it
     before anything is journaled as rewritten *)
  let npids = List.length (Dynacut.tree_pids s) in
  Fault.reset ();
  Fault.arm_mode "criu.save" (Fault.On_nth (2 * npids)) Fault.Corrupt;
  let r = Dynacut.try_cut s ~blocks:(Lazy.force blocks) ~policy:(policy `First_byte) () in
  (match r.Dynacut.r_outcome with
  | `Rolled_back rb ->
      Alcotest.(check string) "caught by the read-back" "validate" rb.Dynacut.rb_stage;
      Alcotest.(check bool)
        ("names the damage: " ^ rb.Dynacut.rb_error)
        true
        (String.length rb.Dynacut.rb_error > 16
        && String.sub rb.Dynacut.rb_error 0 16 = "validate: image ")
  | o -> Alcotest.failf "corrupt save: %a" Dynacut.pp_outcome o);
  Alcotest.(check int) "corruption fired" 1 (Fault.fired "criu.save");
  Fault.reset ();
  record "rollback";
  check_serving c ~cut:false "after rollback";
  Alcotest.(check (list string)) "stored frames and clock" pinned !steps

(* ---------- retry from the pristine image ---------- *)

(* A transient fault while installing the policy table strikes after
   every pid's code is patched. The retry must start from the pristine
   frame: re-editing the half-patched image would journal 0xCC as the
   original byte, and the re-enable would then leave the trap in. *)
let test_transient_retry () =
  Fault.reset ();
  let c0, s0 = boot ~seed:5 in
  let clean = cut_ok s0 `First_byte in
  let c, s = boot ~seed:5 in
  Fault.arm ~transient:true "inject.policy" Fault.One_shot;
  let r = Dynacut.try_cut s ~blocks:(Lazy.force blocks) ~policy:(policy `First_byte) () in
  Alcotest.(check bool) "policy fault fired" true (Fault.fired "inject.policy" = 1);
  Fault.reset ();
  (match r.Dynacut.r_outcome with
  | `Applied -> ()
  | o -> Alcotest.failf "expected applied after retry: %a" Dynacut.pp_outcome o);
  Alcotest.(check int) "one retry" 1 r.Dynacut.r_retries;
  Alcotest.(check bool) "journals match a fault-free cut" true
    (r.Dynacut.r_journals = clean);
  let no_clock l = List.filter (fun x -> String.sub x 0 5 <> "clock") l in
  Alcotest.(check (list string)) "stored frames match a fault-free cut"
    (no_clock (frames c0)) (no_clock (frames c));
  check_serving c ~cut:true "after retry";
  reenable_ok s r.Dynacut.r_journals;
  check_serving c ~cut:false "re-enabled"

(* A re-enable whose journals leave a pid untouched still seals every
   pid, also on a retry that starts from an emptied image table *)
let test_partial_reenable_retry () =
  Fault.reset ();
  let c, s = boot ~seed:5 in
  let journals = cut_ok s `First_byte in
  let master, rest =
    List.partition
      (fun (j : Rewriter.journal) -> j.Rewriter.j_pid = s.Dynacut.root_pid)
      journals
  in
  Fault.arm ~transient:true "inject.policy" Fault.One_shot;
  let r = Dynacut.try_reenable s master in
  Alcotest.(check bool) "policy fault fired" true (Fault.fired "inject.policy" = 1);
  Fault.reset ();
  (match r.Dynacut.r_outcome with
  | `Applied -> ()
  | o -> Alcotest.failf "expected applied after retry: %a" Dynacut.pp_outcome o);
  Alcotest.(check int) "one retry" 1 r.Dynacut.r_retries;
  reenable_ok s rest;
  check_serving c ~cut:false "re-enabled"

let suite =
  [
    Alcotest.test_case "census: two seals and one read-back per pid" `Quick test_census;
    Alcotest.test_case "stored frames and clock pinned" `Quick test_oracle;
    Alcotest.test_case "transient inject.policy retries from pristine" `Quick
      test_transient_retry;
    Alcotest.test_case "partial re-enable retried" `Quick test_partial_reenable_retry;
  ]
