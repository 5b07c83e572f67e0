(** How images flow through a transaction (DESIGN.md §5a): each pid's
    image is decoded at most once and sealed twice — at the dump and
    once after all edits. The census pins that structure through the
    [criu.save]/[criu.load] hit counters; the oracle pins every stored
    image and the virtual clock across a seeded ngx session of cuts,
    re-enables and a rollback, and checks that sealing with carried leaf
    sums seals what sealing cold does. A gate bounds the leaves a warm
    transaction hashes. *)

let app = Workload.ngx
let blocks = lazy (Common.web_feature_blocks app)
let policy method_ = { Dynacut.method_; on_trap = `Redirect "ngx_declined" }

(* discovery first: the tracing boots machines of its own, and the
   fault hooks and metrics clock must follow the ngx under test *)
let boot ~seed =
  ignore (Lazy.force blocks : Covgraph.block list);
  let c = Workload.boot ~seed app in
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

(* the MD5 of every field of [img] that the codec carries, flattened
   without sharing: it names the image, not the frame that stored it *)
let flat (img : Images.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          Images.(img.core, img.mm, img.pagemap, page_bytes img, img.files, img.tcp, img.mmap_hint)
          [ Marshal.No_sharing ]))

(* every image the session keeps under its tmpfs directory, each of
   which must decode alone, with its [flat] digest; then the virtual
   clock *)
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
      Printf.sprintf "%s %s" p (flat (Validate.decode_sealed blob)))
    (List.sort compare (List.filter under (Vfs.list m.Machine.fs)))
  @ [ Printf.sprintf "clock %Ld" m.Machine.clock ]

(* ---------- sealing coherence ---------- *)

(* The same image with every leaf sum dropped: sealing it hashes every
   byte. *)
let cold (img : Images.t) =
  let a = img.Images.pages in
  { img with Images.pages = { a with leaf = Array.make (Images.slots a.Images.len) Bytesx.no_leaf } }

(* [img] seals, with the leaf sums it carries, to the frame it seals
   cold, byte for byte: a sum carried from a page whose bytes changed
   would seal a different root. *)
let sealed_coherent (img : Images.t) what =
  let cold_frame = Validate.encode_sealed (cold img) in
  if not (String.equal (Validate.encode_sealed img) cold_frame) then
    Alcotest.failf "%s: frame sealed with carried sums differs from its cold seal" what

(* Every stored image frame is the frame sealed cold from the same
   image, byte for byte. The decode verifies every byte, so a frame
   sealed with a stale sum fails there already. *)
let coherent (c : Workload.ctx) what =
  let fs = c.Workload.m.Machine.fs in
  List.iter
    (fun p ->
      if Filename.check_suffix p ".img" then begin
        let blob = Option.get (Vfs.find fs p) in
        if not (String.equal blob (Validate.encode_sealed (cold (Validate.decode_sealed blob))))
        then Alcotest.failf "%s: %s differs from its cold seal" what p
      end)
    (Vfs.list fs)

(* Every resident page of every process of [m] that keeps a leaf sum
   keeps the sum of its bytes: a store path that left a sum behind
   fails here. *)
let sums_fresh (m : Machine.t) what =
  List.iter
    (fun (p : Proc.t) ->
      Hashtbl.iter
        (fun idx (pg : Mem.page) ->
          if
            pg.Mem.pg_sum <> Bytesx.no_leaf
            && pg.Mem.pg_sum <> Bytesx.leaf (Bytes.unsafe_to_string pg.Mem.pg_data)
          then Alcotest.failf "%s: pid %d page 0x%Lx keeps a stale leaf sum" what p.Proc.pid
                 (Int64.mul idx Mem.page_size64))
        p.Proc.mem.Mem.pages)
    (Machine.all_procs m)

let leaves_hashed () = Obs.counter_value (Obs.counter "criu.leaves_hashed")

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

(* Recorded from the decoded images and the clock of the pipeline that
   sealed each frame whole: sealing page by page changes the frames'
   headers, never the images they store or the virtual clock. *)
let pinned =
  [
    "cut-first-byte /tmpfs/dynacut-100/dump-100.img 8a88bfe0debd3eabdbbd5ae6f9aa31c4";
    "cut-first-byte /tmpfs/dynacut-100/dump-101.img 37b1ea845761af56e5e6c92fea8d24bc";
    "cut-first-byte /tmpfs/dynacut-100/pristine-100.img b19f861ca9179eb7ce99a5205529ef13";
    "cut-first-byte /tmpfs/dynacut-100/pristine-101.img e159a238d7f94f65d1d0bff975f37448";
    "cut-first-byte clock 300000";
    "reenable-first-byte /tmpfs/dynacut-100/dump-100.img 0c6938e67f3e961e1abf52cafd41ec39";
    "reenable-first-byte /tmpfs/dynacut-100/dump-101.img ad6da2345db16074392b2bd4e8d2e386";
    "reenable-first-byte /tmpfs/dynacut-100/pristine-100.img 18c5a758817e37fea53eb4f2f2d60c6a";
    "reenable-first-byte /tmpfs/dynacut-100/pristine-101.img eebb35d5e5e31e8a07c77da54b5537d6";
    "reenable-first-byte clock 320000";
    "cut-wipe /tmpfs/dynacut-100/dump-100.img 574713c69341604fc7a8a71885167b89";
    "cut-wipe /tmpfs/dynacut-100/dump-101.img 54882f600470334a299f78faafd6c29d";
    "cut-wipe /tmpfs/dynacut-100/pristine-100.img 81e025ab562ca674d8870e8a3c30061a";
    "cut-wipe /tmpfs/dynacut-100/pristine-101.img 7c814cd93d1efe9f8fb57f0141209ba4";
    "cut-wipe clock 350000";
    "reenable-wipe /tmpfs/dynacut-100/dump-100.img a2e98c300f4b57e640dfda94ab10fb9c";
    "reenable-wipe /tmpfs/dynacut-100/dump-101.img 4072d3d71406baad540cea616271eeb0";
    "reenable-wipe /tmpfs/dynacut-100/pristine-100.img 81b2a273dfb2e2d99449c0a71a41ea75";
    "reenable-wipe /tmpfs/dynacut-100/pristine-101.img d1534f50ae466c1883f7c06a1044d918";
    "reenable-wipe clock 370000";
    "cut-unmap /tmpfs/dynacut-100/dump-100.img a2595983df4cdc5c92a3562da49179fc";
    "cut-unmap /tmpfs/dynacut-100/dump-101.img 87d30bf0952f50cbd53c1aee024c17e1";
    "cut-unmap /tmpfs/dynacut-100/pristine-100.img b027d6baab73d1f1541cd5f31b23ff69";
    "cut-unmap /tmpfs/dynacut-100/pristine-101.img 9fa5c65a1b567848aa0929e4ea881f57";
    "cut-unmap clock 400000";
    "reenable-unmap /tmpfs/dynacut-100/dump-100.img dff90be4b1f9d773005022885b63ddd3";
    "reenable-unmap /tmpfs/dynacut-100/dump-101.img 628a2c380b9acee3d620acddccd20f39";
    "reenable-unmap /tmpfs/dynacut-100/pristine-100.img 0bcd3f26576749e1d2e270a44f2d1f63";
    "reenable-unmap /tmpfs/dynacut-100/pristine-101.img 3193f83448b4ffb6c1ca5d08eee12432";
    "reenable-unmap clock 420000";
    "rollback /tmpfs/dynacut-100/dump-100.img dbff6e6e0e20544c488cc3d0daa7fb22";
    "rollback /tmpfs/dynacut-100/dump-101.img 2f5271a2f95ce80f89ea57ddb470288f";
    "rollback /tmpfs/dynacut-100/pristine-100.img dbff6e6e0e20544c488cc3d0daa7fb22";
    "rollback /tmpfs/dynacut-100/pristine-101.img 2f5271a2f95ce80f89ea57ddb470288f";
    "rollback clock 450000";
  ]

let test_oracle () =
  Fault.reset ();
  let c, s = boot ~seed:11 in
  let steps = ref [] in
  let record label =
    coherent c label;
    sums_fresh c.Workload.m label;
    steps := !steps @ List.map (fun l -> label ^ " " ^ l) (frames c)
  in
  List.iter
    (fun (name, method_) ->
      let journals = cut_ok s method_ in
      record ("cut-" ^ name);
      check_serving c ~cut:true name;
      sums_fresh c.Workload.m ("served after cut-" ^ name);
      reenable_ok s journals;
      record ("reenable-" ^ name);
      check_serving c ~cut:false name;
      sums_fresh c.Workload.m ("served after reenable-" ^ name))
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

(* ---------- the warm-transaction leaf gate ---------- *)

(* A warm cut reseals only what changed. After one warm-up cut of a
   booted ngx tree, a re-enable and a cut (each followed by the check
   requests) hash the head and tail of each of their 8 image frames
   (16) plus the 16 pages that stores dirtied or the rewrite edited,
   and the head and empty tail of each of their 30 journal frames (60):
   92, the count this bound was recorded at. Hashing every leaf of the
   image frames, as the whole-frame seal did, makes 1188 (8 x 141 image
   leaves, and the same 60). *)
let leaf_bound = 92

let test_leaf_gate () =
  Fault.reset ();
  let c, s = boot ~seed:42 in
  let journals = cut_ok s `First_byte in
  check_serving c ~cut:true "warm-up cut";
  let before = leaves_hashed () in
  reenable_ok s journals;
  check_serving c ~cut:false "re-enabled";
  ignore (cut_ok s `Wipe : Rewriter.journal list);
  check_serving c ~cut:true "cut";
  let hashed = leaves_hashed () - before in
  Alcotest.(check bool)
    (Printf.sprintf "re-enable + cut hashed %d leaves (bound %d)" hashed leaf_bound)
    true (hashed <= leaf_bound)

(* ---------- stored frames are never written again ---------- *)

(* A seal builds a frame in the image's own buffer, and the string it
   stores shares that buffer: a store into an image after its frame is
   stored would change the stored frame too. Through a warm first-byte,
   wipe and unmap cut and re-enable cycle, a copy of every frame is
   taken as it is stored — at the [criu.save] and [criu.load] sites
   right behind each store, through the fault delay hook — and each
   stored frame must still equal its copy at the end. *)
let test_stored_frames_unwritten () =
  Fault.reset ();
  let c, s = boot ~seed:42 in
  reenable_ok s (cut_ok s `First_byte);
  let fs = c.Workload.m.Machine.fs in
  let kept = ref [] in
  let snapshot _ =
    List.iter
      (fun p ->
        if Filename.check_suffix p ".img" then begin
          let blob = Option.get (Vfs.find fs p) in
          if not (List.exists (fun (b, _, _) -> b == blob) !kept) then
            kept := (blob, Bytes.to_string (Bytes.of_string blob), p) :: !kept
        end)
      (Vfs.list fs)
  in
  let machine_hook = !Fault.delay_hook in
  Fault.set_delay_hook (Some snapshot);
  List.iter (fun site -> Fault.arm_mode site (Fault.Every_nth 1) (Fault.Delay 1)) [ "criu.save"; "criu.load" ];
  Fun.protect
    ~finally:(fun () ->
      Fault.reset ();
      Fault.set_delay_hook machine_hook)
    (fun () ->
      List.iter
        (fun (name, method_) ->
          let journals = cut_ok s method_ in
          check_serving c ~cut:true name;
          reenable_ok s journals;
          check_serving c ~cut:false name)
        [ ("first-byte", `First_byte); ("wipe", `Wipe); ("unmap", `Unmap_pages) ]);
  List.iter
    (fun (blob, copy, p) ->
      if not (String.equal blob copy) then
        Alcotest.failf "a frame stored as %s was written after it was stored" p)
    !kept;
  (* six transactions, each storing a pristine and a working frame for
     each of two pids *)
  Alcotest.(check bool)
    (Printf.sprintf "frames kept (%d)" (List.length !kept))
    true
    (List.length !kept >= 6 * 2 * 2)

(* ---------- the redirect target ---------- *)

(* A redirect cut resolves its target from the executable once: later
   cuts reuse the session's target while the executable's contents in
   the Vfs are the same string, and a new string is resolved again, to
   the same target. *)
let test_redirect_target_kept () =
  Fault.reset ();
  let c, s = boot ~seed:42 in
  let journals = cut_ok s `First_byte in
  let first = s.Dynacut.target in
  Alcotest.(check bool) "resolved by the first cut" true (Option.is_some first);
  reenable_ok s journals;
  let journals = cut_ok s `Wipe in
  Alcotest.(check bool) "reused by the next cut" true (s.Dynacut.target == first);
  reenable_ok s journals;
  let fs = c.Workload.m.Machine.fs in
  let exe = (Machine.proc_exn c.Workload.m s.Dynacut.root_pid).Proc.exe_path in
  (* the same bytes in a new string *)
  Vfs.add fs exe (Bytes.to_string (Bytes.of_string (Option.get (Vfs.find fs exe))));
  ignore (cut_ok s `First_byte : Rewriter.journal list);
  Alcotest.(check bool) "resolved again for new contents" true (s.Dynacut.target != first);
  check_serving c ~cut:true "cut after the new contents"

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
    Alcotest.test_case "warm re-enable and cut hash few leaves" `Quick test_leaf_gate;
    Alcotest.test_case "stored frames are never written again" `Quick
      test_stored_frames_unwritten;
    Alcotest.test_case "redirect target resolved once per executable" `Quick
      test_redirect_target_kept;
    Alcotest.test_case "transient inject.policy retries from pristine" `Quick
      test_transient_retry;
    Alcotest.test_case "partial re-enable retried" `Quick test_partial_reenable_retry;
  ]
