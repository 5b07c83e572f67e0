(** How images flow through a transaction (DESIGN.md §5a): each pid's
    image is decoded at most once and sealed twice — at the dump and
    once after all edits. The census pins that structure through the
    [criu.save]/[criu.load] hit counters; the oracle pins every stored
    frame and the virtual clock across a seeded ngx session of cuts,
    re-enables and a rollback. *)

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

let header_size = String.length (Validate.seal "")

(* every file the session keeps under its tmpfs directory, each of which
   must decode, with its length, the MD5 of its payload (the frame minus
   its seal header) and the MD5 of the whole frame; then the virtual
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
      ignore (Validate.decode_sealed blob : Images.t);
      let n = String.length blob in
      Printf.sprintf "%s %d %s %s" p n
        (Digest.to_hex (Digest.substring blob header_size (n - header_size)))
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

(* Lengths, payload MD5s and clocks were recorded from a pipeline that
   unsealed and resealed the working image at every stage, under the
   byte-serial FNV-1a seal: sealing once, with the v2 checksum, must
   store the same payloads at the same lengths and leave the same
   virtual clock. The whole-frame MD5s pin the v2 seal. *)
let pinned =
  [
    "cut-first-byte /tmpfs/dynacut-100/dump-100.img 570634 e5bc4a10e37aab0c97d1defda208bb41 0a5a1cad50e0a0be9c7fadd288f601f7";
    "cut-first-byte /tmpfs/dynacut-100/dump-101.img 570626 d9fe3e5215a22bd1237ca29aee07a45d 95ae76bb8ef3db2707ca94fa627602d2";
    "cut-first-byte /tmpfs/dynacut-100/pristine-100.img 451500 9ad720c08a56f4b0e3de16812ff11c28 83e802c2826da94f6347ac80806f92fe";
    "cut-first-byte /tmpfs/dynacut-100/pristine-101.img 451492 60fddadc41c134af0ac9a4ba4889412a 93c36111ee4c10274a19d1783c3218c8";
    "cut-first-byte clock 300000";
    "reenable-first-byte /tmpfs/dynacut-100/dump-100.img 570634 c0b97103f0c2e048d5d8442cbc96cc06 f7cfac3686438db4d05ef7fa904a7d47";
    "reenable-first-byte /tmpfs/dynacut-100/dump-101.img 570626 37868fabd7dd4bdc93f247482eee0a47 9e7f4add205dcf783401d918b1f02a3c";
    "reenable-first-byte /tmpfs/dynacut-100/pristine-100.img 570634 60baa86b2d808c6d9ba7ce1fcb3b54ee 68bf3bc52910783f87705a06ccf67045";
    "reenable-first-byte /tmpfs/dynacut-100/pristine-101.img 570626 e104f0ddeabe7359afb48fe00d6d7d56 f081ebd577e989fe258245f24b418cc1";
    "reenable-first-byte clock 320000";
    "cut-wipe /tmpfs/dynacut-100/dump-100.img 570634 d3d1579a440fe076e9da469ff538d6fc 901456dacd33ae81cc4e0a294cdb226b";
    "cut-wipe /tmpfs/dynacut-100/dump-101.img 570626 475da24b1e8ef8bbbdfa338ff32cbd29 f204ae336568c4f08ecc4a251fa0c691";
    "cut-wipe /tmpfs/dynacut-100/pristine-100.img 570634 88034687562bb965feb6d0e43bdc6921 2769be0dd3d0e991d6a0ef50bf144fc4";
    "cut-wipe /tmpfs/dynacut-100/pristine-101.img 570626 76c7e4bb254f810071bbcbe4dd860262 1258afbd3561a450bc325b740415a218";
    "cut-wipe clock 350000";
    "reenable-wipe /tmpfs/dynacut-100/dump-100.img 570634 064d2fa693d14f7ec7ed4deeb3c573f5 9f6817e1e78b63fe395d8b28298125b7";
    "reenable-wipe /tmpfs/dynacut-100/dump-101.img 570626 4dead1030c8eeca7a941078cc2e8e6d2 5d66dbdc0b86b3492c7258d98a129ddc";
    "reenable-wipe /tmpfs/dynacut-100/pristine-100.img 570634 bed814df5a391dc5473b15a2b7f23cda d2f490a623ecfbaf7006f3a6ce77647a";
    "reenable-wipe /tmpfs/dynacut-100/pristine-101.img 570626 856f84ae7a6b0ca12ce1f975c936eaf3 e79c72eec76b8d36eb7319c5ee3f0799";
    "reenable-wipe clock 370000";
    "cut-unmap /tmpfs/dynacut-100/dump-100.img 570634 429eaea25b97ef8a5cb8708dd88f9416 c3383dcc2b3fddd47b18795d62f83c6b";
    "cut-unmap /tmpfs/dynacut-100/dump-101.img 570626 29626a8c67c8d75aef72343a39996903 9988d8c47e4ad9bcd166ac267a118f27";
    "cut-unmap /tmpfs/dynacut-100/pristine-100.img 570634 d58074a42880bcd2c9375604d4ee20e9 60cbb31d0cebecf19cc0bc1eaf618b9c";
    "cut-unmap /tmpfs/dynacut-100/pristine-101.img 570626 c4ce0bf838ccf2e3cee287664e031332 23f685fe896607ae660e90638e8969e7";
    "cut-unmap clock 400000";
    "reenable-unmap /tmpfs/dynacut-100/dump-100.img 570634 b46734a0f38480a7b319f373db6dd72b 9c80bd07f7971d067a6a6492c15a9a88";
    "reenable-unmap /tmpfs/dynacut-100/dump-101.img 570626 a084a8a0b2b2d3055543174e3651d7dc 8b197b51d20f2a60cd452b0a1f4ae4bf";
    "reenable-unmap /tmpfs/dynacut-100/pristine-100.img 570634 b0419efc9d5c0ec7bb10f6f58e53ca1a 22dd41e66ddf66af2db0aae33048a83d";
    "reenable-unmap /tmpfs/dynacut-100/pristine-101.img 570626 48338bbb66f11be3016062d941f777e9 e49e2515c67b13ddf83c349c205c2ec4";
    "reenable-unmap clock 420000";
    "rollback /tmpfs/dynacut-100/dump-100.img 570634 58b51f3f702bbecc73f41b0b02894ca4 ebe45d7d1377d8d88dd8a7ca04e81830";
    "rollback /tmpfs/dynacut-100/dump-101.img 570626 9b6ce12d57acd1d32eb892f1eddfbd08 b91337838f41fb90b0d9a6ef9c9aad3e";
    "rollback /tmpfs/dynacut-100/pristine-100.img 570634 58b51f3f702bbecc73f41b0b02894ca4 ebe45d7d1377d8d88dd8a7ca04e81830";
    "rollback /tmpfs/dynacut-100/pristine-101.img 570626 9b6ce12d57acd1d32eb892f1eddfbd08 b91337838f41fb90b0d9a6ef9c9aad3e";
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
