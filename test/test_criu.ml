(** Checkpoint/restore tests: dump/restore fidelity, serialization
    roundtrips, CRIT text codec, TCP repair, and the vanilla-vs-DynaCut
    page-dumping distinction from paper §3.3. *)

open Dsl

let libc = Test_machine.libc

(* A little stateful server: counts requests, answers "pong<N>". *)
let pong_server =
  unit_ "pong"
    ~globals:[ global_q "count" [ 0L ]; global_zero "rbuf" 128; global_zero "obuf" 128 ]
    [
      func "main" []
        [
          decl "sfd" (call "socket" []);
          do_ "bind" [ v "sfd"; i 9100 ];
          do_ "listen" [ v "sfd" ];
          forever
            [
              decl "c" (call "accept" [ v "sfd" ]);
              decl "n" (call "recv" [ v "c"; addr "rbuf"; i 128 ]);
              when_ (v "n" >: i 0)
                [
                  set "count" (v "count" +: i 1);
                  do_ "strcpy" [ addr "obuf"; s "pong" ];
                  do_ "itoa" [ addr "obuf" +: i 4; v "count" ];
                  do_ "send" [ v "c"; addr "obuf"; call "strlen" [ addr "obuf" ] ];
                ];
              do_ "close" [ v "c" ];
            ];
          ret0;
        ];
    ]

let boot_server () =
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  Vfs.add_self m.Machine.fs "pong" (Crt0.link_app ~libc pong_server);
  let p = Machine.spawn m ~exe_path:"pong" () in
  (match Machine.run m ~max_cycles:2_000_000 with
  | `Idle -> ()
  | _ -> Alcotest.fail "server failed to reach accept");
  (m, p)

let request m text =
  let c = Net.connect m.Machine.net 9100 in
  Net.client_send c text;
  let (_ : _) = Machine.run m ~max_cycles:2_000_000 in
  Net.client_recv c

let test_dump_restore_identity () =
  let m, p = boot_server () in
  Alcotest.(check string) "before" "pong1" (request m "hi");
  Machine.freeze m ~pid:p.Proc.pid;
  let img = Checkpoint.dump m ~pid:p.Proc.pid () in
  (* restore must reproduce registers and memory exactly *)
  Machine.reap m ~pid:p.Proc.pid;
  let p' = Restore.restore m img in
  Alcotest.(check int) "pid" p.Proc.pid p'.Proc.pid;
  Alcotest.(check int64) "rip" (Proc.rip p.Proc.regs) (Proc.rip p'.Proc.regs);
  List.iter
    (fun r ->
      Alcotest.(check int64)
        (Printf.sprintf "gpr%d" (Reg.to_int r))
        (Proc.gpr p.Proc.regs r) (Proc.gpr p'.Proc.regs r))
    Reg.all;
  Alcotest.(check int) "vma count" (List.length p.Proc.mem.Mem.vmas)
    (List.length p'.Proc.mem.Mem.vmas);
  (* every mapped byte equal *)
  List.iter
    (fun (v : Mem.vma) ->
      List.iter
        (fun (vaddr, data) ->
          let data' = Mem.peek_bytes p'.Proc.mem vaddr (Bytes.length data) in
          if not (Bytes.equal data data') then
            Alcotest.failf "page at 0x%Lx differs after restore" vaddr)
        (Mem.pages_of_vma p.Proc.mem v))
    p.Proc.mem.Mem.vmas;
  (* and the restored process still serves, with its counter intact *)
  Alcotest.(check string) "after restore" "pong2" (request m "hi again")

let test_binary_codec_roundtrip () =
  let m, p = boot_server () in
  let _ = request m "x" in
  Machine.freeze m ~pid:p.Proc.pid;
  let img = Checkpoint.dump m ~pid:p.Proc.pid () in
  let img' = Images.decode (Images.encode img) in
  Alcotest.(check string) "re-encode identical" (Images.encode img) (Images.encode img');
  Alcotest.(check int) "vmas" (List.length img.Images.mm) (List.length img'.Images.mm);
  Alcotest.(check bool) "pages" true (Bytes.equal img.Images.pages img'.Images.pages)

let test_crit_text_roundtrip () =
  let m, p = boot_server () in
  let _ = request m "x" in
  Machine.freeze m ~pid:p.Proc.pid;
  let img = Checkpoint.dump m ~pid:p.Proc.pid () in
  let blob = Images.encode img in
  let text = Crit.decode_to_text blob in
  let blob' = Crit.encode_from_text text in
  Alcotest.(check string) "crit decode/encode roundtrip" blob blob'

let test_crit_show_mems () =
  let m, p = boot_server () in
  Machine.freeze m ~pid:p.Proc.pid;
  let img = Checkpoint.dump m ~pid:p.Proc.pid () in
  let s = Crit.show_mems img in
  let contains sub str =
    let n = String.length sub and m = String.length str in
    let rec go i = i + n <= m && (String.sub str i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has pong:.text" true (contains "pong:.text" s);
  Alcotest.(check bool) "has stack" true (contains "[stack]" s)

let test_tcp_repair_mid_request () =
  (* connect, send half a request, checkpoint+restore, send the rest *)
  let m, p = boot_server () in
  let c = Net.connect m.Machine.net 9100 in
  (* let the server accept the connection and block in recv *)
  let (_ : _) = Machine.run m ~max_cycles:500_000 in
  Machine.freeze m ~pid:p.Proc.pid;
  let img = Checkpoint.dump m ~pid:p.Proc.pid () in
  Machine.reap m ~pid:p.Proc.pid;
  let (_ : Proc.t) = Restore.restore m img in
  (* client was never disturbed; finish the request *)
  Net.client_send c "ping";
  let (_ : _) = Machine.run m ~max_cycles:2_000_000 in
  Alcotest.(check string) "served across restore" "pong1" (Net.client_recv c)

let test_vanilla_mode_drops_code_patches () =
  (* the paper's motivating CRIU fix: vanilla CRIU does not dump
     file-backed executable pages, so an int3 patch written into the
     image is lost on restore (code faults back in from the binary) *)
  let m, p = boot_server () in
  Machine.freeze m ~pid:p.Proc.pid;
  let exe_self = Option.get (Vfs.find_self m.Machine.fs "pong") in
  let main_off = (Option.get (Self.find_symbol exe_self "main")).Self.sym_off in
  let main_va = Int64.add exe_self.Self.base (Int64.of_int main_off) in
  let orig_byte = Mem.peek8 p.Proc.mem main_va in
  (* vanilla dump: code pages not in the image *)
  let img_v = Checkpoint.dump m ~pid:p.Proc.pid ~mode:Checkpoint.Vanilla () in
  Alcotest.check_raises "code pages not dumped" Not_found (fun () ->
      ignore (Images.read_mem img_v main_va 1));
  (* dynacut dump: they are, and patches survive restore *)
  let img_d = Checkpoint.dump m ~pid:p.Proc.pid ~mode:Checkpoint.Dynacut () in
  Images.write_mem img_d main_va (Bytes.make 1 '\xCC');
  Machine.reap m ~pid:p.Proc.pid;
  let p' = Restore.restore m img_d in
  Alcotest.(check int) "int3 survived dynacut restore" 0xCC (Mem.peek8 p'.Proc.mem main_va);
  (* restoring the vanilla image instead brings the original byte back *)
  Machine.reap m ~pid:p'.Proc.pid;
  let p'' = Restore.restore m img_v in
  Alcotest.(check int) "vanilla restore faults code from file" orig_byte
    (Mem.peek8 p''.Proc.mem main_va)

let test_dump_tree_multiprocess () =
  let forker =
    unit_ "forker"
      [
        func "main" []
          [
            decl "pid" (call "fork" []);
            if_ (v "pid" ==: i 0)
              [ do_ "nanosleep" [ i 1000000 ]; ret0 ]
              [ do_ "nanosleep" [ i 1000000 ]; ret0 ];
          ];
      ]
  in
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" libc;
  Vfs.add_self m.Machine.fs "forker" (Crt0.link_app ~libc forker);
  let p = Machine.spawn m ~exe_path:"forker" () in
  (* run a little: fork happens, then both sleep *)
  let (_ : _) = Machine.run m ~max_cycles:20_000 in
  let imgs = Checkpoint.dump_tree m ~root:p.Proc.pid () in
  Alcotest.(check int) "two processes dumped" 2 (List.length imgs)

let test_image_read_write_mem () =
  let m, p = boot_server () in
  Machine.freeze m ~pid:p.Proc.pid;
  let img = Checkpoint.dump m ~pid:p.Proc.pid () in
  let exe_self = Option.get (Vfs.find_self m.Machine.fs "pong") in
  let main_va =
    Int64.add exe_self.Self.base
      (Int64.of_int (Option.get (Self.find_symbol exe_self "main")).Self.sym_off)
  in
  let before = Images.read_mem img main_va 4 in
  Images.write_mem img main_va (Bytes.of_string "\xCC\xCC\xCC\xCC");
  Alcotest.(check string) "written" "cccccccc"
    (Bytesx.hex_of_string (Bytes.to_string (Images.read_mem img main_va 4)));
  Images.write_mem img main_va before;
  Alcotest.(check bool) "restored" true (Bytes.equal before (Images.read_mem img main_va 4))

(* unseal_frames edge cases: the journal reader must keep exactly the
   valid prefix and report everything else as a located torn tail *)
let test_unseal_frames_edges () =
  let tear_kind =
    Alcotest.testable
      (fun ppf k -> Format.pp_print_string ppf (Validate.tear_kind_to_string k))
      ( = )
  in
  (* empty file: no frames, not torn — a journal that was never written *)
  let frames, tear = Validate.unseal_frames "" in
  Alcotest.(check (list string)) "empty file has no frames" [] frames;
  Alcotest.(check bool) "empty file is not torn" true (tear = None);
  (* duplicate frame: concatenation is dumb, both copies come back *)
  let f = Validate.seal "payload-a" in
  let frames, tear = Validate.unseal_frames (f ^ f) in
  Alcotest.(check (list string))
    "duplicate frame kept twice"
    [ "payload-a"; "payload-a" ] frames;
  Alcotest.(check bool) "duplicates are not torn" true (tear = None);
  (* garbage after a valid prefix: prefix kept, tear locates the frame
     boundary where the garbage starts and names the kind (too short for
     a header → truncated) *)
  let g = Validate.seal "payload-b" in
  let frames, tear = Validate.unseal_frames (f ^ g ^ "garbage tail") in
  Alcotest.(check (list string))
    "valid prefix survives garbage"
    [ "payload-a"; "payload-b" ] frames;
  (match tear with
  | None -> Alcotest.fail "garbage tail must tear"
  | Some t ->
      Alcotest.(check int)
        "tear offset is the start of the garbage"
        (String.length f + String.length g)
        t.Validate.t_offset;
      Alcotest.check tear_kind "short tail reads as truncated"
        Validate.Truncated t.Validate.t_kind);
  (* a frame whose checksum lies also ends the prefix, located at the
     mangled frame's start *)
  let mangled = Bytes.of_string (Validate.seal "payload-c") in
  Bytes.set mangled (Bytes.length mangled - 1) '\xFF';
  let frames, tear = Validate.unseal_frames (f ^ Bytes.to_string mangled) in
  Alcotest.(check (list string))
    "checksum mismatch ends the prefix" [ "payload-a" ] frames;
  (match tear with
  | None -> Alcotest.fail "checksum mismatch must tear"
  | Some t ->
      Alcotest.(check int)
        "tear offset is the mangled frame's start" (String.length f)
        t.Validate.t_offset;
      Alcotest.check tear_kind "kind is checksum-mismatch"
        Validate.Checksum_mismatch t.Validate.t_kind);
  (* a full-sized frame of wrong magic tears as bad-magic at its start *)
  let junk_header = String.make (String.length f) 'Z' in
  let frames, tear = Validate.unseal_frames (f ^ junk_header) in
  Alcotest.(check (list string)) "prefix kept before bad magic" [ "payload-a" ] frames;
  (match tear with
  | None -> Alcotest.fail "bad magic must tear"
  | Some t ->
      Alcotest.(check int) "bad-magic offset" (String.length f) t.Validate.t_offset;
      Alcotest.check tear_kind "kind is bad-magic" Validate.Bad_magic
        t.Validate.t_kind)

(* unseal error messages carry the failure kind and a byte offset, so a
   corrupt image on the tmpfs is diagnosable from the exception alone *)
let test_unseal_error_offsets () =
  let msg_of blob =
    match Validate.unseal blob with
    | (_ : string) -> Alcotest.fail "unseal accepted a corrupt blob"
    | exception Validate.Validate_error m -> m
  in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  (* short blob: truncated at its own length *)
  let m = msg_of "abc" in
  Alcotest.(check bool)
    (Printf.sprintf "short blob names truncation (%s)" m)
    true
    (contains m "truncated at byte 3");
  (* wrong magic: bad-magic at byte 0 *)
  let m = msg_of (String.make 64 'Z') in
  Alcotest.(check bool)
    (Printf.sprintf "wrong magic located at 0 (%s)" m)
    true
    (contains m "bad-magic at byte 0");
  (* flipped payload byte: checksum mismatch at the payload start *)
  let sealed = Bytes.of_string (Validate.seal "payload") in
  Bytes.set sealed (Bytes.length sealed - 1) '\xFF';
  let m = msg_of (Bytes.to_string sealed) in
  Alcotest.(check bool)
    (Printf.sprintf "checksum mismatch locates the payload (%s)" m)
    true
    (contains m "checksum-mismatch at byte 21")

let suite =
  [
    Alcotest.test_case "dump/restore identity" `Quick test_dump_restore_identity;
    Alcotest.test_case "unseal_frames edge cases" `Quick
      test_unseal_frames_edges;
    Alcotest.test_case "unseal error offsets" `Quick test_unseal_error_offsets;
    Alcotest.test_case "binary codec roundtrip" `Quick test_binary_codec_roundtrip;
    Alcotest.test_case "CRIT text roundtrip" `Quick test_crit_text_roundtrip;
    Alcotest.test_case "CRIT mems listing" `Quick test_crit_show_mems;
    Alcotest.test_case "TCP repair mid-request" `Quick test_tcp_repair_mid_request;
    Alcotest.test_case "vanilla CRIU drops code patches" `Quick test_vanilla_mode_drops_code_patches;
    Alcotest.test_case "multi-process dump" `Quick test_dump_tree_multiprocess;
    Alcotest.test_case "image read/write mem" `Quick test_image_read_write_mem;
  ]
