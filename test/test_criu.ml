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
        (fun (vaddr, pg) ->
          let data = pg.Mem.pg_data in
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
  Alcotest.(check bool) "pages" true (Bytes.equal (Images.page_bytes img) (Images.page_bytes img'))

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

(* Restoring an image older than a close. The kernel forgot the closed
   connection, so TCP repair re-creates it from the image for the
   restored process, which waits in recv on it again. The client's own
   connection is left alone: it keeps the reply it got, stays closed,
   and the request is not served twice. *)
let test_tcp_repair_after_close () =
  let m, p = boot_server () in
  let c = Net.connect m.Machine.net 9100 in
  let (_ : _) = Machine.run m ~max_cycles:500_000 in
  Machine.freeze m ~pid:p.Proc.pid;
  let img = Checkpoint.dump m ~pid:p.Proc.pid () in
  Machine.thaw m ~pid:p.Proc.pid;
  Net.client_send c "ping";
  let (_ : _) = Machine.run m ~max_cycles:2_000_000 in
  Alcotest.(check string) "served before the restore" "pong1" (Net.client_recv c);
  Alcotest.(check bool) "server closed it" true c.Net.server_closed;
  Alcotest.(check bool) "kernel forgot it" true
    (Option.is_none (Net.find_conn m.Machine.net c.Net.conn_id));
  Machine.freeze m ~pid:p.Proc.pid;
  Machine.reap m ~pid:p.Proc.pid;
  let p' = Restore.restore m img in
  let (_ : _) = Machine.run m ~max_cycles:2_000_000 in
  Alcotest.(check string) "nothing new reaches the client" "" (Net.client_recv c);
  Alcotest.(check bool) "client's connection stays closed" true c.Net.server_closed;
  (match Net.find_conn m.Machine.net c.Net.conn_id with
  | Some c' ->
      Alcotest.(check bool) "a re-created object, not the client's" false (c' == c);
      Alcotest.(check bool) "open again for the restored process" false c'.Net.server_closed;
      Alcotest.(check int) "its queue is the image's: empty" 0 (Net.server_pending c')
  | None -> Alcotest.fail "TCP repair did not re-create the connection");
  Alcotest.(check string) "restored process waits in recv" "blocked(recv fd=4)"
    (Proc.state_to_string p'.Proc.state)

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
    (contains m "checksum-mismatch at byte 37");
  (* the length is a u64: with bit 63 set it is past the end, not the
     63-bit int that drops that bit *)
  let sealed = Bytes.of_string (Validate.seal "payload") in
  Bytes.set sealed 12 '\x80';
  let m = msg_of (Bytes.to_string sealed) in
  Alcotest.(check bool)
    (Printf.sprintf "length with bit 63 set is truncation (%s)" m)
    true
    (contains m "truncated at byte 44");
  (* a page area that does not fit the payload is caught before any
     leaf is hashed, and located at the header field *)
  let sealed = Bytes.of_string (Validate.seal "payload") in
  Bytes.set sealed 21 '\x08';
  let m = msg_of (Bytes.to_string sealed) in
  Alcotest.(check bool)
    (Printf.sprintf "page area past the payload is a mismatch (%s)" m)
    true
    (contains m "checksum-mismatch at byte 21: page area 8+0")

(* ---------- the seal format, pinned ---------- *)

let header_size = String.length (Validate.seal "")

(* a frozen rkv dump, the workload of the seal pins below *)
let rkv_dump () =
  let c = Workload.boot Workload.rkv in
  Machine.freeze c.Workload.m ~pid:c.Workload.pid;
  Checkpoint.dump c.Workload.m ~pid:c.Workload.pid ()

(* Sealed bytes are storage: pristine and working images, the journal,
   its lock. The payload (the frame minus its header) is the encoding
   of the frozen rkv dump, which holds the pages rkv touched, less its
   all-zero anonymous ones; the whole frame is pinned at the v3 (page-granular) seal. *)
let test_seal_format_pinned () =
  Alcotest.(check string)
    "seal \"payload\"" "4443434b030700000000000000b8b16c5fbac18c0e070000000000000000000000000000007061796c6f6164"
    (Bytesx.hex_of_string (Validate.seal "payload"));
  let blob = Validate.encode_sealed (rkv_dump ()) in
  Alcotest.(check int) "sealed rkv dump length" 70620 (String.length blob);
  Alcotest.(check string)
    "sealed rkv dump payload digest" "4b850e872964f7260db7b8b1edddd9e2"
    (Digest.to_hex (Digest.substring blob header_size (String.length blob - header_size)));
  Alcotest.(check string)
    "sealed rkv dump digest" "d0773ca5cb67c74838a7ed717098bd92"
    (Digest.to_hex (Digest.string blob));
  let decoded = Validate.decode_sealed blob in
  let hashed () = Obs.counter_value (Obs.counter "criu.leaves_hashed") in
  let before = hashed () in
  Alcotest.(check string)
    "unseal . decode . encode . seal is the identity" blob (Validate.encode_sealed decoded);
  Alcotest.(check int) "the decoded image keeps the verified page leaves: head and tail alone"
    2 (hashed () - before);
  Alcotest.(check string)
    "unseal . encode_sealed is encode" (Images.encode decoded) (Validate.unseal blob);
  (* a version-2 frame (magic DCCK\x02) is not read as a version-3 one *)
  let v2 = Bytes.of_string (Validate.seal "payload") in
  Bytes.set v2 4 '\x02';
  match Validate.unseal_frames (Bytes.to_string v2) with
  | [], Some { Validate.t_offset = 0; t_kind = Validate.Bad_magic } -> ()
  | _ -> Alcotest.fail "a version-2 frame must tear as bad-magic"

(* Storage corruption as the [Corrupt] fault mode makes it: 100k seeded
   Fault.mangle passes over one sealed 4 KiB frame (a truncation, or 1-3
   bit flips). Every pass that changed the frame must fail the seal
   check; a pass whose flips cancelled out left the frame intact. *)
let test_seal_catches_mangling () =
  let frame = Validate.seal (String.init 4096 (fun i -> Char.chr ((i * 131) land 0xff))) in
  Fault.seed 2026;
  let intact = ref 0 in
  for k = 1 to 100_000 do
    let m = Fault.mangle frame in
    if String.equal m frame then incr intact
    else
      match Validate.unseal m with
      | (_ : string) -> Alcotest.failf "mangled frame %d passed the seal check" k
      | exception Validate.Validate_error _ -> ()
  done;
  Fault.reset ();
  Alcotest.(check bool)
    (Printf.sprintf "nearly every pass corrupts (%d intact)" !intact)
    true (!intact < 100)

(* a header that honestly seals only a prefix of an encoded image, with
   the rest of the image appended after the frame: the decoder is
   bounded to the sealed payload, so it runs out of bytes and the load
   fails cleanly; an unbounded reader would decode the whole image *)
let test_decode_sealed_is_bounded () =
  let enc = Images.encode (rkv_dump ()) in
  let cut = String.length enc / 2 in
  let blob =
    Validate.seal (String.sub enc 0 cut) ^ String.sub enc cut (String.length enc - cut)
  in
  (* the whole image really is there to be decoded *)
  ignore (Images.decode ~off:header_size blob);
  match Validate.decode_sealed blob with
  | (_ : Images.t) -> Alcotest.fail "decoded past the sealed payload"
  | exception Validate.Validate_error _ -> ()

(* unseal_frames reads each header where it lies: a long log with a
   torn tail keeps every frame and locates the tear *)
let test_unseal_frames_long_log () =
  let frames =
    List.init 2000 (fun k -> Printf.sprintf "entry-%d-%s" k (String.make (k mod 37) 'x'))
  in
  let log = String.concat "" (List.map Validate.seal frames) in
  let torn = Validate.seal "the last entry, torn" in
  let got, tear = Validate.unseal_frames (log ^ String.sub torn 0 (String.length torn - 3)) in
  Alcotest.(check (list string)) "every whole frame" frames got;
  match tear with
  | Some { Validate.t_offset; t_kind = Validate.Truncated } ->
      Alcotest.(check int) "tear at the torn frame's start" (String.length log) t_offset
  | _ -> Alcotest.fail "torn tail not reported as truncated"

(* ---------- all-zero anonymous pages ---------- *)

(* A dump stores no all-zero page of an anonymous VMA, and keeps every
   other resident page: a non-zero anonymous one, and a zero page of a
   file-backed VMA, whose restore would otherwise fill it from the
   file's non-zero bytes. After the restore the left-out page is
   untouched: it reads zero, and one store makes exactly that page,
   with its VMA's protection. *)
let test_dump_leaves_zero_anon_pages_out () =
  let m, p = boot_server () in
  let mem = p.Proc.mem in
  let ps = Mem.page_size in
  let anon = Mem.find_free mem ~hint:0x5000_0000L ~len:(3 * ps) in
  ignore (Mem.map mem ~vaddr:anon ~len:(3 * ps) ~prot:Self.prot_rw ~name:"[anon]" ());
  let page k = Int64.add anon (Int64.of_int (k * ps)) in
  (* page 0: resident, all zero; page 1: resident, one non-zero byte;
     page 2: untouched *)
  Mem.poke_bytes mem (page 0) (Bytes.make ps '\x00');
  Mem.poke8 mem (Int64.add (page 1) 100L) 0x2a;
  let file = Mem.find_free mem ~hint:0x5100_0000L ~len:ps in
  Vfs.add_self m.Machine.fs "zeroed.so"
    {
      Self.name = "zeroed.so";
      kind = Self.Dyn;
      entry = 0;
      base = 0L;
      sections =
        [ { Self.sec_name = ".rodata"; sec_off = 0; sec_data = Bytes.make ps '\x5a';
            sec_prot = Self.prot_of_int 4 } ];
      symbols = [];
      dynrelocs = [];
      needed = [];
      plt = [];
      got = [];
    };
  ignore
    (Mem.map mem ~vaddr:file ~len:ps ~prot:(Self.prot_of_int 4) ~file:(Some ("zeroed.so", 0))
       ~name:"zeroed.so:.rodata" ());
  Mem.poke_bytes mem file (Bytes.make ps '\x00');
  Machine.freeze m ~pid:p.Proc.pid;
  let img = Checkpoint.dump m ~pid:p.Proc.pid () in
  let stored va =
    List.exists
      (fun (pm : Images.pagemap_entry) ->
        va >= pm.Images.pm_vaddr
        && va < Int64.add pm.Images.pm_vaddr (Int64.of_int (pm.Images.pm_npages * ps)))
      img.Images.pagemap
  in
  Alcotest.(check bool) "zero anonymous page left out" false (stored (page 0));
  Alcotest.(check bool) "non-zero anonymous page kept" true (stored (page 1));
  Alcotest.(check bool) "untouched page left out" false (stored (page 2));
  Alcotest.(check bool) "zero file-backed page kept" true (stored file);
  Alcotest.(check string) "left-out page reads zero in the image"
    (String.make 8 '\x00') (Bytes.to_string (Images.read_mem img (page 0) 8));
  Machine.reap m ~pid:p.Proc.pid;
  let q = Restore.restore m img in
  let mem' = q.Proc.mem in
  let resident () = Hashtbl.fold (fun idx _ acc -> idx :: acc) mem'.Mem.pages [] |> List.sort compare in
  Alcotest.(check bool) "left-out page untouched after the restore" false
    (Hashtbl.mem mem'.Mem.pages (Mem.page_index (page 0)));
  Alcotest.(check int) "non-zero byte restored" 0x2a (Mem.peek8 mem' (Int64.add (page 1) 100L));
  Alcotest.(check int) "file-backed page restored as zeros, not from the file" 0 (Mem.peek8 mem' file);
  Alcotest.(check int) "left-out page reads zero" 0 (Mem.peek8 mem' (Int64.add (page 0) 7L));
  let before = resident () in
  Mem.write8 mem' (Int64.add (page 0) 9L) 0x11;
  Alcotest.(check (list int64)) "one store makes exactly that page"
    (List.sort compare (Mem.page_index (page 0) :: before)) (resident ());
  let pg = Hashtbl.find mem'.Mem.pages (Mem.page_index (page 0)) in
  Alcotest.(check bool) "with its VMA's protection" true (pg.Mem.pg_prot = Self.prot_rw);
  Alcotest.(check int) "the store reads back" 0x11 (Mem.read8 mem' (Int64.add (page 0) 9L))

(* ---------- read_mem / write_mem against the per-byte reference ---------- *)

(* the original implementation: every (pagemap run, byte) pair *)
let old_read_mem (t : Images.t) (addr : int64) (len : int) : bytes =
  let out = Bytes.create len in
  let got = ref 0 in
  List.iter
    (fun (pm : Images.pagemap_entry) ->
      let run_start = pm.Images.pm_vaddr in
      let run_len = pm.Images.pm_npages * Images.page_size in
      let run_end = Int64.add run_start (Int64.of_int run_len) in
      for k = 0 to len - 1 do
        let a = Int64.add addr (Int64.of_int k) in
        if a >= run_start && a < run_end then begin
          let off = pm.Images.pm_off + Int64.to_int (Int64.sub a run_start) in
          Bytes.set out k (Bytes.get t.Images.pages.Images.buf (t.Images.pages.Images.off + off));
          incr got
        end
      done)
    t.Images.pagemap;
  if !got < len then raise Not_found;
  out

let old_write_mem (t : Images.t) (addr : int64) (data : bytes) : unit =
  let len = Bytes.length data in
  let written = Array.make len false in
  List.iter
    (fun (pm : Images.pagemap_entry) ->
      let run_start = pm.Images.pm_vaddr in
      let run_len = pm.Images.pm_npages * Images.page_size in
      let run_end = Int64.add run_start (Int64.of_int run_len) in
      for k = 0 to len - 1 do
        let a = Int64.add addr (Int64.of_int k) in
        if a >= run_start && a < run_end then begin
          let off = pm.Images.pm_off + Int64.to_int (Int64.sub a run_start) in
          Bytes.set t.Images.pages.Images.buf (t.Images.pages.Images.off + off) (Bytes.get data k);
          written.(k) <- true
        end
      done)
    t.Images.pagemap;
  if Array.exists not written then raise Not_found

let image_base = 0x400000L

(* runs of [npages] after [gap] unpopulated pages (a gap of 0 makes two
   adjacent runs), listed and laid out in [pages] in a shuffled order *)
let synthetic_image rng (runs : (int * int) list) : Images.t =
  let ps = Images.page_size in
  let _, placed =
    List.fold_left
      (fun (page, acc) (gap, npages) -> (page + gap + npages, (page + gap, npages) :: acc))
      (0, []) runs
  in
  let shuffled =
    List.map (fun r -> (Random.State.bits rng, r)) placed |> List.sort compare |> List.map snd
  in
  let _, pagemap =
    List.fold_left
      (fun (off, acc) (page, npages) ->
        ( off + (npages * ps),
          {
            Images.pm_vaddr = Int64.add image_base (Int64.of_int (page * ps));
            pm_npages = npages;
            pm_off = off;
          }
          :: acc ))
      (0, []) shuffled
  in
  let total = List.fold_left (fun n (_, np) -> n + (np * ps)) 0 runs in
  let pages = Bytes.init total (fun _ -> Char.chr (Random.State.int rng 256)) in
  {
    Images.core =
      {
        Images.c_pid = 1;
        c_parent = 0;
        c_comm = "synthetic";
        c_exe = "synthetic";
        c_regs = { Images.r_gpr = Array.make 16 0L; r_rip = 0L; r_flags = 0 };
        c_sigactions = [];
        c_state = "runnable";
        c_seccomp = None;
      };
    mm = [];
    pagemap;
    pages = Images.area_of_bytes pages;
    files = { Images.f_fds = []; f_next_fd = 3 };
    tcp = [];
    mmap_hint = 0L;
  }

let arb_mem_case =
  QCheck.(
    quad
      (list_of_size Gen.(1 -- 5) (pair (int_bound 2) (int_range 1 3)))
      int (int_bound (20 * 4096)) (int_bound (3 * 4096)))

let outcome f = match f () with v -> Ok v | exception Not_found -> Error ()

let prop_read_write_mem_reference =
  QCheck.Test.make ~name:"read_mem/write_mem = per-byte reference" ~count:300 arb_mem_case
    (fun (runs, seed, start, len) ->
      let rng = Random.State.make [| seed |] in
      let img = synthetic_image rng runs in
      (* ranges start up to a page before the first run, so they straddle
         holes, run edges and the image's ends *)
      let addr = Int64.add image_base (Int64.of_int (start - Images.page_size)) in
      let reads_agree =
        outcome (fun () -> Images.read_mem img addr len)
        = outcome (fun () -> old_read_mem img addr len)
      in
      let data = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
      (* the new implementation writes an area laid out inside a frame,
         at an offset of its buffer *)
      let img_new = Images.relayout ~reserve:Validate.header_size img in
      let img_old = Images.copy img in
      let w_new = outcome (fun () -> Images.write_mem img_new addr data) in
      let w_old = outcome (fun () -> old_write_mem img_old addr data) in
      reads_agree && w_new = w_old
      &&
      (* a write that raises leaves the image untouched *)
      match w_new with
      | Ok () -> Bytes.equal (Images.page_bytes img_new) (Images.page_bytes img_old)
      | Error () -> Bytes.equal (Images.page_bytes img_new) (Images.page_bytes img))

(* Over an anonymous VMA a page the image lacks reads zero, and a write
   that puts a non-zero byte in one adds exactly that page: the image
   then reads as the range's bytes with the write applied, and each
   added slot holds a non-zero byte. Half the writes are all zeros,
   which add no page. *)
let prop_read_write_mem_anonymous =
  QCheck.Test.make ~name:"read_mem/write_mem read and add zero pages of anonymous VMAs" ~count:300
    arb_mem_case (fun (runs, seed, start, len) ->
      let ps = Images.page_size in
      let rng = Random.State.make [| seed |] in
      let lo = Int64.sub image_base (Int64.of_int ps) and span = 32 * ps in
      let img =
        {
          (synthetic_image rng runs) with
          Images.mm =
            [ { Images.vi_start = lo; vi_len = span; vi_prot = 3; vi_file = None; vi_name = "[anon]" } ];
        }
      in
      let rel a = Int64.to_int (Int64.sub a lo) in
      (* the reference: the runs' bytes where they lie, zero elsewhere *)
      let model = Bytes.make span '\x00' in
      let a = img.Images.pages in
      List.iter
        (fun (pm : Images.pagemap_entry) ->
          Bytes.blit a.Images.buf (a.Images.off + pm.Images.pm_off) model (rel pm.Images.pm_vaddr)
            (pm.Images.pm_npages * ps))
        img.Images.pagemap;
      let stored va =
        List.exists
          (fun (pm : Images.pagemap_entry) ->
            va >= pm.Images.pm_vaddr
            && va < Int64.add pm.Images.pm_vaddr (Int64.of_int (pm.Images.pm_npages * ps)))
          img.Images.pagemap
      in
      let addr = Int64.add image_base (Int64.of_int (start - ps)) in
      let reads_agree = Bytes.equal (Images.read_mem img addr len) (Bytes.sub model (rel addr) len) in
      let data =
        if seed land 1 = 0 then Bytes.make len '\x00'
        else Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256))
      in
      (* the pages the write must add *)
      let added =
        List.length
          (List.filter
             (fun p ->
               let p = Int64.add lo (Int64.of_int (p * ps)) in
               let a0 = max p addr and a1 = min (Int64.add p (Int64.of_int ps)) (Int64.add addr (Int64.of_int len)) in
               a0 < a1 && (not (stored p))
               && not
                    (Images.all_zero data (Int64.to_int (Int64.sub a0 addr)) (Int64.to_int (Int64.sub a1 a0))))
             (List.init (span / ps) Fun.id))
      in
      let img_new = Images.relayout ~reserve:Validate.header_size img in
      let old_len = img_new.Images.pages.Images.len in
      Images.write_mem img_new addr data;
      Bytes.blit data 0 model (rel addr) len;
      let a' = img_new.Images.pages in
      reads_agree
      && Bytes.equal (Images.read_mem img_new lo span) model
      && a'.Images.len = old_len + (added * ps)
      && List.for_all
           (fun k -> not (Images.all_zero a'.Images.buf (a'.Images.off + old_len + (k * ps)) ps))
           (List.init added Fun.id))

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
    Alcotest.test_case "seal format pinned" `Quick test_seal_format_pinned;
    Alcotest.test_case "decode_sealed is bounded to the payload" `Quick
      test_decode_sealed_is_bounded;
    Alcotest.test_case "unseal_frames: 2000 frames, torn tail" `Quick
      test_unseal_frames_long_log;
    QCheck_alcotest.to_alcotest prop_read_write_mem_reference;
    Alcotest.test_case "seal catches 100k mangled frames" `Quick test_seal_catches_mangling;
    Alcotest.test_case "TCP repair after the server closed" `Quick test_tcp_repair_after_close;
    Alcotest.test_case "dump leaves all-zero anonymous pages out" `Quick
      test_dump_leaves_zero_anon_pages_out;
    QCheck_alcotest.to_alcotest prop_read_write_mem_anonymous;
  ]
