(** Tests for the guest libraries: libc.so exports, the injectable
    SIGTRAP handler library, and the injection machinery. *)

let libc = Test_machine.libc

let test_libc_exports () =
  List.iter
    (fun name ->
      match Self.find_symbol libc name with
      | Some s -> Alcotest.(check bool) (name ^ " global") true s.Self.sym_global
      | None -> Alcotest.failf "libc lacks %s" name)
    [
      "write"; "read"; "open"; "close"; "mmap"; "munmap"; "mprotect"; "fork";
      "sigaction"; "nanosleep"; "getpid"; "socket"; "bind"; "listen"; "accept";
      "recv"; "send"; "exit"; "strlen"; "strcmp"; "strncmp"; "memcpy"; "memset";
      "strcpy"; "atoi"; "itoa"; "puts";
    ]

let test_libc_is_shared_object () =
  Alcotest.(check bool) "kind Dyn" true (libc.Self.kind = Self.Dyn);
  Alcotest.(check int64) "no fixed base" 0L libc.Self.base

let handler = Handler.build ~libc ()

let test_handler_symbols () =
  List.iter
    (fun name ->
      if Self.find_symbol handler name = None then Alcotest.failf "handler lacks %s" name)
    [
      Handler.sym_handler; Handler.sym_restorer; Handler.sym_mode;
      Handler.sym_table_len; Handler.sym_table; Handler.sym_log_len;
      Handler.sym_log; Handler.sym_hits;
    ]

let test_handler_needs_libc () =
  (* the handler calls exit/mprotect through its PLT: DynaCut must do PLT
     relocations at injection (§3.3) *)
  Alcotest.(check (list string)) "needed" [ "libc.so" ] handler.Self.needed;
  Alcotest.(check bool) "has exit PLT" true (List.mem_assoc "exit" handler.Self.plt);
  Alcotest.(check bool) "has mprotect PLT" true (List.mem_assoc "mprotect" handler.Self.plt)

let test_handler_position_independent () =
  (* every dynreloc must be resolvable given an arbitrary base *)
  let base = 0x7cafe000L in
  let mods =
    [
      { Loader.lm_name = handler.Self.name; lm_base = base; lm_self = handler };
      { Loader.lm_name = "libc.so"; lm_base = 0x7f0000000000L; lm_self = libc };
    ]
  in
  let patched = Loader.relocate handler ~base ~mods in
  Alcotest.(check int) "all sections patched" (List.length handler.Self.sections)
    (List.length patched)

(* ---------- injection ---------- *)

let checkpointed_rkv () =
  let c = Workload.boot Workload.rkv in
  Machine.freeze c.Workload.m ~pid:c.Workload.pid;
  (c, Checkpoint.dump c.Workload.m ~pid:c.Workload.pid ())

let test_inject_creates_vmas_and_pages () =
  let _, img = checkpointed_rkv () in
  let before_vmas = List.length img.Images.mm in
  let libc_base = Option.get (Rewriter.module_base img "libc.so") in
  let img', base = Inject.inject img ~lib:handler ~deps:[ (libc, libc_base) ] () in
  Alcotest.(check bool) "more vmas" true (List.length img'.Images.mm > before_vmas);
  Alcotest.(check bool) "base page aligned" true (Int64.rem base 4096L = 0L);
  (* the handler entry byte is readable at base+sym and decodes *)
  let h = Inject.lib_sym handler ~base Handler.sym_handler in
  let byte = Images.read_mem img' h 1 in
  Alcotest.(check bool) "prologue present" true (Bytes.get byte 0 = '\x36' (* push *))

(* A fresh inject stores only the library's pages that hold a non-zero
   byte: none of [dc_log] (and none of [dc_table]'s), which read zero
   from the image. A policy write of zeros adds no page; a non-zero one
   adds the page it lands in. *)
let test_inject_stores_no_zero_page () =
  let _, img = checkpointed_rkv () in
  let libc_base = Option.get (Rewriter.module_base img "libc.so") in
  let img', base = Inject.inject img ~lib:handler ~deps:[ (libc, libc_base) ] () in
  let ps = Images.page_size in
  let stored va =
    List.exists
      (fun (pm : Images.pagemap_entry) ->
        va >= pm.Images.pm_vaddr
        && va < Int64.add pm.Images.pm_vaddr (Int64.of_int (pm.Images.pm_npages * ps)))
      img'.Images.pagemap
  in
  let region sym len =
    let lo = Inject.lib_sym handler ~base sym in
    List.init ((len + ps - 1) / ps) (fun k -> Int64.add (Mem.page_base lo) (Int64.of_int (k * ps)))
  in
  let log = region Handler.sym_log (Handler.max_log_entries * 8) in
  Alcotest.(check bool) "no dc_log page stored" false (List.exists stored log);
  Alcotest.(check bool) "no dc_table page stored" false
    (List.exists stored (region Handler.sym_table (Handler.max_table_entries * 16)));
  Alcotest.(check bool) "dc_log reads zero" true
    (Images.all_zero
       (Images.read_mem img' (Inject.lib_sym handler ~base Handler.sym_log) (Handler.max_log_entries * 8))
       0 (Handler.max_log_entries * 8));
  (* every page the inject added holds a non-zero byte *)
  let old = img.Images.pages.Images.len in
  Alcotest.(check bool) "the library's pages were appended" true (img'.Images.pages.Images.len > old);
  for k = 0 to ((img'.Images.pages.Images.len - old) / ps) - 1 do
    let a = img'.Images.pages in
    if Images.all_zero a.Images.buf (a.Images.off + old + (k * ps)) ps then
      Alcotest.failf "appended slot %d is all zero" k
  done;
  let len = img'.Images.pages.Images.len in
  Inject.write_policy img' ~lib:handler ~base ~mode:Handler.mode_terminate ~entries:[];
  Alcotest.(check int) "a policy write of zeros adds no page" len img'.Images.pages.Images.len;
  let mode = Inject.lib_sym handler ~base Handler.sym_mode in
  Alcotest.(check bool) "policy page still absent" false (stored mode);
  Inject.write_policy img' ~lib:handler ~base ~mode:Handler.mode_redirect ~entries:[ (0x1234L, 0x5678L) ];
  Alcotest.(check bool) "policy page added" true
    (List.exists
       (fun (pm : Images.pagemap_entry) -> pm.Images.pm_vaddr = Mem.page_base mode)
       img'.Images.pagemap);
  Alcotest.(check int) "exactly one page added" (len + ps) img'.Images.pages.Images.len;
  Alcotest.(check int64) "mode reads back" Handler.mode_redirect
    (Bytes.get_int64_le (Images.read_mem img' mode 8) 0);
  Validate.check img'

let test_inject_collision_rejected () =
  let _, img = checkpointed_rkv () in
  let libc_base = Option.get (Rewriter.module_base img "libc.so") in
  (* base on top of the executable *)
  match Inject.inject img ~lib:handler ~base:0x400000L ~deps:[ (libc, libc_base) ] () with
  | exception Inject.Inject_error _ -> ()
  | _ -> Alcotest.fail "expected collision error"

let test_inject_user_chosen_base () =
  let _, img = checkpointed_rkv () in
  let libc_base = Option.get (Rewriter.module_base img "libc.so") in
  let want = 0x7abc_def0_0000L in
  let _, base = Inject.inject img ~lib:handler ~base:want ~deps:[ (libc, libc_base) ] () in
  Alcotest.(check int64) "honours the user's base (§3.3)" want base

let test_inject_got_points_at_libc () =
  let _, img = checkpointed_rkv () in
  let libc_base = Option.get (Rewriter.module_base img "libc.so") in
  let img', base = Inject.inject img ~lib:handler ~deps:[ (libc, libc_base) ] () in
  let got_off = List.assoc "exit" handler.Self.got in
  let slot = Images.read_mem img' (Int64.add base (Int64.of_int got_off)) 8 in
  let v = Bytes.get_int64_le slot 0 in
  let exit_sym = Option.get (Self.find_symbol libc "exit") in
  Alcotest.(check int64) "GOT[exit] = libc base + offset"
    (Int64.add libc_base (Int64.of_int exit_sym.Self.sym_off))
    v

let test_write_policy_roundtrip () =
  let _, img = checkpointed_rkv () in
  let libc_base = Option.get (Rewriter.module_base img "libc.so") in
  let img', base = Inject.inject img ~lib:handler ~deps:[ (libc, libc_base) ] () in
  Inject.write_policy img' ~lib:handler ~base ~mode:Handler.mode_redirect
    ~entries:[ (0x401000L, 0x402000L); (0x401100L, 0x402000L) ];
  let r64 addr = Bytes.get_int64_le (Images.read_mem img' addr 8) 0 in
  Alcotest.(check int64) "mode" Handler.mode_redirect
    (r64 (Inject.lib_sym handler ~base Handler.sym_mode));
  Alcotest.(check int64) "len" 2L (r64 (Inject.lib_sym handler ~base Handler.sym_table_len));
  let tbl = Inject.lib_sym handler ~base Handler.sym_table in
  Alcotest.(check int64) "entry0 addr" 0x401000L (r64 tbl);
  Alcotest.(check int64) "entry0 target" 0x402000L (r64 (Int64.add tbl 8L))

let test_write_policy_overflow_rejected () =
  let _, img = checkpointed_rkv () in
  let libc_base = Option.get (Rewriter.module_base img "libc.so") in
  let img', base = Inject.inject img ~lib:handler ~deps:[ (libc, libc_base) ] () in
  let too_many = List.init (Handler.max_table_entries + 1) (fun k -> (Int64.of_int k, 0L)) in
  Alcotest.check_raises "overflow" (Inject.Inject_error "policy table overflow") (fun () ->
      Inject.write_policy img' ~lib:handler ~base ~mode:Handler.mode_redirect ~entries:too_many)

let suite =
  [
    Alcotest.test_case "libc exports" `Quick test_libc_exports;
    Alcotest.test_case "libc is a shared object" `Quick test_libc_is_shared_object;
    Alcotest.test_case "handler symbols" `Quick test_handler_symbols;
    Alcotest.test_case "handler needs libc (PLT relocs)" `Quick test_handler_needs_libc;
    Alcotest.test_case "handler relocatable anywhere" `Quick test_handler_position_independent;
    Alcotest.test_case "inject creates VMAs + pages" `Quick test_inject_creates_vmas_and_pages;
    Alcotest.test_case "inject stores no all-zero page" `Quick test_inject_stores_no_zero_page;
    Alcotest.test_case "inject collision rejected" `Quick test_inject_collision_rejected;
    Alcotest.test_case "inject honours user base" `Quick test_inject_user_chosen_base;
    Alcotest.test_case "inject patches GOT to libc" `Quick test_inject_got_points_at_libc;
    Alcotest.test_case "policy table write/read" `Quick test_write_policy_roundtrip;
    Alcotest.test_case "policy table overflow" `Quick test_write_policy_overflow_rejected;
  ]
