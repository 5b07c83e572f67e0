(** Tests for the SELF object format, linker, loader, CFG recovery. *)

let libc = Test_machine.libc

(* ---------- serialization ---------- *)

let gen_prot = QCheck.Gen.(map Self.prot_of_int (int_range 0 7))

let gen_section =
  QCheck.Gen.(
    map3
      (fun name off data ->
        {
          Self.sec_name = "." ^ name;
          sec_off = off * 4096;
          sec_data = Bytes.of_string data;
          sec_prot = Self.prot_rw;
        })
      (string_size ~gen:(char_range 'a' 'z') (int_range 1 6))
      (int_range 0 64) (string_size (int_range 0 200)))

let gen_self : Self.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* sections = list_size (int_range 0 4) gen_section in
  let* prot = gen_prot in
  ignore prot;
  let* name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let* nsym = int_range 0 5 in
  let symbols =
    List.init nsym (fun k ->
        {
          Self.sym_name = Printf.sprintf "s%d" k;
          sym_off = k * 16;
          sym_size = k;
          sym_kind = (if k mod 2 = 0 then Self.Func else Self.Object);
          sym_global = k mod 3 = 0;
        })
  in
  let* ndr = int_range 0 3 in
  let dynrelocs =
    List.init ndr (fun k ->
        {
          Self.dr_off = k * 8;
          dr_target = (if k mod 2 = 0 then `Extern (Printf.sprintf "e%d" k) else `Local "s0");
          dr_addend = k;
        })
  in
  return
    {
      Self.name;
      kind = Self.Dyn;
      entry = 0;
      base = 0L;
      sections;
      symbols;
      dynrelocs;
      needed = [ "libc.so" ];
      plt = [ ("write", 64) ];
      got = [ ("write", 128) ];
    }

let prop_self_roundtrip =
  QCheck.Test.make ~name:"SELF to_bytes/of_bytes roundtrip" ~count:200
    (QCheck.make gen_self) (fun s ->
      let s' = Self.of_bytes (Self.to_bytes s) in
      Self.to_bytes s' = Self.to_bytes s)

let test_self_bad_magic () =
  Alcotest.check_raises "magic" (Self.Format_error "bad magic") (fun () ->
      ignore (Self.of_bytes "XELF\x01junkjunkjunkjunk"))

let test_prot_roundtrip () =
  for k = 0 to 7 do
    Alcotest.(check int) "prot" k (Self.prot_to_int (Self.prot_of_int k))
  done

(* ---------- linker ---------- *)

let simple_obj ?(extern_call = false) () =
  Asm.assemble ~name:"t"
    ([
       Asm.Global "main";
       Asm.Label "main";
       Asm.Ins (Insn.Mov_ri (Reg.Rax, 0L));
     ]
    @ (if extern_call then [ Asm.Call_sym "write" ] else [])
    @ [
        Asm.Ins Insn.Ret;
        Asm.Section ".data";
        Asm.Global "g";
        Asm.Label "g";
        Asm.Word64 99L;
        Asm.Addr64 ("g", 0);
      ])

let test_link_exec_layout () =
  let self = Link.link_exec ~name:"t" ~entry:"main" ~libs:[] (simple_obj ()) in
  (* sections page aligned and non-overlapping *)
  let offs = List.map (fun (s : Self.section) -> s.Self.sec_off) self.Self.sections in
  List.iter (fun o -> Alcotest.(check int) "aligned" 0 (o mod 4096)) offs;
  Alcotest.(check bool) "sorted+disjoint" true
    (List.sort_uniq compare offs = offs);
  (* entry resolves to main *)
  let main = Option.get (Self.find_symbol self "main") in
  Alcotest.(check int) "entry" main.Self.sym_off self.Self.entry

let test_link_abs64_in_exec_is_static () =
  let self = Link.link_exec ~name:"t" ~entry:"main" ~libs:[] (simple_obj ()) in
  (* the Addr64(g) word should hold base + g offset, and no dynrelocs *)
  Alcotest.(check int) "no dynrelocs" 0 (List.length self.Self.dynrelocs);
  let data = Option.get (Self.find_section self ".data") in
  let g = Option.get (Self.find_symbol self "g") in
  let v = Bytes.get_int64_le data.Self.sec_data 8 in
  Alcotest.(check int64) "points at g" (Int64.add self.Self.base (Int64.of_int g.Self.sym_off)) v

let test_link_shared_abs64_is_dynreloc () =
  let self = Link.link_shared ~name:"t.so" (simple_obj ()) in
  Alcotest.(check int) "one local dynreloc" 1 (List.length self.Self.dynrelocs);
  match (List.hd self.Self.dynrelocs).Self.dr_target with
  | `Local "g" -> ()
  | _ -> Alcotest.fail "expected local reloc to g"

let test_link_plt_generation () =
  let self = Link.link_exec ~name:"t" ~entry:"main" ~libs:[ libc ] (simple_obj ~extern_call:true ()) in
  Alcotest.(check int) "one PLT entry" 1 (List.length self.Self.plt);
  Alcotest.(check int) "one GOT slot" 1 (List.length self.Self.got);
  Alcotest.(check (list string)) "needs libc" [ "libc.so" ] self.Self.needed;
  (* the GOT slot has an extern dynreloc for write *)
  Alcotest.(check bool) "extern reloc" true
    (List.exists
       (fun (r : Self.dynreloc) -> r.Self.dr_target = `Extern "write")
       self.Self.dynrelocs)

let test_link_undefined_symbol_fails () =
  match Link.link_exec ~name:"t" ~entry:"main" ~libs:[] (simple_obj ~extern_call:true ()) with
  | exception Link.Link_error msg ->
      Alcotest.(check bool) "mentions write" true
        (String.length msg > 0
        &&
        let sub = "write" and n = String.length msg in
        let sl = String.length sub in
        let rec go i = i + sl <= n && (String.sub msg i sl = sub || go (i + 1)) in
        go 0)
  | _ -> Alcotest.fail "expected Link_error"

(* ---------- loader ---------- *)

let test_loader_got_binding () =
  let self = Link.link_exec ~name:"t" ~entry:"main" ~libs:[ libc ] (simple_obj ~extern_call:true ()) in
  let img = Loader.load ~libs:[ libc ] self in
  (* find the libc module base *)
  let libc_mod =
    List.find (fun (m : Loader.loaded_module) -> m.Loader.lm_name = "libc.so") img.Loader.img_modules
  in
  let write_sym = Option.get (Self.find_symbol libc "write") in
  let expected = Int64.add libc_mod.Loader.lm_base (Int64.of_int write_sym.Self.sym_off) in
  (* read the GOT slot from the mapped bytes *)
  let got_off = List.assoc "write" self.Self.got in
  let got_map =
    List.find
      (fun (m : Loader.mapping) ->
        m.Loader.map_module = "t" && m.Loader.map_section = ".got")
      img.Loader.img_mappings
  in
  let v =
    Bytes.get_int64_le got_map.Loader.map_data
      (got_off - Int64.to_int (Int64.sub got_map.Loader.map_vaddr self.Self.base))
  in
  Alcotest.(check int64) "GOT bound to libc write" expected v

let test_loader_missing_lib_fails () =
  let self = Link.link_exec ~name:"t" ~entry:"main" ~libs:[ libc ] (simple_obj ~extern_call:true ()) in
  Alcotest.check_raises "missing" (Loader.Load_error "needed library not found: libc.so")
    (fun () -> ignore (Loader.load ~libs:[] self))

let test_relocate_local_uses_base () =
  let so = Link.link_shared ~name:"t.so" (simple_obj ()) in
  let base = 0x5000_0000L in
  let mods = [ { Loader.lm_name = "t.so"; lm_base = base; lm_self = so } ] in
  let patched = Loader.relocate so ~base ~mods in
  let g = Option.get (Self.find_symbol so "g") in
  let v = Bytes.get_int64_le (List.assoc ".data" patched) 8 in
  Alcotest.(check int64) "base + st_value" (Int64.add base (Int64.of_int g.Self.sym_off)) v

(* ---------- cfg ---------- *)

let test_cfg_splits_at_branch_target () =
  let obj =
    Asm.assemble ~name:"t"
      [
        Asm.Global "main";
        Asm.Label "main";
        Asm.Ins (Insn.Mov_ri (Reg.Rax, 1L));
        Asm.Label "loop";
        Asm.Ins (Insn.Add_ri (Reg.Rax, 1));
        Asm.Ins (Insn.Cmp_ri (Reg.Rax, 10));
        Asm.Jcc_sym (Insn.Lt, "loop");
        Asm.Ins Insn.Ret;
      ]
  in
  let self = Link.link_exec ~name:"t" ~entry:"main" ~libs:[] obj in
  let cfg = Cfg.of_self self in
  let blocks = Cfg.real_blocks cfg in
  (* main (mov), loop body (add/cmp/jcc), ret *)
  Alcotest.(check int) "three blocks" 3 (List.length blocks);
  Alcotest.(check bool) "edge back to loop" true
    (List.exists (fun (_, t) -> t = 10) cfg.Cfg.cfg_edges)

let test_cfg_block_containing () =
  let exe = Crt0.link_app ~libc Test_core.dispatch_server in
  let cfg = Cfg.of_self exe in
  List.iter
    (fun (b : Cfg.block) ->
      if b.Cfg.bb_size > 0 then begin
        match Cfg.block_containing cfg (b.Cfg.bb_off + (b.Cfg.bb_size / 2)) with
        | Some b' -> Alcotest.(check int) "same block" b.Cfg.bb_off b'.Cfg.bb_off
        | None -> Alcotest.failf "no block containing 0x%x" b.Cfg.bb_off
      end)
    (Cfg.real_blocks cfg)

let test_cfg_counts_plausible () =
  List.iter
    (fun (k : Spec.kernel) ->
      let c = Workload.spawn (Workload.spec_app k) in
      let exe = Option.get (Vfs.find_self c.Workload.m.Machine.fs k.Spec.k_name) in
      let n = Cfg.block_count (Cfg.of_self exe) in
      Alcotest.(check bool) (k.Spec.k_name ^ " nonzero blocks") true (n > 10))
    Spec.all

let test_link_deterministic () =
  (* every byte of a linked image is defined, the .got included *)
  let libc = Lazy.force Workload.libc in
  List.iter
    (fun (name, unit_) ->
      Alcotest.(check bool) (name ^ " links to equal images") true
        (Crt0.link_app ~libc unit_ = Crt0.link_app ~libc unit_))
    [ ("ltpd", Ltpd.unit_ltpd); ("ngx", Ngx.unit_ngx); ("rkv", Rkv.unit_rkv) ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_self_roundtrip;
    Alcotest.test_case "bad magic rejected" `Quick test_self_bad_magic;
    Alcotest.test_case "prot roundtrip" `Quick test_prot_roundtrip;
    Alcotest.test_case "exec layout" `Quick test_link_exec_layout;
    Alcotest.test_case "abs64 static in exec" `Quick test_link_abs64_in_exec_is_static;
    Alcotest.test_case "abs64 dynreloc in .so" `Quick test_link_shared_abs64_is_dynreloc;
    Alcotest.test_case "PLT/GOT generation" `Quick test_link_plt_generation;
    Alcotest.test_case "undefined symbol error" `Quick test_link_undefined_symbol_fails;
    Alcotest.test_case "linking is deterministic" `Quick test_link_deterministic;
    Alcotest.test_case "loader binds GOT eagerly" `Quick test_loader_got_binding;
    Alcotest.test_case "loader missing lib" `Quick test_loader_missing_lib_fails;
    Alcotest.test_case "relocate local = base+st_value" `Quick test_relocate_local_uses_base;
    Alcotest.test_case "cfg splits at branch targets" `Quick test_cfg_splits_at_branch_target;
    Alcotest.test_case "cfg block_containing" `Quick test_cfg_block_containing;
    Alcotest.test_case "cfg on all SPEC binaries" `Quick test_cfg_counts_plausible;
  ]
