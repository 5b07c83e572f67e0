(** Property and analysis tests for the DynaCut core: coverage-graph
    algebra, rewrite reversibility, function bounds, gadget census, PLT
    liveness. *)

(* ---------- covgraph algebra ---------- *)

let gen_block =
  QCheck.Gen.(
    map3
      (fun m off size ->
        {
          Covgraph.b_module = (if m then "app" else "libc.so");
          b_off = off * 4;
          b_size = (size mod 32) + 1;
        })
      bool (int_range 0 512) small_nat)

let gen_blocks = QCheck.Gen.(list_size (int_range 0 60) gen_block)

let graph_of blocks =
  let g = Covgraph.create () in
  List.iter (Covgraph.add g) blocks;
  g

let arb_blocks =
  QCheck.make
    ~print:(fun bs ->
      String.concat ";"
        (List.map (fun (b : Covgraph.block) -> Printf.sprintf "%s+%x" b.Covgraph.b_module b.Covgraph.b_off) bs))
    gen_blocks

let prop_diff_soundness =
  QCheck.Test.make ~name:"diff a b contains nothing from b" ~count:300
    (QCheck.pair arb_blocks arb_blocks) (fun (xs, ys) ->
      let a = graph_of xs and b = graph_of ys in
      List.for_all (fun blk -> not (Covgraph.mem b blk)) (Covgraph.diff a b))

let prop_diff_completeness =
  QCheck.Test.make ~name:"diff a b + intersect a b covers a" ~count:300
    (QCheck.pair arb_blocks arb_blocks) (fun (xs, ys) ->
      let a = graph_of xs and b = graph_of ys in
      List.length (Covgraph.diff a b) + List.length (Covgraph.intersect a b)
      = Covgraph.cardinal a)

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge is commutative on membership" ~count:300
    (QCheck.pair arb_blocks arb_blocks) (fun (xs, ys) ->
      let ab = Covgraph.merge [ graph_of xs; graph_of ys ] in
      let ba = Covgraph.merge [ graph_of ys; graph_of xs ] in
      List.for_all (Covgraph.mem ba) (Covgraph.blocks ab)
      && List.for_all (Covgraph.mem ab) (Covgraph.blocks ba))

let prop_merge_idempotent =
  QCheck.Test.make ~name:"merge with self is identity" ~count:300 arb_blocks (fun xs ->
      let a = graph_of xs in
      Covgraph.cardinal (Covgraph.merge [ a; a ]) = Covgraph.cardinal a)

(* ---------- normalization ---------- *)

let test_normalize_splits_straddling_block () =
  let exe = Crt0.link_app ~libc:Test_machine.libc Test_core.dispatch_server in
  let cfg = Cfg.of_self exe in
  (* take two adjacent static blocks and pretend one dynamic block covered
     both (fall-through execution) *)
  let rec find_adjacent = function
    | (a : Cfg.block) :: b :: rest ->
        if a.Cfg.bb_off + a.Cfg.bb_size = b.Cfg.bb_off && a.Cfg.bb_size > 0 && b.Cfg.bb_size > 0
        then (a, b)
        else find_adjacent (b :: rest)
    | _ -> Alcotest.fail "no adjacent blocks"
  in
  let a, b = find_adjacent (Cfg.real_blocks cfg) in
  let g = Covgraph.create () in
  Covgraph.add g
    { Covgraph.b_module = "dsrv"; b_off = a.Cfg.bb_off; b_size = a.Cfg.bb_size + b.Cfg.bb_size };
  let n = Covgraph.normalize ~cfg_of:(fun m -> if m = "dsrv" then Some cfg else None) g in
  Alcotest.(check bool) "covers a" true (Covgraph.mem_off n ~module_:"dsrv" ~off:a.Cfg.bb_off);
  Alcotest.(check bool) "covers b" true (Covgraph.mem_off n ~module_:"dsrv" ~off:b.Cfg.bb_off)

let test_normalize_keeps_unknown_modules () =
  let g = Covgraph.create () in
  Covgraph.add g { Covgraph.b_module = "mystery"; b_off = 4; b_size = 8 };
  let n = Covgraph.normalize ~cfg_of:(fun _ -> None) g in
  Alcotest.(check int) "untouched" 1 (Covgraph.cardinal n)

(* [Covgraph.normalize] before it was indexed: filter every static
   block of the module for each covered block *)
let normalize_reference ~cfg_of t =
  let out = Covgraph.create () in
  List.iter
    (fun (b : Covgraph.block) ->
      match cfg_of b.Covgraph.b_module with
      | None -> Covgraph.add out b
      | Some cfg ->
          List.iter
            (fun (sb : Cfg.block) ->
              if
                sb.Cfg.bb_size > 0 && sb.Cfg.bb_off >= b.Covgraph.b_off
                && sb.Cfg.bb_off < b.Covgraph.b_off + b.Covgraph.b_size
              then Covgraph.add out { b with Covgraph.b_off = sb.Cfg.bb_off; b_size = sb.Cfg.bb_size })
            (Cfg.real_blocks cfg))
    (Covgraph.blocks t);
  out

(* static blocks at random offsets, unsorted, some of size 0 (padding) *)
let gen_cfg name =
  QCheck.Gen.(
    map
      (fun bs ->
        {
          Cfg.cfg_module = name;
          cfg_blocks =
            Array.of_list
              (List.map
                 (fun (off, size) -> { Cfg.bb_off = off; bb_size = size; bb_insns = 1; bb_term = `Fall })
                 bs);
          cfg_edges = [];
        })
      (list_size (int_range 0 80) (pair (int_range 0 600) (int_range 0 24))))

(* coverage over "app" and "libc.so", which have CFGs, and "mystery",
   which has none *)
let arb_normalize_case =
  QCheck.make
    QCheck.Gen.(
      triple (gen_cfg "app") (gen_cfg "libc.so")
        (list_size (int_range 0 60)
           (map3
              (fun m off size -> { Covgraph.b_module = m; b_off = off; b_size = size })
              (oneofl [ "app"; "libc.so"; "mystery" ])
              (int_range 0 620) (int_range 0 64))))

let prop_normalize_matches_reference =
  QCheck.Test.make ~name:"indexed normalize matches the list filter" ~count:300
    arb_normalize_case (fun (app, libc, cov) ->
      let cfg_of = function "app" -> Some app | "libc.so" -> Some libc | _ -> None in
      let g = graph_of cov in
      Covgraph.blocks (Covgraph.normalize ~cfg_of g)
      = Covgraph.blocks (normalize_reference ~cfg_of g))

(* ---------- rewriter reversibility ---------- *)

let checkpointed_dsrv () =
  let m = Machine.create () in
  Vfs.add_self m.Machine.fs "libc.so" Test_machine.libc;
  Vfs.add_self m.Machine.fs "dsrv" (Crt0.link_app ~libc:Test_machine.libc Test_core.dispatch_server);
  let p = Machine.spawn m ~exe_path:"dsrv" () in
  let (_ : _) = Machine.run m ~max_cycles:2_000_000 in
  Machine.freeze m ~pid:p.Proc.pid;
  (m, Checkpoint.dump m ~pid:p.Proc.pid ())

let exe_blocks () =
  let exe = Crt0.link_app ~libc:Test_machine.libc Test_core.dispatch_server in
  let cfg = Cfg.of_self exe in
  List.filter_map
    (fun (b : Cfg.block) ->
      if b.Cfg.bb_size > 0 then
        Some { Covgraph.b_module = "dsrv"; b_off = b.Cfg.bb_off; b_size = b.Cfg.bb_size }
      else None)
    (Cfg.real_blocks cfg)

let prop_patch_restore_identity =
  QCheck.Test.make ~name:"disable+restore is byte-identical" ~count:25
    QCheck.(pair (int_range 0 1000) bool)
    (fun (seed, wipe) ->
      let _, img = checkpointed_dsrv () in
      let before = Images.encode img in
      let all = exe_blocks () in
      let rng = Rng.create seed in
      let victims = List.filter (fun _ -> Rng.bool rng) all in
      let patches =
        if wipe then Rewriter.wipe_blocks img victims
        else Rewriter.disable_first_byte img victims
      in
      (* patched image differs iff we patched something *)
      let mid = Images.encode img in
      (victims = [] || mid <> before)
      &&
      (Rewriter.restore_bytes img patches;
       Images.encode img = before))

let test_unmap_remap_preserves_content () =
  let _, img = checkpointed_dsrv () in
  (* pick all blocks of one full page of .text *)
  let text_base = 0x401000L in
  let before = try Some (Images.read_mem img text_base 4096) with Not_found -> None in
  match before with
  | None -> Alcotest.fail "text page not dumped"
  | Some before ->
      let blocks =
        [ { Covgraph.b_module = "dsrv"; b_off = 0x1000; b_size = 4096 } ]
      in
      let patches, img' = Rewriter.unmap_block_pages img blocks in
      Alcotest.(check bool) "unmapped" true
        (match Images.read_mem img' text_base 1 with
        | _ -> false
        | exception Not_found -> true);
      Alcotest.(check bool) "vma removed" true (Images.find_vma img' text_base = None);
      let img'' = Rewriter.remap img' patches in
      let after = Images.read_mem img'' text_base 4096 in
      Alcotest.(check bool) "content restored" true (Bytes.equal before after)

(* ---------- failure paths ---------- *)

let test_restore_rejects_live_pid () =
  let m, p = Test_core.boot () in
  Machine.freeze m ~pid:p.Proc.pid;
  let img = Checkpoint.dump m ~pid:p.Proc.pid () in
  Machine.thaw m ~pid:p.Proc.pid;
  (* restoring over a live pid must refuse, not create a twin process *)
  Alcotest.check_raises "live pid refused"
    (Restore.Restore_error (Printf.sprintf "pid %d still alive" p.Proc.pid))
    (fun () -> ignore (Restore.restore m img))

let test_cut_unknown_module_rolls_back () =
  let m, p = Test_core.boot () in
  let session = Dynacut.create m ~root_pid:p.Proc.pid in
  let bogus = [ { Covgraph.b_module = "not-mapped.so"; b_off = 0; b_size = 4 } ] in
  let policy = { Dynacut.method_ = `First_byte; on_trap = `Kill } in
  let r = Dynacut.try_cut session ~blocks:bogus ~policy () in
  (match r.Dynacut.r_outcome with
  | `Rolled_back rb ->
      Alcotest.(check string) "failed in rewrite" "rewrite" rb.Dynacut.rb_stage
  | `Applied -> Alcotest.fail "expected rollback");
  Alcotest.(check string) "still serving" "VAL=7" (Test_core.request m "G");
  (* the raising wrapper surfaces the same rollback as Dynacut_error *)
  Alcotest.(check bool) "cut raises" true
    (match Dynacut.cut session ~blocks:bogus ~policy with
    | _ -> false
    | exception Dynacut.Dynacut_error _ -> true);
  Alcotest.(check string) "serving after raise" "VAL=7" (Test_core.request m "G")

let prop_cut_reenable_image_roundtrip =
  QCheck.Test.make ~name:"cut+reenable leaves byte-identical dump" ~count:8
    QCheck.(int_range 0 1000)
    (fun seed ->
      let m, p = Test_core.boot () in
      let pid = p.Proc.pid in
      Machine.freeze m ~pid;
      let e0 = Images.encode (Checkpoint.dump m ~pid ()) in
      Machine.thaw m ~pid;
      let rng = Rng.create seed in
      let victims = List.filter (fun _ -> Rng.bool rng) (exe_blocks ()) in
      let session = Dynacut.create m ~root_pid:pid in
      let journals, _ =
        Dynacut.cut session ~blocks:victims
          ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Kill }
      in
      let (_ : Dynacut.timings) = Dynacut.reenable session journals in
      (* restore leaves the process runnable (syscall restart); let it
         re-enter the blocked accept it was dumped in *)
      (match Machine.run m ~max_cycles:2_000_000 with
      | `Idle -> ()
      | _ -> QCheck.Test.fail_report "server did not settle after reenable");
      Machine.freeze m ~pid;
      let e1 = Images.encode (Checkpoint.dump m ~pid ()) in
      Machine.thaw m ~pid;
      String.equal e0 e1)

(* ---------- funcbounds ---------- *)

let test_funcbounds_groups_labels () =
  let exe = Crt0.link_app ~libc:Test_machine.libc Test_core.dispatch_server in
  let bounds = Funcbounds.of_self exe in
  let sym n = (Option.get (Self.find_symbol exe n)).Self.sym_off in
  Alcotest.(check bool) "feat_set with err_path (same fn)" true
    (Funcbounds.same_function bounds (sym "feat_set") (sym "err_path"));
  Alcotest.(check bool) "do_set separate from handle" false
    (Funcbounds.same_function bounds (sym "do_set") (sym "err_path"));
  Alcotest.(check bool) "main separate" false
    (Funcbounds.same_function bounds (sym "main") (sym "err_path"))

(* ---------- gadget census ---------- *)

let test_gadget_census_drops_after_wipe () =
  let _, img = checkpointed_dsrv () in
  let before = Gadget.of_image img in
  Alcotest.(check bool) "some gadgets" true (before.Gadget.g_gadgets > 0);
  let (_ : Rewriter.patch list) = Rewriter.wipe_blocks img (exe_blocks ()) in
  let after = Gadget.of_image img in
  Alcotest.(check bool) "fewer gadgets" true
    (after.Gadget.g_gadgets < before.Gadget.g_gadgets)

let test_gadget_scan_trap_region () =
  let g, s = Gadget.scan_bytes (Bytes.make 256 '\xCC') in
  Alcotest.(check int) "no gadgets in wiped region" 0 g;
  Alcotest.(check int) "no syscall gadgets" 0 s

let test_gadget_scan_counts_ret_suffixes () =
  (* mov;add;ret: offsets that decode to a ret-terminated run *)
  let bytes = Encode.program [ Insn.Mov_rr (Reg.Rax, Reg.Rcx); Insn.Add_rr (Reg.Rax, Reg.Rcx); Insn.Ret ] in
  let g, _ = Gadget.scan_bytes bytes in
  Alcotest.(check bool) "at least 3" true (g >= 3)

(* ---------- PLT liveness ---------- *)

let test_pltlive_classification () =
  let exe = Crt0.link_app ~libc:Test_machine.libc Test_core.dispatch_server in
  let stub name = List.assoc name exe.Self.plt in
  let mk offs =
    let g = Covgraph.create () in
    List.iter
      (fun o -> Covgraph.add g { Covgraph.b_module = "dsrv"; b_off = o; b_size = 2 })
      offs;
    g
  in
  (* socket used only during init; send used in both; accept serving-only *)
  let init = mk [ stub "socket"; stub "send" ] in
  let serving = mk [ stub "send"; stub "accept" ] in
  let r = Pltlive.analyse exe ~init ~serving in
  let find n = List.find (fun (e : Pltlive.plt_entry) -> e.Pltlive.pe_name = n) r.Pltlive.pr_entries in
  Alcotest.(check bool) "socket init-only" true (find "socket").Pltlive.pe_init_only;
  Alcotest.(check bool) "send not removable" false (find "send").Pltlive.pe_init_only;
  Alcotest.(check bool) "accept executed" true (find "accept").Pltlive.pe_executed;
  Alcotest.(check bool) "send survives" true (Pltlive.survives r "send")

(* ---------- sliced_away: span matching vs a linear scan ---------- *)

(* covered blocks over two modules and slice spans of any length, some
   naming a module nothing covers: a block is sliced away iff no span of
   its module overlaps its bytes *)
let prop_sliced_away_matches_scan =
  let open QCheck.Gen in
  let modules = [ "app"; "lib.so"; "gone" ] in
  let gen =
    pair
      (list_size (int_range 0 60) (triple (int_range 0 1) (int_range 0 400) (int_range 1 40)))
      (list_size (int_range 0 40) (triple (oneofl modules) (int_range 0 420) (int_range 1 60)))
  in
  QCheck.Test.make ~name:"sliced_away matches a linear span scan" ~count:300 (QCheck.make gen)
    (fun (bbs, in_slice) ->
      let log =
        {
          Drcov.modules =
            List.mapi
              (fun i n -> { Drcov.mi_id = i; mi_name = n; mi_base = 0L; mi_end = 0x1000L })
              [ "app"; "lib.so" ];
          bbs =
            List.mapi
              (fun seq (m, off, size) ->
                { Drcov.bb_mod = m; bb_off = off; bb_size = size; bb_seq = seq })
              bbs;
        }
      in
      let r = Tracediff.sliced_away ~keep_module:(fun _ -> true) ~covered:[ log ] ~in_slice () in
      let hit (b : Covgraph.block) =
        List.exists
          (fun (m, off, len) ->
            m = b.Covgraph.b_module
            && off < b.Covgraph.b_off + b.Covgraph.b_size
            && b.Covgraph.b_off < off + len)
          in_slice
      in
      r.Tracediff.sliced
      = List.filter (fun b -> not (hit b)) (Covgraph.blocks (Covgraph.of_log log)))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_diff_soundness;
    QCheck_alcotest.to_alcotest prop_diff_completeness;
    QCheck_alcotest.to_alcotest prop_merge_commutative;
    QCheck_alcotest.to_alcotest prop_merge_idempotent;
    Alcotest.test_case "normalize splits straddling blocks" `Quick
      test_normalize_splits_straddling_block;
    Alcotest.test_case "normalize keeps unknown modules" `Quick
      test_normalize_keeps_unknown_modules;
    QCheck_alcotest.to_alcotest prop_normalize_matches_reference;
    QCheck_alcotest.to_alcotest prop_patch_restore_identity;
    Alcotest.test_case "unmap/remap roundtrip" `Quick test_unmap_remap_preserves_content;
    Alcotest.test_case "restore rejects live pid" `Quick test_restore_rejects_live_pid;
    Alcotest.test_case "cut of unmapped module rolls back" `Quick
      test_cut_unknown_module_rolls_back;
    QCheck_alcotest.to_alcotest prop_cut_reenable_image_roundtrip;
    Alcotest.test_case "funcbounds label grouping" `Quick test_funcbounds_groups_labels;
    Alcotest.test_case "gadget census drops after wipe" `Quick test_gadget_census_drops_after_wipe;
    Alcotest.test_case "gadget scan of wiped region" `Quick test_gadget_scan_trap_region;
    Alcotest.test_case "gadget suffixes counted" `Quick test_gadget_scan_counts_ret_suffixes;
    Alcotest.test_case "PLT liveness classification" `Quick test_pltlive_classification;
    QCheck_alcotest.to_alcotest prop_sliced_away_matches_scan;
  ]
