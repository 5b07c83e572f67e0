(** Tests for lib/slice/: def/use table exhaustiveness over the vx86
    ISA, the hash-consed depset algebra against a sorted-list
    reference, abstract-memory properties against a naive byte-map
    model, the dataflow slicing tracer end-to-end on rkv (including
    sampled tracing and the counterexample journal), the default-seed
    slices of rkv and ltpd pinned exactly, and determinism pinning of
    the splitmix64 stream every seeded component draws from. *)

(* ---------- Defuse: per-instruction def/use tables ---------- *)

(* The census is the exhaustiveness contract from both sides: [effect]
   fails to compile when a constructor lacks a match arm, and this
   count fails when [all_constructors] lags a new constructor. *)
let test_defuse_census () =
  Alcotest.(check int)
    "one sample per Insn.t constructor" 39
    (List.length Defuse.all_constructors);
  (* every arm evaluates without raising *)
  List.iter
    (fun i -> ignore (Defuse.effect i))
    Defuse.all_constructors

let test_defuse_control_matches_block_ends () =
  List.iter
    (fun i ->
      let e = Defuse.effect i in
      let straight = e.Defuse.control = Defuse.Straight in
      Alcotest.(check bool)
        (Format.asprintf "control class of %a agrees with is_block_end"
           Insn.pp i)
        (not (Insn.is_block_end i))
        straight)
    Defuse.all_constructors

let test_defuse_access_widths () =
  List.iter
    (fun i ->
      let e = Defuse.effect i in
      List.iter
        (fun (a : Defuse.access) ->
          if a.Defuse.a_len <> 1 && a.Defuse.a_len <> 8 then
            Alcotest.failf "%a: access width %d" Insn.pp i a.Defuse.a_len)
        (e.Defuse.loads @ e.Defuse.stores))
    Defuse.all_constructors

let test_defuse_spot_checks () =
  let e = Defuse.effect (Insn.Mov_rr (Reg.Rcx, Reg.Rdx)) in
  Alcotest.(check bool) "mov defs dst" true (e.Defuse.defs = [ Reg.Rcx ]);
  Alcotest.(check bool) "mov uses src" true (e.Defuse.uses = [ Reg.Rdx ]);
  let cmp = Defuse.effect (Insn.Cmp_rr (Reg.Rax, Reg.Rbx)) in
  Alcotest.(check bool) "cmp defines flags" true cmp.Defuse.defs_flags;
  Alcotest.(check bool) "cmp leaves regs" true (cmp.Defuse.defs = []);
  let jcc = Defuse.effect (Insn.Jcc (Insn.Eq, 4)) in
  Alcotest.(check bool) "jcc reads flags" true jcc.Defuse.uses_flags;
  Alcotest.(check bool)
    "jcc is a decision" true
    (jcc.Defuse.control = Defuse.Cond_jump);
  let sys = Defuse.effect Insn.Syscall in
  Alcotest.(check bool)
    "syscall crosses the kernel boundary" true
    (sys.Defuse.control = Defuse.Sys);
  Alcotest.(check bool)
    "syscall defines rax" true
    (List.mem Reg.Rax sys.Defuse.defs);
  let ret = Defuse.effect Insn.Ret in
  Alcotest.(check bool)
    "ret pops a control level" true
    (ret.Defuse.control = Defuse.Return);
  Alcotest.(check bool)
    "ret loads the return slot" true
    (List.exists
       (fun (a : Defuse.access) -> a.Defuse.a_base = Reg.Rsp)
       ret.Defuse.loads)

(* ---------- Depset: hash-consed bitsets vs a sorted-list reference ---------- *)

type depset_op = Single of int | Union of int * int

(* ids crowd the word boundaries (63 ids per word) as well as spreading
   over several words *)
let gen_depset_ops : depset_op list QCheck.Gen.t =
  let open QCheck.Gen in
  let id = oneof [ oneofl [ 0; 1; 61; 62; 63; 64; 125; 126; 127; 188; 189 ]; int_bound 300 ] in
  list_size (int_range 1 60)
    (frequency [ (2, map (fun i -> Single i) id); (3, map2 (fun a b -> Union (a, b)) nat nat) ])

let show_depset_op = function
  | Single i -> Printf.sprintf "S%d" i
  | Union (a, b) -> Printf.sprintf "U(%d,%d)" a b

(* Replay the ops in a fresh universe next to a sorted-unique int-list
   reference; [Union] indexes the sets built so far. Then: [elements]
   is the reference, equal sets are one [sid] (rebuilt in reverse order
   too), and [union] is commutative, idempotent and has the empty set as
   identity. *)
let prop_depset_reference =
  QCheck.Test.make ~name:"depset algebra matches a sorted-list reference" ~count:300
    (QCheck.make ~print:(QCheck.Print.list show_depset_op) gen_depset_ops)
    (fun ops ->
      let ds = Depset.create () in
      let empty = Depset.empty in
      let built = ref [| (empty, []) |] in
      List.iter
        (fun op ->
          let sets = !built in
          let pick i = sets.(i mod Array.length sets) in
          let s =
            match op with
            | Single i -> (Depset.singleton ds i, [ i ])
            | Union (a, b) ->
                let sa, ra = pick a and sb, rb = pick b in
                (Depset.union ds sa sb, List.sort_uniq compare (ra @ rb))
          in
          built := Array.append sets [| s |])
        ops;
      let sets = !built in
      Array.for_all
        (fun (s, r) ->
          Depset.elements ds s = r
          && (s = empty) = (r = [])
          && s < Depset.count ds
          && Depset.union ds empty s = s
          && Depset.union ds s empty = s
          && Depset.union ds s s = s
          && List.fold_left
               (fun acc i -> Depset.union ds acc (Depset.singleton ds i))
               empty (List.rev r)
             = s
          && Array.for_all
               (fun (s', r') ->
                 (r = r') = (s = s')
                 && Depset.union ds s s' = Depset.union ds s' s
                 && Depset.union ds s (Depset.union ds s s') = Depset.union ds s s')
               sets)
        sets)

(* ---------- Absmem: range map vs a byte-map model ---------- *)

(* Payloads over [addr, addr+len), one per overlapping range, in
   address order. *)
let per_range m ~addr ~len = List.rev (Absmem.fold m ~addr ~len (fun acc p -> p :: acc) [])

(* The same, deduplicated: what the window's bytes carry. *)
let read m ~addr ~len = List.fold_left (fun acc p -> if List.mem p acc then acc else acc @ [ p ]) [] (per_range m ~addr ~len)

let test_absmem_strong_update_and_coalescing () =
  let m = Absmem.create () in
  Alcotest.(check (list int)) "a fresh map knows nothing" [] (read m ~addr:0 ~len:16);
  Absmem.write m ~addr:0 ~len:8 1;
  Absmem.write m ~addr:8 ~len:8 1;
  Alcotest.(check int) "adjacent equal ranges coalesce" 1 (Absmem.cardinal m);
  Alcotest.(check (list int)) "read sees one payload" [ 1 ]
    (read m ~addr:0 ~len:16);
  Absmem.write m ~addr:4 ~len:4 2;
  Alcotest.(check int) "strong update splits" 3 (Absmem.cardinal m);
  Alcotest.(check (list int))
    "overwritten span carries the new payload" [ 2 ]
    (read m ~addr:4 ~len:4);
  Alcotest.(check (list int))
    "fold passes a payload once per range" [ 1; 2; 1 ]
    (per_range m ~addr:0 ~len:16);
  Alcotest.(check (list int))
    "overlap read dedups repeated payloads" [ 1; 2 ]
    (read m ~addr:0 ~len:16);
  Absmem.write m ~addr:4 ~len:4 1;
  Alcotest.(check int) "re-equalized ranges re-coalesce" 1 (Absmem.cardinal m);
  Alcotest.(check (list int)) "nothing outside the written span" []
    (read m ~addr:16 ~len:16)

(* Seeded random write/read workload checked against a per-byte model:
   every model byte lies in exactly one range, carrying its payload; no
   range covers a byte the model lacks; and the range count equals the
   model's count of maximal equal-payload runs, so no two touching
   ranges carry equal payloads. [window] draws each access's (addr,
   len). *)
let absmem_model_run ~seed ~window =
  let rng = Rng.create seed in
  let m = Absmem.create () in
  let model = Hashtbl.create 512 in
  let span = 160 in
  let top = ref 0 in
  let check_invariants () =
    let runs = ref 0 in
    for addr = 0 to !top do
      let byte = Hashtbl.find_opt model addr in
      (match byte with
      | Some p ->
          if per_range m ~addr ~len:1 <> [ p ] then
            Alcotest.failf "model byte %d is not in exactly one range carrying %d" addr p;
          if Hashtbl.find_opt model (addr - 1) <> byte then incr runs
      | None ->
          if per_range m ~addr ~len:1 <> [] then
            Alcotest.failf "a range covers byte %d, which the model lacks" addr)
    done;
    if Absmem.cardinal m <> !runs then
      Alcotest.failf "%d ranges for %d maximal runs: uncoalesced neighbours"
        (Absmem.cardinal m) !runs
  in
  for step = 1 to 1_500 do
    let addr, len = window rng span in
    top := max !top (addr + len);
    if Rng.int rng 4 = 0 then begin
      (* read: same payload set as the model over the window *)
      let expected = ref [] in
      for k = 0 to len - 1 do
        match Hashtbl.find_opt model (addr + k) with
        | Some p when not (List.mem p !expected) -> expected := p :: !expected
        | _ -> ()
      done;
      let got = read m ~addr ~len in
      Alcotest.(check (list int))
        (Printf.sprintf "step %d: read payload set" step)
        (List.sort_uniq compare !expected)
        (List.sort_uniq compare got)
    end
    else begin
      let p = Rng.int rng 6 in
      Absmem.write m ~addr ~len p;
      for k = 0 to len - 1 do
        Hashtbl.replace model (addr + k) p
      done
    end;
    if step mod 250 = 0 then check_invariants ()
  done;
  check_invariants ()

let random_window rng span = (Rng.int rng span, 1 + Rng.int rng 16)

(* Two seeded runs: random windows only, then stack-like traffic — three
   in four accesses are 8-byte-aligned 8-byte pushes and pops, which hit
   the exact-range fast paths of [fold] and [write] — mixed with the
   random windows that split and coalesce around them. *)
let test_absmem_model_equivalence () =
  absmem_model_run ~seed:11 ~window:random_window;
  absmem_model_run ~seed:12 ~window:(fun rng span ->
      if Rng.int rng 4 = 0 then random_window rng span
      else (8 * Rng.int rng (span / 8), 8))

(* ---------- Slicer: end-to-end on rkv ---------- *)

let overlaps (b : Covgraph.block) (m, off, len) =
  m = b.Covgraph.b_module
  && off < b.Covgraph.b_off + b.Covgraph.b_size
  && b.Covgraph.b_off < off + len

let test_slicer_end_to_end () =
  let p = Slicelab.profile Workload.rkv in
  let st = p.Slicelab.p_stats in
  Alcotest.(check bool) "traced instructions" true (st.Slicer.st_insns > 0);
  Alcotest.(check bool) "anchored wanted outputs" true
    (st.Slicer.st_anchors > 0);
  Alcotest.(check bool) "nonempty slice" true (p.Slicelab.p_points <> []);
  Alcotest.(check int) "slice size matches stats" st.Slicer.st_slice_blocks
    (List.length p.Slicelab.p_points);
  Alcotest.(check bool) "sliced-away candidates found" true
    (p.Slicelab.p_blocks <> []);
  Alcotest.(check bool) "covered blocks counted" true
    (p.Slicelab.p_report.Tracediff.n_covered > 0);
  (* the class contract: no candidate block overlaps any slice span *)
  List.iter
    (fun b ->
      if List.exists (overlaps b) p.Slicelab.p_points then
        Alcotest.failf "sliced-away block %s+0x%x overlaps the slice"
          b.Covgraph.b_module b.Covgraph.b_off)
    p.Slicelab.p_report.Tracediff.sliced

let test_slicer_deterministic () =
  let a = Slicelab.profile ~seed:42 Workload.rkv in
  let b = Slicelab.profile ~seed:42 Workload.rkv in
  Alcotest.(check bool) "same seed, same slice points" true
    (a.Slicelab.p_points = b.Slicelab.p_points);
  Alcotest.(check bool) "same sliced-away candidates" true
    (a.Slicelab.p_blocks = b.Slicelab.p_blocks)

let test_slicer_sampled_deterministic () =
  let run () =
    Slicelab.profile ~sample:(Rng.create 9, 0.3) Workload.rkv
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "sampling actually skipped connections" true
    (a.Slicelab.p_stats.Slicer.st_sampled_off > 0);
  Alcotest.(check int) "same seeded sampling decisions"
    a.Slicelab.p_stats.Slicer.st_sampled_off
    b.Slicelab.p_stats.Slicer.st_sampled_off;
  Alcotest.(check bool) "sampled slice replays bit-for-bit" true
    (a.Slicelab.p_points = b.Slicelab.p_points)

let test_slicer_counterexample_journal () =
  let p = Slicelab.profile Workload.rkv in
  let sl = p.Slicelab.p_slicer in
  let before = List.length (Slicer.slice sl) in
  Slicer.add_counterexample sl ~module_:"rkv" ~off:0x7fff00;
  Slicer.add_counterexample sl ~module_:"rkv" ~off:0x7fff00;
  let cexs = Slicer.counterexamples sl in
  Alcotest.(check (list (pair string int)))
    "counterexamples dedup" [ ("rkv", 0x7fff00) ] cexs;
  let points = Slicer.slice sl in
  Alcotest.(check int) "counterexample re-joins once" (before + 1)
    (List.length points);
  Alcotest.(check bool) "re-joined with unit extent" true
    (List.mem ("rkv", 0x7fff00, 1) points);
  Alcotest.(check int) "stats count it" 1
    (Slicer.stats sl).Slicer.st_counterexamples

(* After verifier convergence the kept cut is quiescent: more wanted
   traffic produces no new feedback, so nothing gets spuriously
   restored. *)
let test_converged_cut_is_quiescent () =
  let p = Slicelab.profile Workload.rkv in
  let v =
    Slicelab.cut_and_converge Workload.rkv ~blocks:p.Slicelab.p_blocks ()
  in
  (match v.Slicelab.v_rollout with
  | Supervisor.R_promoted -> ()
  | r ->
      Alcotest.failf "sliced cut not promoted: %a" Supervisor.pp_rollout r);
  Alcotest.(check bool) "some candidates survive convergence" true
    (v.Slicelab.v_kept <> []);
  List.iter
    (fun r -> ignore (Workload.rpc v.Slicelab.v_ctx r))
    (Slicelab.drive_requests Workload.rkv);
  Alcotest.(check int) "no spurious verifier feedback after convergence" 0
    (Supervisor.verifier_feedback v.Slicelab.v_sup)

(* The slices themselves are pinned: points, candidate blocks and every
   stats field of the default-seed profile of rkv and ltpd. A host-side
   change to the slicer (set representation, table keys, memory-model
   fast paths) must leave all of them byte-identical — [st_sets] pins
   the interning order of the hash-consed depsets too. Points and
   blocks are compared by count and by an MD5 of their rendering. *)
let test_slices_pinned () =
  let render_points l =
    String.concat ";" (List.map (fun (m, o, n) -> Printf.sprintf "%s+%x/%d" m o n) l)
  in
  let render_blocks l =
    String.concat ";"
      (List.map
         (fun b ->
           Printf.sprintf "%s+%x/%d" b.Covgraph.b_module b.Covgraph.b_off b.Covgraph.b_size)
         l)
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (app, n_points, points_md5, n_blocks, blocks_md5, stats) ->
      let p = Slicelab.profile app in
      let name = app.Workload.a_name in
      let chk what = Alcotest.(check int) (name ^ ": " ^ what) in
      chk "slice points" n_points (List.length p.Slicelab.p_points);
      Alcotest.(check string) (name ^ ": slice points digest") points_md5
        (md5 (render_points p.Slicelab.p_points));
      chk "sliced-away blocks" n_blocks (List.length p.Slicelab.p_blocks);
      Alcotest.(check string) (name ^ ": blocks digest") blocks_md5
        (md5 (render_blocks p.Slicelab.p_blocks));
      let s = p.Slicelab.p_stats in
      List.iter2
        (fun (what, v) expected -> chk what expected v)
        [
          ("st_insns", s.Slicer.st_insns);
          ("st_blocks_seen", s.Slicer.st_blocks_seen);
          ("st_slice_blocks", s.Slicer.st_slice_blocks);
          ("st_anchors", s.Slicer.st_anchors);
          ("st_sets", s.Slicer.st_sets);
          ("st_mem_ranges", s.Slicer.st_mem_ranges);
          ("st_counterexamples", s.Slicer.st_counterexamples);
          ("st_sampled_off", s.Slicer.st_sampled_off);
        ]
        stats)
    [
      ( Workload.rkv, 172, "c65e042cf6583910b9ed717d6bb7b474", 204,
        "fb5b9cdc99d8da0c628db6be8004fbb8", [ 28341; 402; 172; 1; 1022; 33; 0; 0 ] );
      ( Workload.ltpd, 279, "7c2143fde461a09d3f76e850b0b90f00", 35,
        "6fa81d02cf4a2d65c63c87d62a45c553", [ 96674; 317; 279; 6; 821; 22; 0; 0 ] );
    ]

(* ---------- allocation gate ---------- *)

(* Minor words allocated by one default-seed profile of rkv, boot to
   report, per instruction the slicer traced: exact on a given build,
   after one warm-up profile has made every registry series and lazy
   table. The bound was recorded when the slicer's step moved into the
   machine's traced slot loop (13.98 measured; 18.15 before it). Raise
   it only for a named reason, in CHANGES.md. *)
let words_per_traced_insn_bound = 14.0

let test_slice_allocation_gate () =
  ignore (Slicelab.profile Workload.rkv : Slicelab.profile);
  let w0 = Gc.minor_words () in
  let p = Slicelab.profile Workload.rkv in
  let words = Gc.minor_words () -. w0 in
  let per_insn = words /. float_of_int p.Slicelab.p_stats.Slicer.st_insns in
  if per_insn > words_per_traced_insn_bound then
    Alcotest.failf "one rkv profile: %.2f minor words per traced instruction, bound %.2f" per_insn
      words_per_traced_insn_bound

(* ---------- Rng: splitmix64 stream pinning ---------- *)

(* Chaos schedules, sampled slicing and the guest rand syscall all
   replay from this stream; pin its exact values so an algorithm change
   cannot silently invalidate recorded seeds. *)
let test_rng_pinned_stream () =
  let r = Rng.create 42 in
  List.iter
    (fun expected ->
      Alcotest.(check int64) "splitmix64(seed=42)" expected (Rng.next_i64 r))
    [
      0xbdd732262feb6e95L;
      0x28efe333b266f103L;
      0x47526757130f9f52L;
      0x581ce1ff0e4ae394L;
    ];
  let r7 = Rng.create 7 in
  Alcotest.(check (list int))
    "bounded draws (seed=7)"
    [ 621; 951; 336; 50; 918; 76 ]
    (List.init 6 (fun _ -> Rng.int r7 1000))

let suite =
  [
    Alcotest.test_case "defuse constructor census" `Quick test_defuse_census;
    Alcotest.test_case "defuse control vs block ends" `Quick
      test_defuse_control_matches_block_ends;
    Alcotest.test_case "defuse access widths" `Quick test_defuse_access_widths;
    Alcotest.test_case "defuse spot checks" `Quick test_defuse_spot_checks;
    QCheck_alcotest.to_alcotest prop_depset_reference;
    Alcotest.test_case "absmem strong update + coalescing" `Quick
      test_absmem_strong_update_and_coalescing;
    Alcotest.test_case "absmem model equivalence" `Quick
      test_absmem_model_equivalence;
    Alcotest.test_case "slicer end-to-end (rkv)" `Quick test_slicer_end_to_end;
    Alcotest.test_case "slicer determinism" `Quick test_slicer_deterministic;
    Alcotest.test_case "sampled slicing determinism" `Quick
      test_slicer_sampled_deterministic;
    Alcotest.test_case "counterexample journal" `Quick
      test_slicer_counterexample_journal;
    Alcotest.test_case "converged cut is quiescent" `Quick
      test_converged_cut_is_quiescent;
    Alcotest.test_case "slices pinned (rkv, ltpd)" `Quick test_slices_pinned;
    Alcotest.test_case "allocation gate: words per traced instruction" `Quick
      test_slice_allocation_gate;
    Alcotest.test_case "rng pinned stream" `Quick test_rng_pinned_stream;
  ]
