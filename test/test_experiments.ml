(** Smoke tests for the experiments layer: the cheap experiments run end
    to end and their invariants hold (the expensive ones are exercised by
    [bench/main.exe], whose output is archived in bench_output.txt). *)

let null_fmt =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let test_timeline_math () =
  let tr =
    Timeline.make ~name:"t" ~total:200
      [
        { Timeline.ph_label = "a"; ph_time = 0.; ph_live = 100 };
        { Timeline.ph_label = "b"; ph_time = 1.; ph_live = 50 };
        { Timeline.ph_label = "c"; ph_time = 2.; ph_live = 0 };
      ]
  in
  Alcotest.(check (float 1e-9)) "max %" 50. (Timeline.max_live_percent tr);
  let flat = Timeline.flat ~name:"f" ~total:200 ~kept:80 ~times:[ 0.; 1. ] in
  Alcotest.(check (float 1e-9)) "flat %" 40. (Timeline.max_live_percent flat);
  Alcotest.(check int) "flat phases" 2 (List.length flat.Timeline.tr_phases)

let test_fig2_percentages_sum () =
  let r = Fig2.classify ~app:(Workload.spec_app Spec.mcf) in
  let total = r.Fig2.f2_pct_never +. r.Fig2.f2_pct_init +. r.Fig2.f2_pct_serving in
  Alcotest.(check bool)
    (Printf.sprintf "sums to ~100 (got %.1f)" total)
    true
    (abs_float (total -. 100.) < 0.5);
  Alcotest.(check bool) "cells exist" true (Array.length r.Fig2.f2_cells > 10)

let test_fig2_ltpd_has_all_three_classes () =
  let r = Fig2.classify ~app:Workload.ltpd in
  Alcotest.(check bool) "never-executed present" true (r.Fig2.f2_pct_never > 5.);
  Alcotest.(check bool) "init-only present" true (r.Fig2.f2_pct_init > 5.);
  Alcotest.(check bool) "serving present" true (r.Fig2.f2_pct_serving > 20.)

let test_fig4_finds_set_feature () =
  let r = Fig4.run null_fmt in
  Alcotest.(check bool) "found blocks" true (r.Fig4.f4_filtered > 5);
  Alcotest.(check bool) "filtering never adds" true (r.Fig4.f4_filtered <= r.Fig4.f4_raw);
  (* the core SET machinery must be named *)
  let syms = List.map snd r.Fig4.f4_blocks in
  let mentions prefix =
    List.exists
      (fun s -> String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix)
      syms
  in
  Alcotest.(check bool) "rkv_cmd_set listed" true (mentions "rkv_cmd_set" || mentions "rkv_feat_set");
  Alcotest.(check bool) "dispatcher edge listed" true (mentions "rkv_dispatch")

let test_common_feature_blocks_app_only () =
  (* the default tracediff filter drops library blocks *)
  List.iter
    (fun (b : Covgraph.block) ->
      Alcotest.(check bool) "not a .so" false (Covgraph.is_shared_library b.Covgraph.b_module))
    (Common.web_feature_blocks Workload.ltpd)

let test_common_init_blocks_include_libc () =
  (* init identification keeps library blocks (they are wiped too) *)
  let blocks, _, _ = Common.init_only_blocks Workload.ltpd in
  Alcotest.(check bool) "libc init code found" true
    (List.exists (fun (b : Covgraph.block) -> b.Covgraph.b_module = "libc.so") blocks)

(* fig7's [measure] on one server: its sealed images decode, and the
   wiped tree still serves *)
let test_fig7_measure () =
  let r = Fig7.measure Workload.ltpd in
  Alcotest.(check bool) "image sizes read from the sealed dumps" true (r.Fig7.f7_image_size > 0);
  Alcotest.(check bool) "init blocks removed" true (r.Fig7.f7_blocks_removed > 0);
  Alcotest.(check bool) "still serves" true r.Fig7.f7_validated

let suite =
  [
    Alcotest.test_case "timeline math" `Quick test_timeline_math;
    Alcotest.test_case "fig2 percentages sum to 100" `Quick test_fig2_percentages_sum;
    Alcotest.test_case "fig2 ltpd three classes" `Quick test_fig2_ltpd_has_all_three_classes;
    Alcotest.test_case "fig4 finds the SET feature" `Quick test_fig4_finds_set_feature;
    Alcotest.test_case "feature blocks exclude libraries" `Quick test_common_feature_blocks_app_only;
    Alcotest.test_case "init blocks include libc" `Quick test_common_init_blocks_include_libc;
    Alcotest.test_case "fig7 measure (ltpd)" `Quick test_fig7_measure;
  ]
