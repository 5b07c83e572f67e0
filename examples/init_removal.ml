(** Temporal debloating of a compute workload (Figures 7 and 9): the
    600.perlbench_s stand-in spends a large share of its executed blocks
    on initialization; once the "init done" log line appears, that code
    is dead weight — wipe it and let the program finish.

    The example verifies the rewritten process produces *exactly* the
    same result as an untouched run.

    Run with: dune exec examples/init_removal.exe *)

let result_line (c : Workload.ctx) =
  Workload.console c |> String.split_on_char '\n'
  |> List.find_opt (fun l ->
         let n = String.length l and sub = "result" in
         let sl = String.length sub in
         let rec go i = i + sl <= n && (String.sub l i sl = sub || go (i + 1)) in
         go 0)
  |> Option.value ~default:"?"

let () =
  let k = Spec.perlbench in
  let app = Workload.spec_app k in

  (* baseline: vanilla run to completion *)
  let v = Workload.boot app in
  let (_ : Proc.state) = Workload.run_to_exit v in
  let baseline = result_line v in
  Printf.printf "vanilla result:   %s\n" baseline;

  (* profile the init phase with the nudge protocol *)
  let init_blocks, init_log, serving_log = Common.init_only_blocks app in
  Printf.printf "coverage: %d init blocks, %d serving blocks; %d init-only\n"
    (Drcov.bb_count init_log) (Drcov.bb_count serving_log) (List.length init_blocks);

  (* fresh run: wipe the init code right after the banner, then finish *)
  let c = Workload.boot app in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let _, t =
    Dynacut.cut session ~blocks:init_blocks
      ~policy:{ Dynacut.method_ = `Wipe; on_trap = `Kill }
  in
  Format.printf "wiped %d blocks: %a@." (List.length init_blocks) Dynacut.pp_timings t;
  (match Workload.run_to_exit c with
  | Proc.Exited 0 -> ()
  | st -> failwith ("rewritten run ended with " ^ Proc.state_to_string st));
  let customized = result_line c in
  Printf.printf "customized result: %s\n" customized;
  assert (baseline = customized);
  Printf.printf "results identical; %.1f%% of executed blocks were init-only\n"
    (100.
    *. float_of_int (List.length init_blocks)
    /. float_of_int (Drcov.bb_count init_log + Drcov.bb_count serving_log));
  print_endline "init removal OK"
