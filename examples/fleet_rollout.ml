(** Fleet orchestration end-to-end (DESIGN.md §6a), deterministic from
    one seed:

    1. boot 6 ltpd workers behind the least-loaded balancer and
       roll the PUT/DELETE cut out in 3 waves; during wave 3 the traffic
       turns PUT-heavy, the wave's canary breaches its trap SLO, and the
       rollout halts — waves 1–2 stay cut, wave 3 stays original, and
       the fleet still serves GETs;
    2. the whole scenario runs twice from the same seed and must produce
       byte-identical [Obs.dump_json] output.

    Run with: dune exec examples/fleet_rollout.exe *)

exception Demo_failure of string

let fail fmt = Printf.ksprintf (fun s -> raise (Demo_failure s)) fmt

let app = Workload.ltpd
let n_workers = 6
let n_waves = 3
let put = Workload.http_put "/upload.txt" "hello upload"

let status resp =
  match String.index_opt resp ' ' with
  | Some k when String.length resp >= k + 4 -> String.sub resp (k + 1) 3
  | _ -> "???"

(* feature discovery is deterministic; do it once for both runs *)
let blocks = Common.web_feature_blocks app
let exe_base = (Common.app_exe app).Self.base

let byte_of m pid (b : Covgraph.block) =
  Mem.peek8 (Machine.proc_exn m pid).Proc.mem
    (Int64.add exe_base (Int64.of_int b.Covgraph.b_off))

(** Every effective block of [pid] is int3 (cut) XOR matches
    [originals] (byte-original). *)
let assert_state ~what m effective originals pid expect_cut =
  let got = List.map (byte_of m pid) effective in
  let all_cut = List.for_all (fun x -> x = 0xCC) got in
  let all_orig = got = originals in
  if not (all_cut || all_orig) then fail "%s: pid %d is half-patched" what pid;
  if expect_cut && not all_cut then fail "%s: pid %d should be cut" what pid;
  if (not expect_cut) && not all_orig then
    fail "%s: pid %d should be original" what pid

let run () : string =
  Obs.reset ();
  Fault.reset ();
  let policy =
    { Dynacut.method_ = `First_byte; on_trap = `Redirect "ltpd_403" }
  in
  let fleet = Fleet.boot ~seed:42 ~n:n_workers ~blocks ~policy app in
  let m = Fleet.machine fleet and pids = Fleet.pids fleet in
  let send reqs =
    List.iter (fun r -> ignore (Fleet.request fleet r)) reqs
  in
  let wanted_batch = Workload.web_wanted in
  let put_batch = List.init 24 (fun _ -> put) in

  (* 3-wave rollout; traffic turns PUT-heavy during wave 3 *)
  let drive () =
    let wave = int_of_float (Obs.gauge_value (Obs.gauge "fleet.wave")) in
    if wave >= n_waves then send put_batch else send wanted_batch
  in
  let outcome, reports =
    Fleet.rollout fleet ~config:Rollout.{ default_config with r_waves = n_waves }
      ~drive ()
  in
  (match outcome with
  | Rollout.Halted { wave; reason } when wave = n_waves ->
      Printf.printf "rollout: halted at wave %d (%s), %d waves committed\n"
        wave reason (List.length reports)
  | o -> fail "rollout did not halt at wave %d: %s" n_waves
           (Format.asprintf "%a" Rollout.pp_outcome o));
  let effective =
    let w = List.hd (Fleet.workers fleet) in
    Dynacut.redirect_filter w.Rollout.w_session ~sym:"ltpd_403" blocks
  in
  if effective = [] then fail "no effective blocks under the redirect filter";
  (* waves 1–2 committed and stayed cut; wave 3 reverted to original.
     originals are read from a wave-3 pid, still byte-original *)
  let wave_of pid = (Fleet.worker fleet ~pid).Rollout.w_wave in
  let wave3_pid = List.find (fun pid -> wave_of pid = n_waves) pids in
  let originals = List.map (byte_of m wave3_pid) effective in
  List.iter
    (fun pid ->
      assert_state ~what:"after halt" m effective originals pid
        (wave_of pid < n_waves))
    pids;
  (match Fleet.request fleet (Workload.http_get "/index.html") with
  | `Reply (_, resp) ->
      let s = status resp in
      if s <> "200" then fail "GET after the halt answered %s, not 200" s
  | `Refused -> fail "GET after the halt refused");

  (* the machine ran on its code cache throughout, so the byte-identity
     check below pins cached execution (bbcache.* counters included) *)
  if (Dispatch.stats m.Machine.dispatcher).Dispatch.st_hits = 0 then
    fail "the scenario never hit the code cache";
  Obs.dump_json ()

let () =
  match run () with
  | exception Demo_failure msg ->
      Printf.printf "fleet_rollout FAILED: %s\n" msg;
      exit 1
  | dump1 -> (
      match run () with
      | exception Demo_failure msg ->
          Printf.printf "fleet_rollout FAILED on replay: %s\n" msg;
          exit 1
      | dump2 ->
          if dump1 <> dump2 then begin
            Printf.printf
              "fleet_rollout FAILED: two runs from the same seed diverged\n";
            exit 1
          end;
          Printf.printf
            "replay: byte-identical Obs.dump_json across two runs (%d bytes)\n"
            (String.length dump1);
          Printf.printf "fleet_rollout: ok\n")
