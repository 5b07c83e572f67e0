(** Adaptive fleet orchestration end-to-end (DESIGN.md §6a) — the PR's
    acceptance scenario, deterministic from one seed:

    1. boot 6 ltpd workers behind the kernel's round-robin fan-out and
       roll the PUT/DELETE cut out in 3 waves; during wave 3 the traffic
       turns PUT-heavy, the wave's canary breaches its trap SLO, and the
       rollout halts — waves 1–2 stay cut, wave 3 stays original;
    2. the PUT-heavy traffic keeps hammering the cut workers: the drift
       monitor sees the fleet-wide trap storm and re-enables the feature
       everywhere — exactly one automatic re-enable;
    3. traffic goes back to the wanted mix: the feature coverage goes
       cold, and after the hysteresis the monitor re-cuts the whole
       fleet — exactly one automatic re-cut;
    4. the whole scenario runs twice from the same seed and must produce
       byte-identical [Obs.dump_json] output.

    Run with: dune exec examples/fleet_rollout.exe *)

exception Demo_failure of string

let fail fmt = Printf.ksprintf (fun s -> raise (Demo_failure s)) fmt

let app = Workload.ltpd
let n_workers = 6
let n_waves = 3
let put = Workload.http_put "/upload.txt" "hello upload"
let delete = Workload.http_delete "/upload.txt"

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
  let fleet, ctxs =
    Fleet.boot ~seed:42 ~traced:true ~n:n_workers ~blocks ~policy app
  in
  let m = Fleet.machine fleet and pids = Fleet.pids fleet in
  let send reqs =
    List.iter (fun r -> ignore (Fleet.request fleet r)) reqs
  in
  let wanted_batch = Workload.web_wanted in
  let put_batch = List.init 24 (fun _ -> put) in

  (* -- phase 1: 3-wave rollout; traffic turns PUT-heavy during wave 3 -- *)
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

  (* -- phase 2: the trap storm continues; one automatic re-enable -- *)
  Fleet.start_drift fleet
    ~config:
      Drift.
        {
          d_period = 50_000L;
          d_trap_threshold = 4;
          d_hysteresis = 2;
        }
    ~collector:(Workload.collector (List.hd ctxs))
    ();
  let actions = ref [] in
  let spin batch rounds =
    for _ = 1 to rounds do
      send batch;
      match Fleet.tick fleet with
      | Some a -> actions := a :: !actions
      | None -> ()
    done
  in
  spin put_batch 4;
  (match !actions with
  | [ Drift.Reenabled k ] ->
      Printf.printf "drift: re-enabled %d workers after the trap storm\n" k
  | l -> fail "expected exactly one re-enable, got %d actions" (List.length l));
  List.iter
    (fun pid -> assert_state ~what:"after reenable" m effective originals pid false)
    pids;
  (* warm window: clear the uploads on every worker. The deletes are
     routed per-worker directly — the health-scored balancer spreads a
     fleet batch by load, not position, so a broadcast through it can
     miss a worker and leave its occupied-slot scan warm under wanted
     GETs, blocking the re-cut forever *)
  List.iter (fun c -> ignore (Workload.rpc c delete)) ctxs;
  (match Fleet.tick fleet with
  | Some a ->
      fail "cleanup round acted: %s" (Format.asprintf "%a" Drift.pp_action a)
  | None -> ());

  (* -- phase 3: traffic reverts to wanted; one automatic re-cut -- *)
  actions := [];
  spin wanted_batch 4;
  (match !actions with
  | [ Drift.Recut k ] ->
      Printf.printf "drift: re-cut %d workers after the cold streak\n" k
  | l -> fail "expected exactly one re-cut, got %d actions" (List.length l));
  List.iter
    (fun pid -> assert_state ~what:"after recut" m effective originals pid true)
    pids;
  (* the recut fleet blocks the feature again *)
  (match Fleet.request fleet put with
  | `Reply (_, resp) ->
      let s = status resp in
      if s <> "403" then fail "PUT after recut answered %s, not 403" s
  | `Refused | `Shed | `Timed_out _ -> fail "PUT after recut refused");
  (match Fleet.request fleet (Workload.http_get "/index.html") with
  | `Reply (_, resp) ->
      let s = status resp in
      if s <> "200" then fail "GET after recut answered %s, not 200" s
  | `Refused | `Shed | `Timed_out _ -> fail "GET after recut refused");

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
