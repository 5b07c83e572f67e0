(** Deterministic chaos engine (DESIGN.md §6c).

    Two complementary halves:

    - {!run}: execute one {!Schedule.t} against a live web-server fleet
      — traffic, a rolling rollout, more traffic — arming each event off
      its trigger, treating typed pipeline failures as clean refusals,
      recovering from controller deaths, and finally checking the
      {!Oracle} invariants once faults clear. Everything draws from
      {!Rng} seeded by the schedule, so a run replays bit-for-bit.

    - {!probe}: one directed (site, mode) scenario from
      {!probe_driver}, the one per-site table — it provably reaches the
      site, strikes it exactly once, and asserts the uniform contract:
      a kill killed the controller there, every pid is
      applied-XOR-unchanged (and, after a kill, on its expected side),
      recovery converges, and the app serves. {!coverage_matrix} runs it
      for every registered site in every {!Fault.applicable_modes} mode
      (the [bench chaos] gate: no unexercised applicable mode); its
      [Kill] column is the crash-recovery matrix
      ([examples/crash_matrix.ml]). *)

let get = "GET /index.html HTTP/1.0\r\n\r\n"

let status resp =
  match String.index_opt resp ' ' with
  | Some k when String.length resp >= k + 4 -> String.sub resp (k + 1) 3
  | _ -> "???"

(* typed failures the engine treats as a clean refusal: the operation
   was denied, nothing is half-done. Anything outside this domain is a
   host bug and propagates. *)
let refusal_of_exn : exn -> string option = function
  | Fault.Injected { site; _ } -> Some (Printf.sprintf "injected at %s" site)
  | Fault.Storage_error { site; kind } ->
      Some (Printf.sprintf "%s at %s" (Fault.storage_kind_to_string kind) site)
  | Journal.Busy { txid } -> Some (Printf.sprintf "journal busy (tx %d)" txid)
  | Journal.Fenced { epoch; lock_epoch } ->
      Some (Printf.sprintf "fenced (epoch %d, lock %d)" epoch lock_epoch)
  | Dynacut.Dynacut_error m -> Some (Printf.sprintf "dynacut: %s" m)
  | Validate.Validate_error m -> Some (Printf.sprintf "validate: %s" m)
  | Restore.Restore_error m -> Some (Printf.sprintf "restore: %s" m)
  | Net.Refused _ -> Some "connection refused"
  | Fleet.Fleet_error m -> Some (Printf.sprintf "fleet: %s" m)
  | Balancer.Balancer_error m -> Some (Printf.sprintf "balancer: %s" m)
  | _ -> None

(* one fleet request as rollout traffic: refusals are part of the run *)
let drive_fleet fleet () =
  match Fleet.request fleet get with
  | (_ : [ `Reply of int * string | `Refused ]) -> ()
  | exception e when refusal_of_exn e <> None -> ()

(* ---------- the fleet executor ---------- *)

(* the redirect symbol each web server exports for degraded requests *)
let redirect_sym (app : Workload.app) =
  match app.Workload.a_name with
  | "ltpd" -> "ltpd_403"
  | "ngx" -> "ngx_declined"
  | n -> invalid_arg (Printf.sprintf "Chaos: no redirect symbol for %s" n)

(* feature blocks per app, computed once — tracing is expensive. A
   scenario calls this before it boots its machine under test (the
   tracing creates machines, and the Obs clock and Fault hooks follow
   the last one created); later calls are memo hits *)
let blocks_cache : (string, Covgraph.block list) Hashtbl.t = Hashtbl.create 4

let blocks_for (app : Workload.app) =
  match Hashtbl.find_opt blocks_cache app.Workload.a_name with
  | Some b -> b
  | None ->
      let b = Common.web_feature_blocks app in
      Hashtbl.add blocks_cache app.Workload.a_name b;
      b

(* the XOR oracle over a booted fleet's redirect-effective feature
   blocks *)
let fleet_oracle (app : Workload.app) fleet =
  let w = List.hd (Fleet.workers fleet) in
  Oracle.make (Fleet.machine fleet) ~base:(Common.app_exe app).Self.base
    ~blocks:
      (Dynacut.redirect_filter w.Rollout.w_session ~sym:(redirect_sym app)
         (blocks_for app))
    ~pids:(Fleet.pids fleet)

type config = {
  c_app : Workload.app;  (** target web server (ltpd | ngx) *)
  c_workers : int;  (** fleet size *)
}

let default_config = { c_app = Workload.ltpd; c_workers = 4 }

(* the rollout's wave count *)
let waves = 2

(* liveness: cycles the fleet gets to serve again after faults clear
   (recovery + probe) *)
let recover_budget = 60_000_000

type report = {
  r_schedule : Schedule.t;
  r_fired : (string * Fault.mode) list;  (** events that actually struck *)
  r_notes : string list;  (** refusals, deaths, recoveries — the run trail *)
  r_violations : Oracle.violation list;
  r_recovery_cycles : int;  (** faults-clear to first served reply *)
  r_goodput : float;  (** post-fault served/offered *)
}

let passed r = r.r_violations = []

(* a stable fingerprint of everything that matters: used to prove a
   replayed schedule reproduces the run bit-for-bit *)
let report_digest (r : report) : int64 =
  Validate.checksum
    (String.concat "|"
       (Format.asprintf "%a" Schedule.pp r.r_schedule
       :: Printf.sprintf "recovery=%d" r.r_recovery_cycles
       :: Printf.sprintf "goodput=%.3f" r.r_goodput
       :: List.map
            (fun (s, m) -> Printf.sprintf "%s:%s" s (Fault.mode_to_string m))
            r.r_fired
       @ r.r_notes
       @ List.map (Format.asprintf "%a" Oracle.pp_violation) r.r_violations))

let pp_report ppf (r : report) =
  Format.fprintf ppf "schedule %a@ fired=[%s]@ %s"
    Schedule.pp r.r_schedule
    (String.concat ";"
       (List.map
          (fun (s, m) -> Printf.sprintf "%s:%s" s (Fault.mode_to_string m))
          r.r_fired))
    (if passed r then "PASS"
     else
       String.concat "; "
         (List.map (Format.asprintf "%a" Oracle.pp_violation) r.r_violations))

(* per-event trigger state: armed/fired bookkeeping between slices *)
type ev_state = {
  es_event : Schedule.event;
  mutable es_armed : bool;
  mutable es_done : bool;
  es_base_fired : int;  (** [Fault.fired] at arm time *)
}

(** Run one schedule against a fresh [config.c_app] fleet (ltpd by
    default). [extra_oracle] lets a
    test add a deliberately broken invariant (the shrinker demo). *)
let run ?(config = default_config)
    ?(extra_oracle : (Oracle.ctx -> Oracle.violation list) option)
    (sched : Schedule.t) : report =
  Fault.reset ();
  Fault.seed sched.Schedule.sc_seed;
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let violations = ref [] in
  let app = config.c_app in
  let policy =
    { Dynacut.method_ = `First_byte; on_trap = `Redirect (redirect_sym app) }
  in
  (* boot happens clean: chaos starts once the fleet is ready *)
  let fleet =
    Fleet.boot ~seed:sched.Schedule.sc_seed ~n:config.c_workers
      ~blocks:(blocks_for app) ~policy app
  in
  let m = Fleet.machine fleet and pids = Fleet.pids fleet in
  let oracle = fleet_oracle app fleet in
  let t0 = m.Machine.clock in
  (* arm nth-occurrence events relative to now; windows arm in tick *)
  let states =
    List.map
      (fun (e : Schedule.event) ->
        (match e.Schedule.ev_trigger with
        | Schedule.Nth n ->
            Fault.arm_mode e.Schedule.ev_site
              (Fault.On_nth (Fault.hits e.Schedule.ev_site + n))
              e.Schedule.ev_mode
        | Schedule.Window _ -> ());
        {
          es_event = e;
          es_armed = (match e.Schedule.ev_trigger with Schedule.Nth _ -> true | _ -> false);
          es_done = false;
          es_base_fired = Fault.fired e.Schedule.ev_site;
        })
      sched.Schedule.sc_events
  in
  let tick () =
    let now = Int64.to_int (Int64.sub m.Machine.clock t0) in
    List.iter
      (fun es ->
        if not es.es_done then begin
          let site = es.es_event.Schedule.ev_site in
          if Fault.fired site > es.es_base_fired then es.es_done <- true
          else
            match es.es_event.Schedule.ev_trigger with
            | Schedule.Nth _ -> ()
            | Schedule.Window (a, b) ->
                if (not es.es_armed) && now >= a && now < b then begin
                  Fault.arm_mode site Fault.One_shot es.es_event.Schedule.ev_mode;
                  es.es_armed <- true
                end
                else if es.es_armed && now >= b then begin
                  Fault.disarm site;
                  es.es_armed <- false;
                  es.es_done <- true
                end
        end)
      states
  in
  (* controller deaths hand the fleet to a fresh recovery pass — with
     the surviving events still armed, so a second fault can strike the
     recovery itself. Events are one-shot, so this converges. *)
  let rec attempt_recover tries =
    if tries = 0 then
      violations :=
        Oracle.violation "recovery-stuck" "recovery did not converge"
        :: !violations
    else
      match Fleet.recover m ~pids with
      | (_ : Fleet.recovery) -> ()
      | exception Fault.Controller_killed { site } ->
          note "recovery died at %s" site;
          attempt_recover (tries - 1)
      | exception e -> (
          match refusal_of_exn e with
          | Some msg ->
              note "recovery refused: %s" msg;
              attempt_recover (tries - 1)
          | None -> raise e)
  in
  let request label =
    tick ();
    (match Fleet.request fleet get with
    | `Reply (pid, resp) -> note "%s: pid %d answered %s" label pid (status resp)
    | `Refused -> note "%s: refused" label
    | exception Fault.Controller_killed { site } ->
        note "%s: controller died at %s" label site;
        attempt_recover 6
    | exception e -> (
        match refusal_of_exn e with
        | Some msg -> note "%s: %s" label msg
        | None -> raise e));
    tick ()
  in
  (* phase 1: pre-rollout traffic (dispatch/serve sites in play) *)
  for i = 1 to 4 do
    request (Printf.sprintf "pre.%d" i)
  done;
  (* phase 2: the rolling rollout (cut-path + manifest sites in play) *)
  tick ();
  let rollout_config =
    Rollout.
      {
        r_waves = waves;
        r_sup = { Supervisor.default_config with Supervisor.canary_windows = 1 };
      }
  in
  (match Fleet.rollout fleet ~config:rollout_config ~drive:(drive_fleet fleet) () with
  | outcome, _ -> note "rollout: %s" (Format.asprintf "%a" Rollout.pp_outcome outcome)
  | exception Fault.Controller_killed { site } ->
      note "rollout: controller died at %s" site;
      attempt_recover 6
  | exception e -> (
      match refusal_of_exn e with
      | Some msg -> note "rollout: %s" msg
      | None -> raise e));
  tick ();
  (* phase 3: post-rollout traffic (windows keep opening/closing) *)
  for i = 1 to 6 do
    request (Printf.sprintf "post.%d" i)
  done;
  (* phase 4: clear every fault, then recover to a uniform fleet *)
  note "faults cleared at +%d cycles"
    (Int64.to_int (Int64.sub m.Machine.clock t0));
  List.iter (fun es -> es.es_done <- true) states;
  Fault.disarm_all ();
  let recovery =
    match Fleet.recover m ~pids with
    | r -> r
    | exception e -> (
        (match refusal_of_exn e with
        | Some msg -> note "final recovery refused: %s" msg
        | None -> raise e);
        Fleet.recover m ~pids)
  in
  (* safety oracles *)
  violations := Oracle.check_xor oracle @ !violations;
  violations :=
    Oracle.check_waves oracle
      ~plan:(Rollout.plan ~pids ~waves)
      ~recovery
    @ !violations;
  violations := Oracle.check_recover_idempotent oracle @ !violations;
  (match extra_oracle with
  | Some f -> violations := f oracle @ !violations
  | None -> ());
  (* liveness: the fleet must serve again within the budget *)
  let probe_start = m.Machine.clock in
  let rec probe k =
    if k = 0 then None
    else
      match Fleet.request fleet get with
      | `Reply (_, resp) when status resp = "200" ->
          Some (Int64.to_int (Int64.sub m.Machine.clock probe_start))
      | (_ : [ `Reply of int * string | `Refused ]) -> probe (k - 1)
      | exception e when refusal_of_exn e <> None -> probe (k - 1)
  in
  let recovery_cycles =
    match probe 8 with
    | Some c ->
        if c > recover_budget then
          violations :=
            Oracle.violation "liveness-budget"
              "served after %d cycles (budget %d)" c recover_budget
            :: !violations;
        c
    | None ->
        violations :=
          Oracle.violation "liveness-serving"
            "fleet never served again after faults cleared"
          :: !violations;
        recover_budget
  in
  (* liveness: of [offered] closed-loop requests at least half are
     served, and every one is served or cleanly refused *)
  let offered = 30 in
  let served = ref 0 and refused = ref 0 in
  for _ = 1 to offered do
    match Fleet.request fleet get with
    | `Reply (_, resp) when status resp = "200" -> incr served
    | `Reply _ -> ()
    | `Refused -> incr refused
    | exception e when refusal_of_exn e <> None -> incr refused
  done;
  violations :=
    Oracle.check_accounting ~offered ~served:!served ~refused:!refused
    @ !violations;
  violations :=
    Oracle.check_goodput ~floor:0.5 ~offered ~served:!served @ !violations;
  let goodput = float_of_int !served /. float_of_int offered in
  {
    r_schedule = sched;
    r_fired =
      List.filter_map
        (fun es ->
          if Fault.fired es.es_event.Schedule.ev_site > es.es_base_fired then
            Some (es.es_event.Schedule.ev_site, es.es_event.Schedule.ev_mode)
          else None)
        states;
    r_notes = List.rev !notes;
    r_violations = List.rev !violations;
    r_recovery_cycles = recovery_cycles;
    r_goodput = goodput;
  }

(* ---------- directed site × mode coverage ---------- *)

exception Probe_failure of string

let failp fmt = Printf.ksprintf (fun s -> raise (Probe_failure s)) fmt

(* the first oracle violation, if any, fails the probe *)
let expect ~what = function
  | [] -> ()
  | v :: _ -> failp "%s: %s" what (Format.asprintf "%a" Oracle.pp_violation v)

type outcome = [ `Completed | `Killed | `Refused of string ]

(* strike: run [op] with (site, mode) armed under [spec] (one-shot by
   default) against the machine under test [m]. [`Completed] when the
   operation returned, [`Refused] on a typed clean refusal, [`Killed] on
   controller death. The site must fire exactly once, a [Kill] must kill
   the controller there, and a [Delay n] must land on [m]: the cycles
   the delay hook charged to it move by exactly [n]. *)
let strike ?(spec = Fault.One_shot) (m : Machine.t) site mode
    (op : unit -> unit) : outcome =
  let delayed0 = m.Machine.delayed in
  Fault.arm_mode site spec mode;
  let outcome =
    match op () with
    | () -> `Completed
    | exception Fault.Controller_killed { site = s } ->
        if s <> site then failp "controller died at %s instead" s;
        `Killed
    | exception e -> (
        match refusal_of_exn e with
        | Some msg -> `Refused msg
        | None -> raise e)
  in
  let n = Fault.fired site in
  if n <> 1 then failp "site fired %d times, not once" n;
  (* a delay is a gray failure: slow, never wrong *)
  (match (mode, outcome) with
  | Fault.Kill, (`Completed | `Refused _) -> failp "controller survived its death"
  | Fault.Delay _, `Refused msg -> failp "delay refused the operation: %s" msg
  | Fault.Delay _, `Killed -> failp "delay killed the controller"
  | _ -> ());
  (match mode with
  | Fault.Delay n ->
      let moved = m.Machine.delayed - delayed0 in
      if moved <> n then
        failp "a %d-cycle delay charged %d cycles to the machine under test" n
          moved
  | _ -> ());
  outcome

(* -- single-tree probes (ngx master/worker) -- *)

let napp = Workload.ngx
let npolicy method_ = { Dynacut.method_; on_trap = `Redirect "ngx_declined" }

(* a booted ngx tree, a session on it, and the XOR oracle over the
   tree's redirect-effective feature blocks *)
let tree_setup () =
  let blocks = blocks_for napp in
  let c = Workload.boot napp in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let effective = Dynacut.redirect_filter session ~sym:"ngx_declined" blocks in
  let oracle =
    Oracle.make c.Workload.m ~base:(Common.app_exe napp).Self.base
      ~blocks:effective ~pids:[ c.Workload.pid ]
  in
  (c, session, oracle)

(* XOR over the tree's current pids (a restore re-creates them) — with
   [~all_cut], every pid on the cut side — and the tree serves *)
let tree_check ?(all_cut = false) ~what c session oracle =
  let oracle = { oracle with Oracle.oc_pids = Dynacut.tree_pids session } in
  expect ~what
    (Oracle.check_xor oracle
    @ if all_cut then Oracle.check_sides oracle ~cut:oracle.Oracle.oc_pids
      else []);
  let s = status (Workload.rpc c get) in
  if s <> "200" then failp "%s: GET answered %s, not 200" what s

let tree_recover c = Dynacut.recover c.Workload.m ~root_pid:c.Workload.pid

let tree_finish c session oracle =
  let r = tree_recover c in
  tree_check ~what:"after recover" c session oracle;
  r

(* fault strikes the cut transaction itself; after recovery a fresh
   controller must be able to cut the tree, whichever way it went *)
let tree_probe ?(method_ = `First_byte) ?(tcp = false) site mode =
  let c, session, oracle = tree_setup () in
  let in_flight =
    if tcp then begin
      (* park a connection in the server so restore has TCP state to
         repair (the server blocks in recv on it across the cut) *)
      let conn = Net.connect c.Workload.m.Machine.net Ngx.port in
      ignore (Machine.run c.Workload.m ~max_cycles:500_000);
      Some conn
    end
    else None
  in
  let (_ : outcome) =
    strike c.Workload.m site mode (fun () ->
        ignore
          (Dynacut.try_cut session ~blocks:(blocks_for napp)
             ~policy:(npolicy method_) ()))
  in
  let (_ : Dynacut.recovery) = tree_recover c in
  (* the repaired mid-cut connection must answer before anything new —
     an accepted request is never silently dropped *)
  (match in_flight with
  | None -> ()
  | Some conn ->
      Net.client_send conn get;
      ignore (Machine.run c.Workload.m ~max_cycles:2_000_000);
      let s = status (Net.client_recv conn) in
      if s <> "200" then failp "in-flight request answered %s after recover" s);
  tree_check ~what:"after recover" c session oracle;
  let fresh = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  (match
     (Dynacut.try_cut fresh ~blocks:(blocks_for napp)
        ~policy:(npolicy `First_byte) ())
       .Dynacut.r_outcome
   with
  | `Applied -> ()
  | `Rolled_back rb -> failp "clean re-cut rolled back at %s" rb.Dynacut.rb_stage);
  tree_check ~all_cut:true ~what:"after re-cut" c fresh oracle

(* fault strikes a journaled respawn of a reaped worker; a controller
   death mid-respawn leaves an intent recovery must redo *)
let respawn_probe site mode =
  let c, session, oracle = tree_setup () in
  let (_ : Rewriter.journal list * Dynacut.timings) =
    Dynacut.cut session ~blocks:(blocks_for napp) ~policy:(npolicy `First_byte)
  in
  let worker =
    match Dynacut.tree_pids session with
    | _root :: w :: _ -> w
    | _ -> failp "ngx tree has no worker"
  in
  Machine.reap c.Workload.m ~pid:worker;
  let respawn () =
    ignore
      (Dynacut.journaled_respawn session ~pid:worker
         ~path:(Dynacut.image_path session worker))
  in
  let outcome = strike c.Workload.m site mode respawn in
  (* a refused respawn closes its own journal intent — the worker is
     legitimately still dead, and retrying is the caller's choice. Retry
     once here (the one-shot fault is spent). *)
  (match outcome with `Refused _ -> respawn () | `Completed | `Killed -> ());
  let r = tree_finish c session oracle in
  if outcome = `Killed && r.Dynacut.rec_respawned <> [ worker ] then
    failp "recovery did not redo the respawn"

(* fault strikes the canary's fleet promotion *)
let promote_probe site mode =
  let c, session, oracle = tree_setup () in
  let sup =
    Supervisor.create session
      ~config:{ Supervisor.default_config with Supervisor.canary_windows = 1 }
      ~blocks:(blocks_for napp) ~policy:(npolicy `First_byte)
  in
  let drive () = ignore (Workload.rpc ~max_cycles:800_000 c get) in
  let (_ : outcome) =
    strike c.Workload.m site mode (fun () ->
        ignore (Supervisor.guarded_cut sup ~canary:true ~drive ()))
  in
  ignore (tree_finish c session oracle : Dynacut.recovery)

(* no transaction was open when the fault struck: recovery finds none *)
let assert_quiescent (r : Dynacut.recovery) =
  if r.Dynacut.rec_action <> `Nothing then
    failp "recovery invented work on a quiescent tree"

(* fault strikes the crit image/text round trip — no transaction open *)
let crit_probe site mode =
  let c, session, oracle = tree_setup () in
  Machine.freeze c.Workload.m ~pid:c.Workload.pid;
  let img = Checkpoint.dump c.Workload.m ~pid:c.Workload.pid () in
  Machine.thaw c.Workload.m ~pid:c.Workload.pid;
  let blob = Images.encode img in
  let text = Crit.decode_to_text blob in
  let (_ : outcome) =
    strike c.Workload.m site mode (fun () ->
        if site = "crit.decode" then ignore (Crit.decode_to_text blob)
        else ignore (Crit.encode_from_text text))
  in
  assert_quiescent (tree_finish c session oracle)

(* fault strikes the recovery pass replaying a controller death; after
   a second death the next pass must still roll the tree back *)
let recover_probe site mode =
  let c, session, oracle = tree_setup () in
  Fault.arm ~kill:true "restore.process" Fault.One_shot;
  (match
     Dynacut.try_cut session ~blocks:(blocks_for napp)
       ~policy:(npolicy `First_byte) ()
   with
  | (_ : Dynacut.cut_result) -> failp "staged controller death never struck"
  | exception Fault.Controller_killed _ -> ());
  let outcome =
    strike c.Workload.m site mode (fun () ->
        ignore (tree_recover c : Dynacut.recovery))
  in
  let r = tree_finish c session oracle in
  if outcome = `Killed && r.Dynacut.rec_action <> `Rolled_back then
    failp "second recovery pass did not roll back"

(* fault strikes the dataflow slicing tracer: the hook attach
   (slice.trace) or the final dependency-set fold (slice.compute).
   Slicing is observation-only, so the contract is strict: whichever
   way the fault goes, the tree is untouched (serving, nothing for
   recovery to do) and a clean retry produces a non-empty slice *)
let slice_probe site mode =
  let c, session, oracle = tree_setup () in
  let run_slicer () =
    let sl =
      Slicer.attach c.Workload.m ~pid:c.Workload.pid
        ~wanted_out:(Slicelab.wanted_out_of napp) ()
    in
    ignore (Workload.rpc c get);
    Slicer.detach sl;
    Slicer.slice sl
  in
  let (_ : outcome) =
    strike c.Workload.m site mode (fun () -> ignore (run_slicer ()))
  in
  assert_quiescent (tree_finish c session oracle);
  if run_slicer () = [] then
    failp "clean slicer retry after a %s fault produced an empty slice" site

(* -- fleet probes (ltpd workers) -- *)

let lapp = Workload.ltpd
let lpolicy = { Dynacut.method_ = `First_byte; on_trap = `Redirect "ltpd_403" }

(* recover [oracle]'s fleet, run [after_recover], then the fleet oracles
   and a served GET. [quiet] probes open no transaction, so no worker
   may need recovery work. After a controller death recovery must unwind
   nothing and leave every pid on its expected side: [cut] cut, the rest
   original. *)
let fleet_finish ?(after_recover = ignore) ?(quiet = false) ?(cut = [])
    ~(outcome : outcome) oracle ~plan ~serving_fleet =
  let m = oracle.Oracle.oc_machine and pids = oracle.Oracle.oc_pids in
  let recovery =
    match Fleet.recover m ~pids with
    | r -> r
    | exception Fault.Controller_killed _ -> Fleet.recover m ~pids
  in
  after_recover ();
  if quiet then
    List.iter
      (fun (pid, a) ->
        if a <> `Nothing then
          failp "recovery invented work for quiescent pid %d" pid)
      recovery.Fleet.fr_workers;
  expect ~what:"after recover"
    (Oracle.check_xor oracle
    @ Oracle.check_waves oracle ~plan ~recovery
    @ Oracle.check_recover_idempotent oracle);
  if outcome = `Killed then begin
    if recovery.Fleet.fr_unwound <> [] then
      failp "recovery unwound pid(s) %s"
        (String.concat "," (List.map string_of_int recovery.Fleet.fr_unwound));
    expect ~what:"after recover" (Oracle.check_sides oracle ~cut)
  end;
  match Fleet.request serving_fleet get with
  | `Reply (_, resp) ->
      let s = status resp in
      if s <> "200" then failp "after recover: GET answered %s, not 200" s
  | `Refused -> failp "after recover: fleet refused a GET"

let rollout_config =
  Rollout.
    {
      r_waves = 2;
      r_sup = { Supervisor.default_config with Supervisor.canary_windows = 1 };
    }

(* fault strikes the rolling rollout: [fleet.wave] at wave 2's start,
   so wave 1's committed cut must survive; [fleet.manifest] at the very
   first entry, before any worker was touched *)
let fleet_rollout_probe site mode =
  let fleet = Fleet.boot ~n:4 ~blocks:(blocks_for lapp) ~policy:lpolicy lapp in
  let oracle = fleet_oracle lapp fleet and pids = Fleet.pids fleet in
  let plan = Rollout.plan ~pids ~waves:2 in
  let spec, cut =
    if site = "fleet.wave" then (Fault.On_nth 2, List.hd plan)
    else (Fault.One_shot, [])
  in
  let outcome =
    strike ~spec (Fleet.machine fleet) site mode (fun () ->
        ignore
          (Fleet.rollout fleet ~config:rollout_config ~drive:(drive_fleet fleet) ()))
  in
  fleet_finish ~cut ~outcome oracle ~plan ~serving_fleet:fleet

(* fault strikes one dispatched request (balancer / net sites) *)
let fleet_request_probe site mode =
  let fleet = Fleet.boot ~n:2 ~blocks:(blocks_for lapp) ~policy:lpolicy lapp in
  let oracle = fleet_oracle lapp fleet in
  let outcome =
    strike (Fleet.machine fleet) site mode (fun () -> ignore (Fleet.request fleet get))
  in
  fleet_finish ~quiet:true ~outcome oracle ~plan:[] ~serving_fleet:fleet

(* fault strikes the decoded-block code cache: entering the dispatch
   loop (bbcache.dispatch) or evicting blocks over a dirtied code page
   (bbcache.flush). The cache is an execution accelerator only, so the
   contract is strict: a Fail degrades to the single-step interpreter
   (same replies, never a stale block), a Delay just slows the quantum,
   and after any outcome the fleet keeps serving and stays XOR-clean *)
let bbcache_probe site mode =
  let fleet = Fleet.boot ~n:2 ~blocks:(blocks_for lapp) ~policy:lpolicy lapp in
  let oracle = fleet_oracle lapp fleet and m = Fleet.machine fleet in
  (match Fleet.request fleet get with
  | `Reply (_, resp) when status resp = "200" -> ()
  | _ -> failp "cache warm-up request failed");
  (* touching a text byte (same value back) marks the page dirty, so the
     very next dispatch must reach the flush path *)
  let dirty_text () =
    List.iter
      (fun pid ->
        let p = Machine.proc_exn m pid in
        let b = List.hd oracle.Oracle.oc_blocks in
        let addr =
          Int64.add oracle.Oracle.oc_base (Int64.of_int b.Covgraph.b_off)
        in
        Mem.poke8 p.Proc.mem addr (Mem.peek8 p.Proc.mem addr))
      (Fleet.pids fleet)
  in
  let outcome =
    strike m site mode (fun () ->
        if site = "bbcache.flush" then dirty_text ();
        match Fleet.request fleet get with
        | `Reply (_, resp) when status resp = "200" -> ()
        | _ -> failp "request failed under a %s fault" site)
  in
  (* whichever way the fault went — cached, degraded or freshly
     recovered — the very next request must still serve *)
  (match Fleet.request fleet get with
  | `Reply (_, resp) when status resp = "200" -> ()
  | _ -> failp "request failed after the %s fault" site);
  fleet_finish ~quiet:true ~outcome oracle ~plan:[] ~serving_fleet:fleet

(* every registered site maps to the scenario that provably reaches it;
   a site without a driver fails the matrix rather than shrinking it *)
let probe_driver (site : string) : Fault.mode -> unit =
  match site with
  | "criu.checkpoint" | "criu.save" | "criu.load" | "rewrite.patch"
  | "inject.lib" | "inject.policy" | "restore.process" | "journal.lock"
  | "journal.append" ->
      tree_probe site
  | "rewrite.unmap" -> tree_probe ~method_:`Unmap_pages site
  | "restore.tcp_repair" -> tree_probe ~tcp:true site
  | "restore.respawn" -> respawn_probe site
  | "supervisor.promote" -> promote_probe site
  | "crit.encode" | "crit.decode" -> crit_probe site
  | "recover.replay" -> recover_probe site
  | "fleet.wave" | "fleet.manifest" -> fleet_rollout_probe site
  | "balancer.dispatch" | "net.accept_queue" | "net.serve" ->
      fleet_request_probe site
  | "slice.trace" | "slice.compute" -> slice_probe site
  | "bbcache.dispatch" | "bbcache.flush" -> bbcache_probe site
  | s -> fun _ -> failp "site %s has no chaos probe — extend Chaos.probe_driver" s

type probe = {
  p_site : string;
  p_mode : Fault.mode;
  p_ok : bool;
  p_detail : string;  (** empty when ok *)
}

(** Strike [site] once in [mode] through its scenario and check the
    uniform contract. Any exception the scenario lets escape is this
    probe's failure, named in [p_detail] — never an abort of the whole
    sweep. *)
let probe site mode : probe =
  Fault.reset ();
  let result p_ok p_detail = { p_site = site; p_mode = mode; p_ok; p_detail } in
  match probe_driver site mode with
  | () -> result true ""
  | exception Probe_failure msg -> result false msg
  | exception e -> result false ("uncaught exception " ^ Printexc.to_string e)

(** The directed sweep: every registered site in every applicable mode. *)
let coverage_matrix () : probe list =
  List.concat_map
    (fun (site, _) -> List.map (probe site) (Fault.applicable_modes site))
    Fault.known_sites
