(** Directed chaos coverage: the site x mode probes. See [chaos.mli]. *)

module Site = Fault.Site

let get = "GET /index.html HTTP/1.0\r\n\r\n"

let status resp =
  match String.index_opt resp ' ' with
  | Some k when String.length resp >= k + 4 -> String.sub resp (k + 1) 3
  | _ -> "???"

(* typed failures the engine treats as a clean refusal: the operation
   was denied, nothing is half-done. Anything outside this domain is a
   host bug and propagates. *)
let refusal_of_exn : exn -> string option = function
  | Fault.Injected { site; _ } -> Some ("injected at " ^ Site.name site)
  | Fault.Storage_error { site; kind } ->
      Some (Printf.sprintf "%s at %s" (Fault.storage_kind_to_string kind) (Site.name site))
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

(* feature blocks of the two probed apps, computed once — tracing is
   expensive. A scenario forces these before it boots its machine under
   test (the tracing creates machines, and the Obs clock follows the
   last one created); later forces are free *)
let ngx_blocks = lazy (Common.web_feature_blocks Workload.ngx)
let ltpd_blocks = lazy (Common.web_feature_blocks Workload.ltpd)

(* ---------- directed site × mode coverage ---------- *)

exception Probe_failure of string

let failp fmt = Printf.ksprintf (fun s -> raise (Probe_failure s)) fmt

(* the first oracle violation, if any, fails the probe *)
let expect ~what = function
  | [] -> ()
  | v :: _ -> failp "%s: %s" what (Format.asprintf "%a" Oracle.pp_violation v)

type outcome = [ `Completed | `Killed | `Refused of string ]

(* strike: run [op] with (site, mode) armed under [spec] (one-shot by
   default). [`Completed] when the operation returned, [`Refused] on a
   typed clean refusal, [`Killed] on controller death. The site must
   fire exactly once, and a [Kill] must kill the controller there. *)
let strike ?(spec = Fault.One_shot) site mode (op : unit -> unit) : outcome =
  Fault.arm_mode site spec mode;
  let outcome =
    match op () with
    | () -> `Completed
    | exception Fault.Controller_killed { site = s } ->
        if s <> site then failp "controller died at %s instead" (Site.name s);
        `Killed
    | exception e -> (
        match refusal_of_exn e with
        | Some msg -> `Refused msg
        | None -> raise e)
  in
  let n = Fault.fired site in
  if n <> 1 then failp "site fired %d times, not once" n;
  (match (mode, outcome) with
  | Fault.Kill, (`Completed | `Refused _) -> failp "controller survived its death"
  | _ -> ());
  outcome

(* -- single-tree probes (ngx master/worker) -- *)

let napp = Workload.ngx
let npolicy method_ = { Dynacut.method_; on_trap = `Redirect "ngx_declined" }

(* a booted ngx tree, a session on it, and the XOR oracle over the
   tree's redirect-effective feature blocks *)
let tree_setup () =
  let blocks = Lazy.force ngx_blocks in
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
    strike site mode (fun () ->
        ignore
          (Dynacut.try_cut session ~blocks:(Lazy.force ngx_blocks)
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
     (Dynacut.try_cut fresh ~blocks:(Lazy.force ngx_blocks)
        ~policy:(npolicy `First_byte) ())
       .Dynacut.r_outcome
   with
  | `Applied -> ()
  | `Rolled_back rb -> failp "clean re-cut rolled back at %s" rb.Dynacut.rb_stage);
  tree_check ~all_cut:true ~what:"after re-cut" c fresh oracle

(* fault strikes the pristine respawn of a reaped worker: a controller
   death after its [Begin] leaves an open transaction whose pid recovery
   revives *)
let respawn_probe site mode =
  let c, session, oracle = tree_setup () in
  let (_ : Rewriter.journal list * Dynacut.timings) =
    Dynacut.cut session ~blocks:(Lazy.force ngx_blocks) ~policy:(npolicy `First_byte)
  in
  let worker =
    match Dynacut.tree_pids session with
    | _root :: w :: _ -> w
    | _ -> failp "ngx tree has no worker"
  in
  Machine.reap c.Workload.m ~pid:worker;
  let respawn () = Dynacut.respawn_pristine session ~pid:worker in
  let outcome = strike site mode respawn in
  (* a refused respawn finishes its own journal — the worker is
     legitimately still dead, and retrying is the caller's choice. Retry
     once here (the one-shot fault is spent). *)
  (match outcome with `Refused _ -> respawn () | `Completed | `Killed -> ());
  ignore (tree_finish c session oracle : Dynacut.recovery);
  match Machine.proc c.Workload.m worker with
  | Some p when Proc.is_live p -> ()
  | _ -> failp "worker %d not live after recovery" worker

(* fault strikes the canary's fleet promotion *)
let promote_probe site mode =
  let c, session, oracle = tree_setup () in
  let sup =
    Supervisor.create session
      ~config:{ Supervisor.default_config with Supervisor.canary_windows = 1 }
      ~blocks:(Lazy.force ngx_blocks) ~policy:(npolicy `First_byte)
  in
  let drive () = ignore (Workload.rpc ~max_cycles:800_000 c get) in
  let (_ : outcome) =
    strike site mode (fun () ->
        ignore (Supervisor.guarded_cut sup ~drive ()))
  in
  ignore (tree_finish c session oracle : Dynacut.recovery)

(* no transaction was open when the fault struck: recovery finds none *)
let assert_quiescent (r : Dynacut.recovery) =
  if r.Dynacut.rec_action <> `Nothing then
    failp "recovery invented work on a quiescent tree"

(* fault strikes the recovery pass replaying a controller death; after
   a second death the next pass must still roll the tree back *)
let recover_probe site mode =
  let c, session, oracle = tree_setup () in
  Fault.arm ~kill:true Restore_process Fault.One_shot;
  (match
     Dynacut.try_cut session ~blocks:(Lazy.force ngx_blocks)
       ~policy:(npolicy `First_byte) ()
   with
  | (_ : Dynacut.cut_result) -> failp "staged controller death never struck"
  | exception Fault.Controller_killed _ -> ());
  let outcome =
    strike site mode (fun () -> ignore (tree_recover c : Dynacut.recovery))
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
  let (_ : outcome) = strike site mode (fun () -> ignore (run_slicer ())) in
  assert_quiescent (tree_finish c session oracle);
  if run_slicer () = [] then
    failp "clean slicer retry after a %s fault produced an empty slice" (Site.name site)

(* -- fleet probes (ltpd workers) -- *)

let lapp = Workload.ltpd
let lpolicy = { Dynacut.method_ = `First_byte; on_trap = `Redirect "ltpd_403" }

let rollout_config =
  Rollout.
    {
      r_waves = 2;
      r_sup = { Supervisor.default_config with Supervisor.canary_windows = 1 };
    }

let ltpd_fleet n =
  let fleet = Fleet.boot ~n ~blocks:(Lazy.force ltpd_blocks) ~policy:lpolicy lapp in
  let w = List.hd (Fleet.workers fleet) in
  let oracle =
    Oracle.make (Fleet.machine fleet) ~base:(Common.app_exe lapp).Self.base
      ~blocks:
        (Dynacut.redirect_filter w.Rollout.w_session ~sym:"ltpd_403"
           (Lazy.force ltpd_blocks))
      ~pids:(Fleet.pids fleet)
  in
  (fleet, oracle)

let rollout fleet =
  fst (Fleet.rollout fleet ~config:rollout_config ~drive:(drive_fleet fleet) ())

let fleet_converges oracle fleet =
  let m = oracle.Oracle.oc_machine and pids = oracle.Oracle.oc_pids in
  let recover () = List.map (fun pid -> Dynacut.recover m ~root_pid:pid) pids in
  let recoveries =
    match recover () with
    | r -> r
    | exception Fault.Controller_killed _ -> recover ()
  in
  expect ~what:"after recover"
    (Oracle.check_xor oracle @ Oracle.check_recover_idempotent oracle);
  (match Fleet.request fleet get with
  | `Reply (_, resp) ->
      let s = status resp in
      if s <> "200" then failp "after recover: GET answered %s, not 200" s
  | `Refused -> failp "after recover: fleet refused a GET");
  recoveries

(* {!fleet_converges} after a fault that opened no transaction: no
   worker may need recovery work, and after a controller death every
   pid is still original *)
let fleet_finish ~(outcome : outcome) oracle fleet =
  List.iter2
    (fun pid r ->
      if r.Dynacut.rec_action <> `Nothing then
        failp "recovery invented work for quiescent pid %d" pid)
    oracle.Oracle.oc_pids (fleet_converges oracle fleet);
  if outcome = `Killed then
    expect ~what:"after recover" (Oracle.check_sides oracle ~cut:[])

(* fault strikes one dispatched request (balancer / net sites) *)
let fleet_request_probe site mode =
  let fleet, oracle = ltpd_fleet 2 in
  let outcome = strike site mode (fun () -> ignore (Fleet.request fleet get)) in
  fleet_finish ~outcome oracle fleet

(* fault strikes the decoded-block code cache: entering the dispatch
   loop (bbcache.dispatch) or evicting blocks over a dirtied code page
   (bbcache.flush). The cache is an execution accelerator only, so the
   contract is strict: a Fail degrades to the single-step interpreter
   (same replies, never a stale block), and after any outcome the fleet
   keeps serving and stays XOR-clean *)
let bbcache_probe site mode =
  let fleet, oracle = ltpd_fleet 2 in
  let m = Fleet.machine fleet in
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
    strike site mode (fun () ->
        if site = Site.Bbcache_flush then dirty_text ();
        match Fleet.request fleet get with
        | `Reply (_, resp) when status resp = "200" -> ()
        | _ -> failp "request failed under a %s fault" (Site.name site))
  in
  (* whichever way the fault went — cached, degraded or freshly
     recovered — the very next request must still serve *)
  (match Fleet.request fleet get with
  | `Reply (_, resp) when status resp = "200" -> ()
  | _ -> failp "request failed after the %s fault" (Site.name site));
  fleet_finish ~outcome oracle fleet

(* every site maps to the scenario that provably reaches it; the match
   is exhaustive, so a site without a driver does not compile *)
let probe_driver (site : Site.t) : Fault.mode -> unit =
  match site with
  | Criu_checkpoint | Criu_save | Criu_load | Rewrite_patch | Inject_lib
  | Inject_policy | Restore_process | Journal_lock | Journal_append ->
      tree_probe site
  | Rewrite_unmap -> tree_probe ~method_:`Unmap_pages site
  | Restore_tcp_repair -> tree_probe ~tcp:true site
  | Restore_respawn -> respawn_probe site
  | Supervisor_promote -> promote_probe site
  | Recover_replay -> recover_probe site
  | Balancer_dispatch | Net_accept_queue | Net_serve -> fleet_request_probe site
  | Slice_trace | Slice_compute -> slice_probe site
  | Bbcache_dispatch | Bbcache_flush -> bbcache_probe site

type probe = {
  p_site : Site.t;
  p_mode : Fault.mode;
  p_ok : bool;
  p_detail : string;  (** empty when ok *)
}

let probe site mode : probe =
  Fault.reset ();
  let result p_ok p_detail = { p_site = site; p_mode = mode; p_ok; p_detail } in
  match probe_driver site mode with
  | () -> result true ""
  | exception Probe_failure msg -> result false msg
  | exception e -> result false ("uncaught exception " ^ Printexc.to_string e)

let coverage_matrix () : probe list =
  List.concat_map
    (fun site -> List.map (probe site) (Fault.applicable_modes site))
    Site.all
