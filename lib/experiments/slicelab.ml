(** Slicing experiment driver: profile a server under the dataflow
    slicing tracer ({!Slicer}), compute the [Sliced_away] cut-candidate
    class ({!Tracediff.sliced_away}), then cut it under the
    supervisor's [`Verify] trap policy and converge by verifier
    feedback — every false positive (a sliced-away block that trapped
    post-cut) re-joins the slice as a counterexample.

    The class is sharper than the coverage diff: anchors are scoped to
    the wanted feature's *success* outputs, so blocks that run under
    wanted requests without contributing to any wanted output (the 404
    arm serving [/missing.html], rkv's [$-1] miss arm) become
    candidates the coverage diff can never find — by construction the
    two classes are disjoint (coverage-diff candidates are outside the
    wanted coverage; sliced-away candidates are inside it). *)

(* ---------- per-app anchor predicates and request mixes ---------- *)

let starts_with ~(prefix : string) (s : string) =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(** Which socket-write payloads count as wanted-feature outputs. Web
    servers: 200 replies (success path of the read-only feature). rkv:
    bulk-string hits — but not the [$-1] miss reply. *)
let wanted_out_of (app : Workload.app) : string -> bool =
  if app.Workload.a_name = "rkv" then fun p ->
    starts_with ~prefix:"$" p && not (starts_with ~prefix:"$-1" p)
  else fun p -> starts_with ~prefix:"HTTP/1.0 200" p

(** The profiling mix: the full wanted traffic, including the requests
    that exercise miss/error arms — those arms land in the coverage but
    outside every success-output slice. *)
let profile_requests (app : Workload.app) : string list =
  if app.Workload.a_name = "rkv" then Workload.kv_wanted
  else Workload.web_wanted

(** The post-cut drive: success requests only (the feature the cut must
    preserve). *)
let drive_requests (app : Workload.app) : string list =
  if app.Workload.a_name = "rkv" then [ "GET greeting\n"; "GET color\n" ]
  else [ Workload.http_get "/index.html"; Workload.http_get "/about.txt" ]

(** One request that reaches an arm still cut after converging on
    {!drive_requests} (used to demonstrate the verifier counterexample
    loop), paired with the reply prefix the restored arm must serve.
    The post-cut drive is success-GETs only, so the other verbs' arms
    stay cut: probing one traps, the [`Verify] handler restores the
    block in place, and the reply still comes back intact. *)
let probe_request (app : Workload.app) : string * string =
  if app.Workload.a_name = "rkv" then ("SET color blue\n", "+OK")
  else (Workload.http_head "/index.html", "HTTP/1.0 200")

(* ---------- phase 1: profile ---------- *)

type profile = {
  p_app : string;
  p_report : Tracediff.slice_report;
  p_blocks : Covgraph.block list;  (** own-module sliced-away candidates *)
  p_points : (string * int * int) list;  (** the slice, as the tracer emits it *)
  p_stats : Slicer.stats;
  p_serving : Drcov.log;  (** serving-phase coverage (for re-use) *)
  p_slicer : Slicer.t;
      (** the detached tracer — still readable, and the sink for
          verifier counterexamples ({!Slicer.add_counterexample}) *)
}

(** Boot [app] traced, wait for the ready banner, then attach the
    slicer for the serving phase only (initialization is not traced —
    its blocks are the init-diff's business) and drive the profiling
    mix. Returns the sliced-away report over the serving coverage.
    [sample] forwards the slicer's sampled-tracing mode. *)
let profile ?(seed = 42) ?sample (app : Workload.app) : profile =
  let c = Workload.boot ~seed ~traced:true app in
  let (_ : Drcov.log) = Collector.nudge (Workload.collector c) in
  let sl =
    Slicer.attach c.Workload.m ~pid:c.Workload.pid ?sample
      ~wanted_out:(wanted_out_of app) ()
  in
  Obs.with_span "slice.trace" (fun () ->
      List.iter
        (fun r -> ignore (Workload.rpc c r))
        (profile_requests app);
      (* let the tree settle so block-end bookkeeping closes out *)
      ignore (Machine.run c.Workload.m ~max_cycles:200_000));
  Slicer.detach sl;
  let serving = Collector.detach (Workload.collector c) in
  let points = Slicer.slice sl in
  let report =
    Tracediff.sliced_away
      ~cfg_of:(Common.cfg_provider c.Workload.m.Machine.fs)
      ~covered:[ serving ] ~in_slice:points ()
  in
  let own = Common.own_blocks app.Workload.a_name report.Tracediff.sliced in
  Obs.add (Obs.counter "slice.blocks_removed") (List.length own);
  {
    p_app = app.Workload.a_name;
    p_report = report;
    p_blocks = own;
    p_points = points;
    p_stats = Slicer.stats sl;
    p_serving = serving;
    p_slicer = sl;
  }

(** The classic coverage-diff candidates for the same app (undesired
    minus wanted traffic), and their overlap with [sliced] — zero by
    construction, asserted by the bench: every sliced-away block is a
    cut the coverage diff could not have made. *)
let coverage_diff_overlap (app : Workload.app)
    (sliced : Covgraph.block list) : int * int =
  let undesired_reqs =
    if app.Workload.a_name = "rkv" then Workload.kv_undesired
    else Workload.web_undesired
  in
  let cfg_of = Common.cfg_of_app app in
  let _, wanted =
    Workload.trace_requests ~app ~requests:(profile_requests app)
      ~nudge_at_ready:true ()
  in
  let _, undesired =
    Workload.trace_requests ~app ~requests:undesired_reqs
      ~nudge_at_ready:true ()
  in
  let classic =
    (Tracediff.feature_blocks ~cfg_of ~wanted:[ wanted ]
       ~undesired:[ undesired ] ())
      .Tracediff.undesired
  in
  let overlap = List.filter (fun b -> List.mem b classic) sliced in
  (List.length classic, List.length overlap)

(* ---------- phase 2: cut + verifier convergence ---------- *)

type converge = {
  v_ctx : Workload.ctx;  (** the live, cut server *)
  v_sup : Supervisor.t;
  v_rollout : Supervisor.rollout;
  v_attempted : int;  (** candidate blocks the first cut carried *)
  v_kept : Covgraph.block list;  (** blocks still cut after convergence *)
  v_restored : Covgraph.block list;  (** verifier-evicted false positives *)
  v_rounds : int;  (** drive+feedback rounds until quiescent *)
}

(** Cut [blocks] on a fresh instance of [app] under the [`Verify]
    policy and iterate drive → {!Supervisor.verifier_feedback} until no
    new false positives appear: blocks the wanted feature does touch
    trap once, get restored in place by the guest handler, and are
    evicted from the cut — each eviction is reported through
    [on_counterexample] so the caller can feed it back into the slicer
    ({!Slicer.add_counterexample}). The canary's trap budget is
    effectively unbounded: [`Verify] traps restore, they do not fail. *)
let cut_and_converge ?(seed = 42)
    ?(on_counterexample = fun (_ : Covgraph.block) -> ())
    (app : Workload.app) ~(blocks : Covgraph.block list) () : converge =
  let c = Workload.boot ~seed app in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let sup =
    Supervisor.create session
      ~config:
{ Supervisor.max_traps = 100_000; canary_windows = 1 }
      ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Verify }
  in
  let drive () =
    List.iter (fun r -> ignore (Workload.rpc c r)) (drive_requests app)
  in
  let rollout = Supervisor.guarded_cut sup ~drive () in
  let restored = ref [] in
  let rounds = ref 0 in
  (match rollout with
  | Supervisor.R_promoted ->
      let quiescent = ref false in
      while (not !quiescent) && !rounds < 6 do
        incr rounds;
        drive ();
        let before = Supervisor.blocks sup in
        let n = Supervisor.verifier_feedback sup in
        if n = 0 then quiescent := true
        else begin
          let after = Supervisor.blocks sup in
          let dropped =
            List.filter (fun b -> not (List.mem b after)) before
          in
          List.iter
            (fun b ->
              restored := b :: !restored;
              on_counterexample b)
            dropped
        end
      done
  | _ -> ());
  {
    v_ctx = c;
    v_sup = sup;
    v_rollout = rollout;
    v_attempted = List.length blocks;
    v_kept = Supervisor.blocks sup;
    v_restored = List.rev !restored;
    v_rounds = !rounds;
  }

let pp_converge fmt (v : converge) =
  Format.fprintf fmt
    "cut %d sliced-away candidates: %a; %d kept, %d restored by the \
     verifier over %d rounds@."
    v.v_attempted Supervisor.pp_rollout v.v_rollout (List.length v.v_kept)
    (List.length v.v_restored) v.v_rounds
