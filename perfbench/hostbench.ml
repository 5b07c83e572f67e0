(** Host-time benchmark of the DynaCut reproduction (see README.md).

    Three closed-loop workloads, each driven from this one host thread:
    [serve_web] serves requests from a customized ltpd fleet, [recut_ngx]
    cuts and re-enables a live ngx tree, [profile_kv] finds rkv's cut
    candidates. With [--trace 0] it prints the end-to-end metrics. With
    [--trace 1] it runs the workload twice, untraced and then with a span
    around every call it makes into the program, and prints per-layer
    self times and counts.

    Usage: hostbench.exe --workload NAME --seed N --seconds S --trace 0|1
    --state-dir DIR *)

(* ---------- clock, host speed and estimator ---------- *)

let now = Monotonic_clock.now
let since t0 = Int64.to_float (Int64.sub (now ()) t0)

let quantile (xs : float array) q =
  let a = Array.copy xs in
  Array.sort compare a;
  Obs.percentile_sorted a (100. *. q)

(* The host's speed changes in episodes that last from seconds to whole
   runs: in a slow episode every op, whatever it does, takes about 1.6
   times as long. A fixed calibration kernel, independent of the program
   and small enough to stay in cache, is timed between ops; its time over
   its reference time is the host's slowdown at that moment. Every time
   the benchmark reports is divided by the slowdown measured around it,
   so it is given at the reference speed: the kernel's speed in the fast
   state of the reference host (a 2-vCPU x86-64 sandbox), where it takes
   [calib_ref_ns]. *)
let calib_ref_ns = 1e6

let calib_tbl : (int, int) Hashtbl.t = Hashtbl.create 4096
let calib_buf = Bytes.make 65536 '\000'

(* the kernel mixes hashing, byte-array traffic, branches and short-lived
   allocation, as the interpreter does; its allocations are the same in
   every run, so the exact counts still repeat *)
let calibrate () =
  let t0 = now () in
  let x = ref 12345 in
  for i = 0 to 13_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 4095 in
    (match Hashtbl.find_opt calib_tbl k with
    | Some v -> Hashtbl.replace calib_tbl k (v + i)
    | None -> Hashtbl.add calib_tbl k i);
    let o = (!x lsr 12) land 65535 in
    Bytes.unsafe_set calib_buf o
      (Char.unsafe_chr ((Char.code (Bytes.unsafe_get calib_buf o) + i) land 255));
    if i land 15 = 0 then ignore (Sys.opaque_identity (Array.make 8 !x))
  done;
  since t0 /. calib_ref_ns

type summary = { ops_per_s : float; p50_ms : float; p90_ms : float }

(* [lat] holds op latencies at the reference speed. Throughput is taken
   over the median fixed-work window, the percentiles over all ops. *)
let summarise ~window (lat : float array) : summary =
  let nw = Array.length lat / window in
  let dur =
    Array.init nw (fun w ->
        Array.fold_left ( +. ) 0. (Array.sub lat (w * window) window))
  in
  {
    ops_per_s = float_of_int window /. (quantile dur 0.5 *. 1e-9);
    p50_ms = quantile lat 0.5 *. 1e-6;
    p90_ms = quantile lat 0.9 *. 1e-6;
  }

(* ---------- spans around calls into the program ---------- *)

module Span = struct
  let on = ref false

  type frame = {
    t0 : int64;
    w0 : float;
    mutable child_ns : float;
    mutable child_w : float;
  }

  let stack : frame list ref = ref []
  let self_ns : (string, float ref) Hashtbl.t = Hashtbl.create 16
  let incl_ns : (string, float ref) Hashtbl.t = Hashtbl.create 16
  let self_w : (string, float ref) Hashtbl.t = Hashtbl.create 16
  let counts : (string, float ref) Hashtbl.t = Hashtbl.create 16

  (* completed spans, newest first: name, depth, start, duration *)
  let log : (string * int * int64 * float) list ref = ref []

  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted

  let bump tbl name v =
    match Hashtbl.find_opt tbl name with
    | Some r -> r := !r +. v
    | None -> Hashtbl.add tbl name (ref v)

  let get tbl name =
    match Hashtbl.find_opt tbl name with Some r -> !r | None -> 0.

  let clear () =
    List.iter Hashtbl.reset [ self_ns; incl_ns; self_w; counts ];
    log := []

  (** Add [v] to the count [name] while tracing. *)
  let count name v = if !on then bump counts name v

  (** Run [f]; while tracing, record its wall time and the words it
      allocated, in total and minus the spans nested inside it (self). *)
  let wrap name f =
    if not !on then f ()
    else begin
      let fr = { t0 = now (); w0 = words (); child_ns = 0.; child_w = 0. } in
      stack := fr :: !stack;
      let finish () =
        let dt = since fr.t0 and dw = words () -. fr.w0 in
        stack := List.tl !stack;
        bump self_ns name (dt -. fr.child_ns);
        bump incl_ns name dt;
        bump self_w name (dw -. fr.child_w);
        (match !stack with
        | p :: _ ->
            p.child_ns <- p.child_ns +. dt;
            p.child_w <- p.child_w +. dw
        | [] -> ());
        log := (name, List.length !stack, fr.t0, dt) :: !log
      in
      match f () with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e
    end

  (** Write the recorded spans as Chrome trace events (Perfetto opens
      them), timestamps in microseconds from the first span. *)
  let write path =
    let spans = List.rev !log in
    let origin = match spans with (_, _, t0, _) :: _ -> t0 | [] -> 0L in
    Out_channel.with_open_text path (fun oc ->
        output_string oc "{\"traceEvents\": [";
        List.iteri
          (fun i (name, depth, t0, dt) ->
            Printf.fprintf oc
              "%s\n\
               {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
               \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"depth\": %d}}"
              (if i = 0 then "" else ",")
              name
              (Int64.to_float (Int64.sub t0 origin) /. 1e3)
              (dt /. 1e3) depth)
          spans;
        output_string oc "\n]}\n")
end

(* ---------- calls into the program ---------- *)

(* Each helper here makes the same calls in the same order as the
   program's own helper named above it, so that a span can wrap each. *)

let status reply =
  if String.length reply >= 12 && String.sub reply 0 9 = "HTTP/1.0 " then
    int_of_string_opt (String.sub reply 9 3)
  else None

(* Workload.rpc *)
let rpc (c : Workload.ctx) text =
  let m = c.Workload.m in
  let conn = Net.connect m.Machine.net (Option.get c.Workload.app.Workload.a_port) in
  Net.client_send conn text;
  let dead () =
    match Machine.proc m c.Workload.pid with
    | Some p -> not (Proc.is_live p)
    | None -> true
  in
  ignore
    (Span.wrap "machine.run" (fun () ->
         Machine.run_until m ~max_cycles:5_000_000 ~pred:(fun () ->
             Net.client_pending conn > 0 || dead ())));
  Net.client_recv conn

(* Workload.wait_ready *)
let wait_ready (c : Workload.ctx) =
  let m = c.Workload.m in
  match
    Span.wrap "machine.run" (fun () ->
        Machine.run_until m ~max_cycles:30_000_000 ~pred:(fun () ->
            Workload.banner_seen c))
  with
  | `Pred ->
      ignore
        (Span.wrap "machine.run" (fun () -> Machine.run m ~max_cycles:200_000))
  | `Idle | `Dead | `Budget ->
      failwith (c.Workload.app.Workload.a_name ^ " never printed its banner")

(* Balancer.request; a request the balancer refuses, sheds or lets time
   out reads as no reply *)
let fleet_request (b : Balancer.t) text =
  match Span.wrap "fleet.dispatch" (fun () -> Balancer.dispatch b text) with
  | `Shed | `Refused -> None
  | `Ticket tk -> (
      let reply = ref None in
      let pred () =
        match Span.wrap "fleet.poll" (fun () -> Balancer.poll b tk) with
        | `Pending -> false
        | `Reply (_, s) ->
            reply := Some s;
            true
        | `Timed_out _ -> true
      in
      match
        Span.wrap "machine.run" (fun () ->
            Machine.run_until b.Balancer.machine ~max_cycles:2_000_000 ~pred)
      with
      | `Pred -> !reply
      | `Budget | `Dead | `Idle ->
          Balancer.finish b tk;
          None)

(* Common.cfg_provider *)
let cfg_provider fs =
  let cache = Hashtbl.create 4 in
  fun name ->
    match Hashtbl.find_opt cache name with
    | Some v -> v
    | None ->
        let v =
          Span.wrap "elf.cfg" (fun () ->
              Option.map Cfg.of_self (Vfs.find_self fs name))
        in
        Hashtbl.add cache name v;
        v

(* ---------- workloads ---------- *)

type ready = {
  op : int -> bool * float;
      (** run op [i] and check its output: passed, and the op's latency
          in ns (check requests excluded) *)
  vcycles : unit -> int64;  (** virtual cycles of the workload's machines *)
  cache : Bbcache.t option;
  tally : unit -> unit;
      (** after each op, outside its timing: counts only a traced run
          reports *)
}

type workload = {
  setup : seed:int -> ready;
  window : int;  (** ops per timed window: whole rounds of the op cycle *)
  calib_every : int;  (** ops between two timings of the calibration kernel *)
  rate : float;  (** ops per second on the reference host; sizes a run *)
}

(* set-ups per untraced run; setup_s is their median *)
let setups = 5

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* serve_web: a two-worker ltpd fleet with its code cache on and PUT and
   DELETE cut (first byte, redirect to ltpd_403), serving seeded shuffles
   of the web mix. Each request's reply status is fixed; PUT and DELETE
   take the trap -> redirect path to 403. *)
let web_mix =
  Array.of_list
    (List.combine
       (Workload.web_wanted
       @ [
           Workload.http_put "/upload.txt" "hello upload";
           Workload.http_delete "/upload.txt";
         ])
       [ 200; 200; 200; 404; 200; 200; 200; 207; 403; 403; 403 ])

let setup_web ~seed =
  let blocks = Common.web_feature_blocks Workload.ltpd in
  let ctxs, cache =
    Span.wrap "apps.boot" (fun () ->
        let ctxs = Workload.spawn_fleet ~seed ~n:2 Workload.ltpd in
        let cache = Bbcache.enable (List.hd ctxs).Workload.m in
        Workload.wait_fleet_ready ctxs;
        (ctxs, cache))
  in
  let m = (List.hd ctxs).Workload.m in
  let fleet =
    Fleet.create m ~port:Ltpd.port
      ~pids:(List.map (fun c -> c.Workload.pid) ctxs)
      ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "ltpd_403" }
  in
  let config =
    {
      Rollout.default_config with
      Rollout.r_sup =
        { Supervisor.default_config with Supervisor.canary_windows = 1 };
    }
  in
  let get = Workload.http_get "/index.html" in
  (match
     Fleet.rollout fleet ~config
       ~drive:(fun () -> ignore (Fleet.request fleet get))
       ()
   with
  | Rollout.Completed _, _ -> ()
  | o, _ -> failwith (Format.asprintf "serve_web: rollout %a" Rollout.pp_outcome o));
  let b = Fleet.balancer fleet in
  let rng = Rng.create seed in
  let order = Array.init (Array.length web_mix) Fun.id in
  let op i =
    let k = i mod Array.length order in
    if k = 0 then shuffle rng order;
    let text, want = web_mix.(order.(k)) in
    let t0 = now () in
    let reply = fleet_request b text in
    let dt = since t0 in
    (Option.bind reply status = Some want, dt)
  in
  {
    op;
    vcycles = (fun () -> m.Machine.clock);
    cache = Some cache;
    tally = ignore;
  }

(* recut_ngx: live cuts and re-enables of an ngx tree (master plus
   worker) with its code cache on. They alternate, the cut's rewrite
   method rotating first-byte -> wipe -> unmap-pages, always redirecting
   to ngx_declined. After each op a PUT and a GET check the tree; they
   run on a cold cache, since restore replaces the process objects. *)
let methods : [ `First_byte | `Wipe | `Unmap_pages ] array =
  [| `First_byte; `Wipe; `Unmap_pages |]

let image_kb (s : Dynacut.session) =
  List.fold_left
    (fun acc pid ->
      match Vfs.find s.Dynacut.machine.Machine.fs (Dynacut.image_path s pid) with
      | Some blob ->
          acc
          +. (float_of_int (Images.image_size (Validate.decode_sealed blob))
             /. 1024.)
      | None -> acc)
    0. (Dynacut.tree_pids s)

let setup_recut ~seed =
  let blocks = Common.web_feature_blocks Workload.ngx in
  let c, cache =
    Span.wrap "apps.boot" (fun () ->
        let c = Workload.spawn ~seed Workload.ngx in
        let cache = Bbcache.enable c.Workload.m in
        Workload.wait_ready c;
        (c, cache))
  in
  let s = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  if List.length (Dynacut.tree_pids s) <> 2 then
    failwith "recut_ngx: ngx did not fork its worker";
  let journals = ref [] in
  let op i =
    let cut = i mod 2 = 0 in
    let t0 = now () in
    let r =
      if cut then
        Span.wrap "core.cut" (fun () ->
            Dynacut.try_cut s ~blocks
              ~policy:
                {
                  Dynacut.method_ = methods.(i / 2 mod 3);
                  on_trap = `Redirect "ngx_declined";
                }
              ())
      else Span.wrap "core.reenable" (fun () -> Dynacut.try_reenable s !journals)
    in
    let dt = since t0 in
    journals := r.Dynacut.r_journals;
    Span.count (if cut then "core.cuts" else "core.reenables") 1.;
    let served =
      Span.wrap "recut.check" (fun () ->
          let put = rpc c (Workload.http_put "/upload.txt" "hello upload") in
          let get = rpc c (Workload.http_get "/index.html") in
          status put = Some (if cut then 403 else 201) && status get = Some 200)
    in
    (r.Dynacut.r_outcome = `Applied && served, dt)
  in
  {
    op;
    vcycles = (fun () -> c.Workload.m.Machine.clock);
    cache = Some cache;
    tally = (fun () -> Span.count "criu.image_kb" (image_kb s));
  }

(* profile_kv: cut-candidate discovery on rkv. Even ops find SET's
   coverage-diff blocks, odd ops the sliced-away blocks. The slicer's
   per-instruction hook forces the interpreter, and the code cache is
   never enabled. *)
let drcov_blocks logs =
  List.fold_left (fun a l -> a +. float_of_int (Drcov.bb_count l)) 0. logs

(* Workload.spawn ~traced:true + Workload.wait_ready *)
let boot_traced ~seed app =
  Span.wrap "tracer.boot" (fun () ->
      let c = Workload.spawn ~seed ~traced:true app in
      wait_ready c;
      c)

(* Workload.trace_requests ~nudge_at_ready:true *)
let trace_mix ~seed app requests =
  let c = boot_traced ~seed app in
  let col = Workload.collector c in
  let serving =
    Span.wrap "tracer.trace" (fun () ->
        let init = Collector.nudge col in
        List.iter (fun r -> ignore (rpc c r)) requests;
        ignore
          (Span.wrap "machine.run" (fun () ->
               Machine.run c.Workload.m ~max_cycles:5_000_000));
        let serving = Collector.detach col in
        Span.count "tracer.blocks" (drcov_blocks [ init; serving ]);
        serving)
  in
  (c, serving)

(* Common.rkv_feature_blocks Workload.kv_undesired, with the CFGs read
   from the traced machine's binaries *)
let coverage_diff ~seed =
  let app = Workload.rkv in
  let c, wanted = trace_mix ~seed app Workload.kv_wanted in
  let d, undesired = trace_mix ~seed app Workload.kv_undesired in
  let cfg_of = cfg_provider c.Workload.m.Machine.fs in
  let r =
    Span.wrap "core.tracediff" (fun () ->
        Tracediff.feature_blocks ~cfg_of ~wanted:[ wanted ]
          ~undesired:[ undesired ] ())
  in
  (List.length r.Tracediff.undesired, [ c; d ])

(* Slicelab.profile *)
let sliced_away ~seed =
  let app = Workload.rkv in
  let c = boot_traced ~seed app in
  let m = c.Workload.m and col = Workload.collector c in
  let init = Span.wrap "tracer.trace" (fun () -> Collector.nudge col) in
  let sl =
    Span.wrap "slice.trace" (fun () ->
        let sl =
          Slicer.attach m ~pid:c.Workload.pid
            ~wanted_out:(Slicelab.wanted_out_of app) ()
        in
        List.iter (fun r -> ignore (rpc c r)) (Slicelab.profile_requests app);
        ignore
          (Span.wrap "machine.run" (fun () -> Machine.run m ~max_cycles:200_000));
        Slicer.detach sl;
        sl)
  in
  let serving = Span.wrap "tracer.trace" (fun () -> Collector.detach col) in
  let points = Span.wrap "slice.compute" (fun () -> Slicer.slice sl) in
  Span.count "tracer.blocks" (drcov_blocks [ init; serving ]);
  Span.count "slice.points" (float_of_int (List.length points));
  let report =
    Span.wrap "core.tracediff" (fun () ->
        Tracediff.sliced_away ~cfg_of:(cfg_provider m.Machine.fs)
          ~covered:[ serving ] ~in_slice:points ())
  in
  ( List.length (Common.own_blocks app.Workload.a_name report.Tracediff.sliced),
    [ c ] )

let setup_kv ~seed =
  Span.wrap "apps.boot" (fun () ->
      Workload.wait_ready (Workload.spawn ~seed Workload.rkv));
  let cycles = ref 0L in
  let op i =
    let t0 = now () in
    let found, want, machines =
      if i mod 2 = 0 then
        let n, ms = coverage_diff ~seed in
        (n, 27, ms)
      else
        let n, ms = sliced_away ~seed in
        (n, 204, ms)
    in
    let dt = since t0 in
    List.iter
      (fun (c : Workload.ctx) ->
        cycles := Int64.add !cycles c.Workload.m.Machine.clock)
      machines;
    (found = want, dt)
  in
  { op; vcycles = (fun () -> !cycles); cache = None; tally = ignore }

let workloads =
  [
    ( "serve_web",
      { setup = setup_web; window = 220; calib_every = 55; rate = 1200. } );
    ( "recut_ngx",
      { setup = setup_recut; window = 6; calib_every = 1; rate = 6. } );
    ( "profile_kv",
      { setup = setup_kv; window = 4; calib_every = 1; rate = 10. } );
  ]

(* ---------- timed runs ---------- *)

let counter name = float_of_int (Obs.counter_value (Obs.counter name))

(* the program's own spans, read back as host CPU seconds *)
let program_spans =
  [
    "checkpoint"; "crit"; "restore"; "tcp_repair"; "rewrite"; "inject";
    "journal.lock"; "journal.append";
  ]

let snapshot (r : ready) =
  let cache f =
    match r.cache with
    | Some b -> float_of_int (f (Bbcache.stats b))
    | None -> 0.
  in
  [
    ("machine.insns", counter "machine.steps");
    ("machine.syscalls", counter "machine.syscalls");
    ("machine.traps", counter "machine.traps");
    ("machine.vcycles", Int64.to_float (r.vcycles ()));
    ("bbcache.hits", cache (fun s -> s.Bbcache.st_hits));
    ("bbcache.decodes", cache (fun s -> s.Bbcache.st_decodes));
    ("bbcache.flushes", cache (fun s -> s.Bbcache.st_flushes));
    ("bbcache.superblocks", cache (fun s -> s.Bbcache.st_superblocks));
    ("alloc_kw", Span.words () /. 1e3);
  ]
  @ List.map
      (fun s -> ("span." ^ s, List.fold_left ( +. ) 0. (Obs.span_seconds s)))
      program_spans

(* counts the guest alone determines: a host-side change, tracing
   included, must leave every one of them unchanged *)
let guest_keys =
  [
    "machine.insns"; "machine.syscalls"; "machine.traps"; "machine.vcycles";
    "bbcache.hits"; "bbcache.decodes"; "bbcache.flushes"; "bbcache.superblocks";
  ]

type pass = {
  lat : float array;  (** op latencies at the reference speed, ns *)
  iter : float array;
      (** whole loop iterations (op and checks) at the reference speed, ns *)
  mutable iter_host_ns : float;  (** all iterations, as measured *)
  mutable slowdown : float;  (** the pass's median host slowdown *)
  mutable failed : int;
  mutable totals : (string * float) list;
      (** program counters over the timed ops *)
}

let new_pass ops =
  {
    lat = Array.make ops 0.;
    iter = Array.make ops 0.;
    iter_host_ns = 0.;
    slowdown = 1.;
    failed = 0;
    totals = [];
  }

let measure (wl : workload) (r : ready) (p : pass) =
  let ops = Array.length p.lat in
  let slow = Array.make ((ops + wl.calib_every - 1) / wl.calib_every) 1. in
  let before = snapshot r in
  for i = 0 to ops - 1 do
    if i mod wl.calib_every = 0 then slow.(i / wl.calib_every) <- calibrate ();
    let t0 = now () in
    let ok, dt = r.op i in
    p.iter.(i) <- since t0;
    p.lat.(i) <- dt;
    if not ok then p.failed <- p.failed + 1;
    if !Span.on then r.tally ()
  done;
  p.totals <- List.map2 (fun (k, a) (_, b) -> (k, b -. a)) before (snapshot r);
  p.iter_host_ns <- Array.fold_left ( +. ) 0. p.iter;
  p.slowdown <- quantile slow 0.5;
  (* each op is divided by the median of the five slowdowns around it *)
  let n = Array.length slow in
  let around k =
    let lo = max 0 (k - 2) and hi = min n (k + 3) in
    quantile (Array.sub slow lo (hi - lo)) 0.5
  in
  let smooth = Array.init n around in
  for i = 0 to ops - 1 do
    let s = smooth.(i / wl.calib_every) in
    p.lat.(i) <- p.lat.(i) /. s;
    p.iter.(i) <- p.iter.(i) /. s
  done

(* [Gc.stat] runs a full major collection first *)
let live_bytes () = float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))

(* every set-up starts from the same settled process state *)
let fresh () =
  Fault.reset ();
  Obs.reset ();
  Gc.compact ()

let guest (p : pass) = List.filter (fun (k, _) -> List.mem k guest_keys) p.totals

(* ---------- exact-repeat guard ---------- *)

(* A run records its exact counts under its (build, workload, seed,
   seconds, trace) key, the build being the digest of this executable; a
   later run of the same build with the same key must reproduce every one
   digit for digit, or it is not correct. Runs of another build, which
   may rightly change the counts, are never compared with it. *)
let repeat_guard ~path (values : (string * float) list) =
  let lines = List.map (fun (k, v) -> Printf.sprintf "%s %.17g" k v) values in
  if Sys.file_exists path then begin
    let old =
      In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (( <> ) "")
    in
    if old <> lines then
      Printf.eprintf
        "exact-repeat guard: counts differ from the run recorded in %s\n\
        \  recorded: %s\n\
        \  now:      %s\n\
         %!"
        path (String.concat "; " old) (String.concat "; " lines);
    old = lines
  end
  else begin
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    true
  end

(* ---------- the two modes ---------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
}

let run_untraced (wl : workload) ~seed ~ops ~repeat =
  let setup_s = Array.make setups 0. in
  let ready = ref None in
  for k = 0 to setups - 1 do
    ready := None;
    fresh ();
    let s0 = calibrate () in
    let t0 = now () in
    ready := Some (wl.setup ~seed);
    let dt = since t0 in
    setup_s.(k) <- dt /. ((s0 +. calibrate ()) /. 2.) *. 1e-9
  done;
  let r = Option.get !ready in
  let p = new_pass ops in
  measure wl r p;
  let heap_mb = live_bytes () /. 1e6 in
  ignore (Sys.opaque_identity r);
  let s = summarise ~window:wl.window p.lat in
  Printf.eprintf
    "set-ups %s s at the reference speed; %d ops, %d failed; host slowdown %.3f\n%!"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") setup_s)))
    ops p.failed p.slowdown;
  let same =
    repeat
      ((("failed", float_of_int p.failed) :: ("heap_live_mb", heap_mb)
       :: guest p)
      @ [ ("alloc_kw", List.assoc "alloc_kw" p.totals) ])
  in
  {
    correct = p.failed = 0 && same;
    attempted = ops;
    failed = p.failed;
    metrics =
      [
        ("setup_s", "s", quantile setup_s 0.5);
        ("ops_per_s", "1/s", s.ops_per_s);
        ("op_p50_ms", "ms", s.p50_ms);
        ("op_p90_ms", "ms", s.p90_ms);
        ("heap_live_mb", "MB", heap_mb);
      ];
  }

let run_traced (wl : workload) ~seed ~ops ~repeat ~spans =
  (* untraced pass: the overhead baseline, and the heap each op keeps *)
  fresh ();
  let pa = new_pass ops in
  let ra = wl.setup ~seed in
  let live0 = live_bytes () in
  measure wl ra pa;
  let growth_b = (live_bytes () -. live0) /. float_of_int ops in
  ignore (Sys.opaque_identity ra);
  (* traced pass, same seed and op count *)
  fresh ();
  let pb = new_pass ops in
  Span.clear ();
  Span.on := true;
  let s0 = calibrate () in
  let rb = wl.setup ~seed in
  let boot_ms =
    Span.get Span.incl_ns "apps.boot" *. 1e-6 /. ((s0 +. calibrate ()) /. 2.)
  in
  Span.clear ();
  measure wl rb pb;
  Span.on := false;
  ignore (Sys.opaque_identity rb);
  Span.write spans;
  let n = float_of_int ops in
  let tot k = List.assoc k pb.totals in
  (* times at the reference speed, by the pass's median slowdown *)
  let self k = Span.get Span.self_ns k /. pb.slowdown
  and incl k = Span.get Span.incl_ns k /. pb.slowdown
  and cnt k = Span.get Span.counts k
  and alloc k = Span.get Span.self_w k in
  let ratio a b = if b = 0. then 0. else a /. b in
  let per_op_ms k = self k /. n *. 1e-6 and per_op_us k = self k /. n *. 1e-3 in
  let program_ms names =
    List.fold_left (fun a s -> a +. tot ("span." ^ s)) 0. names
    /. pb.slowdown /. n *. 1e3
  in
  let hits = tot "bbcache.hits" and decodes = tot "bbcache.decodes" in
  let speed (p : pass) = (summarise ~window:wl.window p.iter).ops_per_s in
  (* both sides as measured *)
  let covered = Hashtbl.fold (fun _ r a -> a +. !r) Span.self_ns 0. in
  let exact =
    [
      ("machine.insns", "count", tot "machine.insns" /. n);
      ("machine.syscalls", "count", tot "machine.syscalls" /. n);
      ("machine.traps", "count", tot "machine.traps" /. n);
      ("machine.vcycles", "count", tot "machine.vcycles" /. n);
      ("machine.alloc_kw", "kword", alloc "machine.run" /. n /. 1e3);
      ("fleet.alloc_kw", "kword",
        (alloc "fleet.dispatch" +. alloc "fleet.poll") /. n /. 1e3);
      ("bbcache.decodes", "count", decodes /. n);
      ("bbcache.flushes", "count", tot "bbcache.flushes" /. n);
      ("bbcache.superblocks", "count", tot "bbcache.superblocks" /. n);
      ("criu.image_kb", "KiB",
        ratio (cnt "criu.image_kb") (cnt "core.cuts" +. cnt "core.reenables"));
      ("tracer.blocks", "count", cnt "tracer.blocks" /. n);
      ("slice.points", "count", cnt "slice.points" /. n);
      ("mem.heap_growth_b", "B", growth_b);
    ]
  in
  let timed =
    [
      ("fleet.dispatch_us", "us", per_op_us "fleet.dispatch");
      ("fleet.poll_us", "us", per_op_us "fleet.poll");
      ("machine.run_us", "us", per_op_us "machine.run");
      ("machine.ns_per_insn", "ns", ratio (self "machine.run") (tot "machine.insns"));
      ("bbcache.hit_ratio", "ratio", ratio hits (hits +. decodes));
      ("criu.checkpoint_ms", "ms", program_ms [ "checkpoint" ]);
      ("criu.crit_ms", "ms", program_ms [ "crit" ]);
      ("criu.restore_ms", "ms", program_ms [ "restore" ]);
      ("criu.tcp_repair_ms", "ms", program_ms [ "tcp_repair" ]);
      ("core.cut_ms", "ms", ratio (incl "core.cut") (cnt "core.cuts") *. 1e-6);
      ("core.reenable_ms", "ms",
        ratio (incl "core.reenable") (cnt "core.reenables") *. 1e-6);
      ("core.rewrite_ms", "ms", program_ms [ "rewrite" ]);
      ("core.inject_ms", "ms", program_ms [ "inject" ]);
      ("core.journal_ms", "ms", program_ms [ "journal.lock"; "journal.append" ]);
      ("core.tracediff_ms", "ms", per_op_ms "core.tracediff");
      ("elf.cfg_ms", "ms", per_op_ms "elf.cfg");
      ("tracer.boot_ms", "ms", per_op_ms "tracer.boot");
      ("tracer.trace_ms", "ms", per_op_ms "tracer.trace");
      ("slice.trace_ms", "ms", per_op_ms "slice.trace");
      ("slice.compute_ms", "ms", per_op_ms "slice.compute");
      ("apps.boot_ms", "ms", boot_ms);
      ("recut.check_req_ms", "ms", incl "recut.check" /. n *. 1e-6);
      ("trace.overhead_pct", "%", ((speed pa /. speed pb) -. 1.) *. 100.);
      ("trace.coverage_pct", "%",
        covered /. pb.iter_host_ns *. 100.);
    ]
  in
  (* the traced pass must not move the guest: same counts as untraced *)
  let guest_same = guest pa = guest pb in
  if not guest_same then
    prerr_endline "exact-repeat guard: tracing changed the guest's counts";
  let same =
    repeat
      (("failed", float_of_int (pa.failed + pb.failed))
      :: List.map (fun (k, _, v) -> (k, v)) exact)
  in
  Printf.eprintf "traced: %d + %d ops, %d + %d failed, spans in %s\n%!" ops ops
    pa.failed pb.failed spans;
  {
    correct = pa.failed + pb.failed = 0 && guest_same && same;
    attempted = 2 * ops;
    failed = pa.failed + pb.failed;
    metrics = timed @ exact;
  }

let json (r : result) =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (num v) unit)
          r.metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and state_dir = ref "." in
  let usage =
    "hostbench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     --state-dir DIR"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve_web | recut_ngx | profile_kv");
      ("--seed", Arg.Set_int seed, "N seeds the inputs");
      ("--seconds", Arg.Set_int seconds, "S nominal run length; fixes the op count");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer run (1)");
      ("--state-dir", Arg.Set_string state_dir, "DIR repeat records and span files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let wl =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline usage;
        exit 2
  in
  (* fixed work: the nominal rate times the run length in whole windows,
     and at least 100 ops so that op_p90_ms has ten ops beyond it *)
  let windows =
    max
      ((100 + wl.window - 1) / wl.window)
      (int_of_float (Float.round (wl.rate *. float_of_int !seconds /. float_of_int wl.window)))
  in
  let key = Printf.sprintf "%s-seed%d-s%d-t%d" !workload !seed !seconds !trace in
  let file prefix ext = Filename.concat !state_dir (prefix ^ key ^ ext) in
  let build = Digest.to_hex (Digest.file Sys.executable_name) in
  let repeat = repeat_guard ~path:(file ("repeat-" ^ build ^ "-") ".txt") in
  let result =
    if !trace = 0 then run_untraced wl ~seed:!seed ~ops:(windows * wl.window) ~repeat
    else
      (* two passes, each half a run *)
      run_traced wl ~seed:!seed
        ~ops:(max 4 (windows / 2) * wl.window)
        ~repeat ~spans:(file "spans-" ".json")
  in
  print_endline (json result)
