(** Figure 6: DynaCut's overhead for dynamically customizing code
    features — the checkpoint / disable-with-int3 / insert-sighandler /
    restore breakdown for Lighttpd, Nginx (two processes), and the
    Redis stand-in, averaged over 10 repetitions with the standard
    deviation (§4.1 reports σ = 17 ms on real hardware).

    Features disabled: PUT + DELETE for the web servers, SET for rkv —
    the same choices as the paper. *)

type row = {
  f6_app : string;
  f6_image_sizes : int list;  (** one per process *)
  f6_checkpoint : float * float;  (** mean, stddev (seconds) *)
  f6_disable : float * float;
  f6_handler : float * float;
  f6_restore : float * float;
  f6_total_mean : float;
  f6_nblocks : int;
}

let repetitions = 10

let measure ~(app : Workload.app) ~(blocks : Covgraph.block list)
    ~(redirect : string) : row =
  (* the per-stage times are read back from the observability registry's
     span host axis (one observation per stage per repetition), not from
     the timings struct — this figure is the registry's first consumer *)
  Obs.reset ();
  let samples =
    List.init repetitions (fun rep ->
        let c = Workload.boot ~seed:(100 + rep) app in
        let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
        let _journals, _t =
          Dynacut.cut session ~blocks
            ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect redirect }
        in
        (c, session))
  in
  let stat span =
    let vs = Obs.span_seconds span in
    assert (List.length vs = repetitions);
    (Stats.mean vs, Stats.stddev vs)
  in
  (* image sizes from one representative checkpoint *)
  let c0, s0 = List.hd samples in
  let sizes =
    List.map
      (fun pid ->
        Images.image_size
          (Validate.decode_sealed
             (Option.get (Vfs.find c0.Workload.m.Machine.fs (Printf.sprintf "%s/dump-%d.img" s0.Dynacut.tmpfs pid)))))
      (Dynacut.tree_pids s0)
  in
  let checkpoint = stat "checkpoint" in
  let disable = stat "rewrite" in
  let handler = stat "inject" in
  let restore = stat "restore" in
  {
    f6_app = app.Workload.a_name;
    f6_image_sizes = sizes;
    f6_checkpoint = checkpoint;
    f6_disable = disable;
    f6_handler = handler;
    f6_restore = restore;
    f6_total_mean =
      fst checkpoint +. fst disable +. fst handler +. fst restore;
    f6_nblocks = List.length blocks;
  }

let run fmt =
  Common.section fmt
    "Figure 6: overhead of dynamic feature customization (ms, mean of 10 runs)";
  let ltpd =
    measure ~app:Workload.ltpd
      ~blocks:(Common.web_feature_blocks Workload.ltpd)
      ~redirect:"ltpd_403"
  in
  let ngx =
    measure ~app:Workload.ngx
      ~blocks:(Common.web_feature_blocks Workload.ngx)
      ~redirect:"ngx_declined"
  in
  let rkv =
    measure ~app:Workload.rkv
      ~blocks:(Common.rkv_feature_blocks Workload.kv_undesired)
      ~redirect:"rkv_err"
  in
  let rows = [ ltpd; ngx; rkv ] in
  let table =
    List.map
      (fun r ->
        (* milliseconds: a first-byte edit takes tens of µs, which
           seconds at four decimals round to zero *)
        let ms x = Printf.sprintf "%.3f" (x *. 1e3) in
        let m (a, _) = ms a in
        let sd (_, b) = ms b in
        [
          r.f6_app;
          String.concat "+" (List.map Table.human_bytes r.f6_image_sizes);
          string_of_int r.f6_nblocks;
          m r.f6_checkpoint;
          m r.f6_disable;
          m r.f6_handler;
          m r.f6_restore;
          ms r.f6_total_mean;
          sd r.f6_checkpoint;
        ])
      rows
  in
  Format.fprintf fmt "%s@."
    (Table.render
       ~headers:
         [
           "app"; "image(s)"; "blocks"; "checkpoint"; "int3"; "sighandler";
           "restore"; "total(ms)"; "σ(ckpt)";
         ]
       table);
  Format.fprintf fmt "@.%s@."
    (Table.stacked_bars ~unit:"ms"
       ~segments:[ "checkpoint"; "disable w/ int3"; "insert sighandler"; "restore" ]
       (List.map
          (fun r ->
            ( r.f6_app,
              List.map
                (fun s -> s *. 1e3)
                [ fst r.f6_checkpoint; fst r.f6_disable; fst r.f6_handler; fst r.f6_restore ]
            ))
          rows));
  rows
