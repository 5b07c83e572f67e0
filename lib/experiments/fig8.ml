(** Figure 8: Redis-server throughput under DynaCut, on the virtual
    clock. A closed-loop client floods GET requests; at t≈18 s DynaCut
    rewrites the process to disable the SET command, at t≈48 s it
    re-enables it; a vanilla run is the baseline.

    Two axes. The throughput timeline is virtual: 1 "second" = 1M
    virtual cycles, and the clock advances only while the guest runs.
    A rewrite runs with the guest frozen between two run slices, so it
    takes no virtual time and the timeline shows no dip. The length of
    the interruption is measured on the host axis instead: the stage
    timings {!Dynacut.cut} and {!Dynacut.reenable} return. *)

let cycles_per_second = 1_000_000
let total_seconds = 70
let disable_at = 18
let reenable_at = 48

type run = {
  f8_throughput : float array;  (** replies per virtual second *)
  f8_rewrites : Dynacut.timings list;
      (** host-axis stage timings of the disable and the re-enable, in
          that order; empty for the vanilla run *)
  f8_label : string;
}

let closed_loop_run ~(dynacut : bool) : run =
  let blocks = if dynacut then Common.rkv_feature_blocks Workload.kv_undesired else [] in
  (* fresh registry per run: the vanilla and DynaCut curves use the same
     counter names, and stale handles must not leak across runs *)
  Obs.reset ();
  let c = Workload.boot Workload.rkv in
  let m = c.Workload.m in
  let session = if dynacut then Some (Dynacut.create m ~root_pid:c.Workload.pid) else None in
  (* replies are counted in the observability registry (one labeled
     counter per virtual second) instead of a private array; the
     throughput curve is read back from it once the run ends *)
  let reply_counter s =
    Obs.counter ~labels:[ ("s", string_of_int s) ] "fig8.replies"
  in
  let journals = ref [] in
  let rewrites = ref [] in
  (* closed-loop client state *)
  let outstanding : Net.conn option ref = ref None in
  let t0 = m.Machine.clock in
  let now_s () = Int64.to_int (Int64.sub m.Machine.clock t0) / cycles_per_second in
  let pump () =
    (match !outstanding with
    | None ->
        let conn = Net.connect m.Machine.net Rkv.port in
        Net.client_send conn "GET greeting\n";
        outstanding := Some conn
    | Some conn ->
        if Net.client_pending conn > 0 then begin
          let (_ : string) = Net.client_recv conn in
          Net.client_close conn;
          let s = now_s () in
          if s < total_seconds then Obs.incr (reply_counter s);
          outstanding := None
        end);
    ignore (Machine.run m ~max_cycles:5_000)
  in
  let apply_cut () =
    match session with
    | None -> ()
    | Some session ->
        let js, t =
          Dynacut.cut session ~blocks
            ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "rkv_err" }
        in
        journals := js;
        rewrites := [ t ]
  in
  let apply_reenable () =
    match session with
    | None -> ()
    | Some session ->
        rewrites := !rewrites @ [ Dynacut.reenable session !journals ]
  in
  let cut_done = ref false and reenable_done = ref false in
  while now_s () < total_seconds do
    if dynacut && (not !cut_done) && now_s () >= disable_at then begin
      apply_cut ();
      cut_done := true
    end;
    if dynacut && (not !reenable_done) && now_s () >= reenable_at then begin
      apply_reenable ();
      reenable_done := true
    end;
    pump ()
  done;
  (* sanity of the final state *)
  if dynacut then begin
    let r = Workload.rpc c "SET probe val\n" in
    if r <> "+OK" then failwith ("fig8: SET not re-enabled: " ^ r)
  end;
  {
    f8_throughput =
      Array.init total_seconds (fun s ->
          float_of_int (Obs.counter_value (reply_counter s)));
    f8_rewrites = !rewrites;
    f8_label = (if dynacut then "w/ DynaCut" else "w/o DynaCut");
  }

let run fmt =
  Common.section fmt
    "Figure 8: rkv throughput while disabling/re-enabling the SET command";
  let vanilla = closed_loop_run ~dynacut:false in
  let dc = closed_loop_run ~dynacut:true in
  Format.fprintf fmt
    "closed-loop GET client; disable SET at t=%ds, re-enable at t=%ds.@.\
     The virtual timeline has no dip: each rewrite runs while the guest is@.\
     frozen, and the virtual clock advances only while the guest runs.@.\
     Host seconds per rewrite (host axis):@."
    disable_at reenable_at;
  List.iter2
    (fun what t -> Format.fprintf fmt "  %-9s %a@." what Dynacut.pp_timings t)
    [ "disable"; "re-enable" ] dc.f8_rewrites;
  Format.fprintf fmt "@.";
  Format.fprintf fmt "%s@."
    (Table.timeseries ~ylabel:"time (virtual s)"
       [ (dc.f8_label, dc.f8_throughput); (vanilla.f8_label, vanilla.f8_throughput) ]);
  let mean a lo hi =
    let xs = ref [] in
    Array.iteri (fun i x -> if i >= lo && i < hi then xs := x :: !xs) a;
    Stats.mean !xs
  in
  Format.fprintf fmt
    "mean throughput (req/s): vanilla %.0f | DynaCut before cut %.0f, during@.\
     disabled window %.0f, after re-enable %.0f@."
    (mean vanilla.f8_throughput 2 total_seconds)
    (mean dc.f8_throughput 2 disable_at)
    (mean dc.f8_throughput (disable_at + 2) reenable_at)
    (mean dc.f8_throughput (reenable_at + 2) total_seconds);
  (vanilla, dc)
