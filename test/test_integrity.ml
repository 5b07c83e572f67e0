(** Memory-integrity scrubbing (DESIGN.md §6d): live baselines, the
    generation-skip incremental audit, bitflip detection, page repair
    from the baseline snapshot (including pages the rewriter patched),
    the fleet's graduated quarantine / heal / respawn response, and the
    scrubber's invisibility on the virtual axis. *)

let lapp = Workload.ltpd
let lblocks = lazy (Common.web_feature_blocks lapp)

let lpolicy =
  { Dynacut.method_ = `First_byte; on_trap = `Redirect "ltpd_403" }

let cnt name = Obs.counter_value (Obs.counter name)

let boot_tree () =
  Obs.reset ();
  Fault.reset ();
  let blocks = Lazy.force lblocks in
  let c = Workload.spawn lapp in
  Workload.wait_ready c;
  let s = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  (c, s, blocks)

let fleet_boot ~n () =
  Obs.reset ();
  Fault.reset ();
  let blocks = Lazy.force lblocks in
  let ctxs = Workload.spawn_fleet ~n lapp in
  Workload.wait_fleet_ready ctxs;
  let m = (List.hd ctxs).Workload.m in
  let pids = List.map (fun c -> c.Workload.pid) ctxs in
  let fleet =
    Fleet.create m ~port:Ltpd.port ~pids ~blocks ~policy:lpolicy
  in
  (m, pids, fleet)

(* ---------- baselines + the incremental audit ---------- *)

let test_baseline_clean () =
  let _c, s, _blocks = boot_tree () in
  let t = Integrity.create s in
  Alcotest.(check (list reject)) "pristine tree scrubs clean" []
    (List.map (fun _ -> ()) (Integrity.scrub_full t ()));
  Alcotest.(check bool) "baseline pages captured" true
    (Integrity.pages_tracked t > 0);
  Alcotest.(check bool) "pages were visited" true
    (cnt "integrity.pages_scanned" > 0)

let test_gen_skip () =
  let c, s, _blocks = boot_tree () in
  let m = c.Workload.m in
  let t = Integrity.create s in
  (* the first full pass after baseline capture: every page's write
     generation still matches the baseline, so nothing is hashed *)
  Alcotest.(check (list reject)) "first pass clean" []
    (List.map (fun _ -> ()) (Integrity.scrub_full t ()));
  Alcotest.(check int) "unwritten pages are never hashed" 0
    (cnt "integrity.pages_hashed");
  Alcotest.(check int) "every page skipped via its generation"
    (Integrity.pages_tracked t)
    (cnt "integrity.pages_skipped");
  (* one flipped bit bumps exactly one page's generation: the next full
     pass hashes that page alone *)
  (match Machine.bitflip m (Rng.create 7) with
  | Some _ -> ()
  | None -> Alcotest.fail "seeded bitflip found no resident page");
  let findings = Integrity.scrub_full t () in
  Alcotest.(check int) "the flip is the only finding" 1 (List.length findings);
  Alcotest.(check int) "only the written page was hashed" 1
    (cnt "integrity.pages_hashed")

let test_detect_and_repair () =
  let c, s, _blocks = boot_tree () in
  let m = c.Workload.m in
  let t = Integrity.create s in
  let (_ : Integrity.finding list) = Integrity.scrub_full t () in
  let fpid, faddr =
    match Machine.bitflip m (Rng.create 11) with
    | Some (pid, addr) -> (pid, addr)
    | None -> Alcotest.fail "seeded bitflip found no resident page"
  in
  let f =
    match Integrity.scrub_full t () with
    | [ f ] -> f
    | l -> Alcotest.failf "expected one finding, got %d" (List.length l)
  in
  Alcotest.(check int) "finding names the flipped pid" fpid f.Integrity.f_pid;
  Alcotest.(check int64) "finding names the flipped page"
    (Int64.mul (Int64.div faddr Mem.page_size64) Mem.page_size64)
    f.Integrity.f_vaddr;
  Alcotest.(check bool) "digests differ" true
    (f.Integrity.f_expected <> f.Integrity.f_found);
  Alcotest.(check bool) "recheck still diverged" false (Integrity.recheck t f);
  (match Integrity.repair t f with
  | Integrity.Repaired -> ()
  | Integrity.Repair_failed why -> Alcotest.failf "repair failed: %s" why);
  Alcotest.(check bool) "recheck matches after repair" true
    (Integrity.recheck t f);
  Alcotest.(check (list reject)) "post-repair audit clean" []
    (List.map (fun _ -> ()) (Integrity.scrub_full t ()))

(* a flip landing in a page the rewriter patched: the pristine image and
   the backing binary both predate the cut and the working image is
   deleted, yet the page heals back to the post-cut int3 — the live
   baseline captured it *)
let test_rewritten_page_heals () =
  let c, s, blocks = boot_tree () in
  let m = c.Workload.m in
  let r =
    Dynacut.try_cut s ~blocks ~policy:lpolicy ()
  in
  (match r.Dynacut.r_outcome with
  | `Applied | `Degraded -> ()
  | o -> Alcotest.failf "cut did not apply: %a" Dynacut.pp_outcome o);
  let pid, p_vaddr =
    match
      List.concat_map
        (fun (j : Rewriter.journal) ->
          List.filter_map
            (function
              | Rewriter.Bytes_patch { p_vaddr; _ } ->
                  Some (j.Rewriter.j_pid, p_vaddr)
              | Rewriter.Unmap_patch _ -> None)
            j.Rewriter.j_patches)
        r.Dynacut.r_journals
    with
    | (pid, v) :: _ -> (pid, v)
    | [] -> Alcotest.fail "cut journaled no byte patch"
  in
  let t = Integrity.create s in
  Alcotest.(check (list reject)) "post-cut baseline clean" []
    (List.map (fun _ -> ()) (Integrity.scrub_full t ()));
  let mem = (Machine.proc_exn m pid).Proc.mem in
  Alcotest.(check int) "the patch byte is int3" 0xCC (Mem.peek8 mem p_vaddr);
  Mem.flip_bit mem ~addr:p_vaddr ~bit:0;
  Vfs.remove m.Machine.fs (Dynacut.image_path s pid);
  let f =
    match Integrity.scrub_full t () with
    | [ f ] -> f
    | l -> Alcotest.failf "expected one finding, got %d" (List.length l)
  in
  (match Integrity.repair t f with
  | Integrity.Repaired -> ()
  | Integrity.Repair_failed why -> Alcotest.failf "repair failed: %s" why);
  Alcotest.(check int) "the patch byte is int3 again" 0xCC
    (Mem.peek8 mem p_vaddr);
  Alcotest.(check (list reject)) "post-repair audit clean" []
    (List.map (fun _ -> ()) (Integrity.scrub_full t ()))

(* ---------- the fleet's graduated response ---------- *)

let test_fleet_quarantine_heal () =
  let m, pids, fleet = fleet_boot ~n:2 () in
  Fleet.start_scrub fleet;
  List.iter (fun pid -> ignore (Fleet.scrub_now fleet ~pid)) pids;
  let victim = List.hd pids in
  (match Machine.bitflip m ~pid:victim (Rng.create 23) with
  | Some _ -> ()
  | None -> Alcotest.fail "seeded bitflip found no resident page");
  let r = Fleet.scrub_now fleet ~pid:victim in
  Alcotest.(check int) "one finding" 1 (List.length r.Fleet.sr_findings);
  Alcotest.(check int) "one page healed" 1 (List.length r.Fleet.sr_repaired);
  Alcotest.(check bool) "no respawn needed" false r.Fleet.sr_respawned;
  Alcotest.(check int) "the worker was quarantined for the heal" 1
    (cnt "fleet.scrub.quarantines");
  (* un-quarantined: the fleet still answers *)
  (match Fleet.request fleet "GET /index.html HTTP/1.0\r\n\r\n" with
  | `Reply _ -> ()
  | `Refused | `Shed | `Timed_out _ -> Alcotest.fail "fleet stopped serving");
  Alcotest.(check (list reject)) "post-heal audit clean" []
    (List.map
       (fun _ -> ())
       (Integrity.scrub_full (Fleet.integrity fleet ~pid:victim) ()))

let test_fleet_redivergence_respawns () =
  let m, pids, fleet = fleet_boot ~n:2 () in
  (* roll the cut out first: escalation respawns from the newest sealed
     image, so the workers must have been checkpointed *)
  let config =
    Rollout.
      {
        r_waves = 1;
        r_sup =
          { Supervisor.default_config with Supervisor.canary_windows = 1 };
      }
  in
  let drive () =
    ignore (Fleet.request fleet "GET /index.html HTTP/1.0\r\n\r\n")
  in
  (match Fleet.rollout fleet ~config ~drive () with
  | Rollout.Completed _, _ -> ()
  | o, _ -> Alcotest.failf "rollout did not complete: %a" Rollout.pp_outcome o);
  Fleet.start_scrub fleet;
  List.iter (fun pid -> ignore (Fleet.scrub_now fleet ~pid)) pids;
  let victim, addr =
    match Machine.bitflip m ~pid:(List.hd pids) (Rng.create 29) with
    | Some (pid, addr) -> (pid, addr)
    | None -> Alcotest.fail "seeded bitflip found no resident page"
  in
  let r1 = Fleet.scrub_now fleet ~pid:victim in
  Alcotest.(check bool) "first divergence is page-repaired" true
    (List.length r1.Fleet.sr_repaired = 1 && not r1.Fleet.sr_respawned);
  (* the same page diverges again: the per-page repair budget (default
     1) is spent, so the graduated response escalates to a respawn *)
  let mem = (Machine.proc_exn m victim).Proc.mem in
  Mem.flip_bit mem ~addr ~bit:3;
  let r2 = Fleet.scrub_now fleet ~pid:victim in
  Alcotest.(check bool) "re-divergence respawns" true r2.Fleet.sr_respawned;
  Alcotest.(check int) "respawn counted" 1 (cnt "fleet.scrub.respawns");
  Alcotest.(check bool) "the worker is back" true
    (Machine.proc m victim <> None);
  Alcotest.(check (list reject)) "post-respawn audit clean" []
    (List.map
       (fun _ -> ())
       (Integrity.scrub_full (Fleet.integrity fleet ~pid:victim) ()))

(* ---------- scrubbing is invisible to the guest ---------- *)

(* Two seeded soaks with no flips, one pumping the background scrubber
   after every request: replies, the final virtual clock and every
   worker's retired instruction count must be equal — scrubbing is
   controller-side work and moves no guest clock. *)
let test_scrub_invisible_to_guest () =
  let soak ~scrub =
    let m, pids, fleet = fleet_boot ~n:3 () in
    if scrub then Fleet.start_scrub fleet;
    let replies =
      List.init 40 (fun _ ->
          let r = Fleet.request fleet "GET /index.html HTTP/1.0\r\n\r\n" in
          if scrub then ignore (Fleet.scrub_tick fleet);
          match r with
          | `Reply (pid, body) -> Printf.sprintf "%d:%s" pid body
          | `Refused -> "refused"
          | `Shed -> "shed"
          | `Timed_out pid -> Printf.sprintf "timed-out:%d" pid)
    in
    let retired =
      List.map (fun pid -> (Machine.proc_exn m pid).Proc.retired) pids
    in
    (replies, m.Machine.clock, retired, cnt "integrity.pages_scanned")
  in
  let r0, clock0, retired0, scanned0 = soak ~scrub:false in
  let r1, clock1, retired1, scanned1 = soak ~scrub:true in
  Alcotest.(check int) "the bare soak never scrubbed" 0 scanned0;
  Alcotest.(check bool) "the scrubbed soak audited pages" true (scanned1 > 0);
  Alcotest.(check (list string)) "same replies" r0 r1;
  Alcotest.(check int64) "same final clock" clock0 clock1;
  Alcotest.(check (list int)) "same retired counts" retired0 retired1

(* ---------- the scrub oracle ---------- *)

let test_oracle_check_scrub () =
  let f =
    {
      Integrity.f_pid = 1;
      f_vaddr = 0x400000L;
      f_expected = 1L;
      f_found = 2L;
    }
  in
  Alcotest.(check int) "surviving flips with no detection violate" 1
    (List.length (Oracle.check_scrub ~flips:2 ~detected:0 ~residue:[]));
  Alcotest.(check int) "detection clears the flip check" 0
    (List.length (Oracle.check_scrub ~flips:2 ~detected:1 ~residue:[]));
  Alcotest.(check int) "no flips, nothing owed" 0
    (List.length (Oracle.check_scrub ~flips:0 ~detected:0 ~residue:[]));
  Alcotest.(check int) "post-repair residue violates per page" 2
    (List.length (Oracle.check_scrub ~flips:0 ~detected:0 ~residue:[ f; f ]))

let suite =
  [
    Alcotest.test_case "baseline scrubs clean" `Quick test_baseline_clean;
    Alcotest.test_case "generation skip" `Quick test_gen_skip;
    Alcotest.test_case "detect + repair from snapshot" `Quick
      test_detect_and_repair;
    Alcotest.test_case "rewritten page heals to int3" `Quick
      test_rewritten_page_heals;
    Alcotest.test_case "fleet quarantine + heal" `Quick
      test_fleet_quarantine_heal;
    Alcotest.test_case "fleet re-divergence respawns" `Quick
      test_fleet_redivergence_respawns;
    Alcotest.test_case "scrub invisible to the guest" `Quick
      test_scrub_invisible_to_guest;
    Alcotest.test_case "scrub oracle" `Quick test_oracle_check_scrub;
  ]
