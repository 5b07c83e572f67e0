(** Ablations of DynaCut's design choices (DESIGN.md §5) and the paper's
    §5 extensions, implemented and measured:

    1. {b blocking policy}: first-byte int3 vs full wipe vs page unmap
       (on a page-per-function build) — rewrite cost vs residual ROP
       surface, quantifying §3.2.2's "increases security … adds
       performance overhead" trade-off and §5's "faster than replacing
       code with int3" prediction;
    2. {b trace canonicalization}: diffing raw dynamic blocks vs
       CFG-normalized coverage — how many unsound removals the
       normalization prevents;
    3. {b automatic phase detection}: the §5 syscall-trigger nudge vs the
       operator-watches-the-log protocol — do they find the same
       init-only set?
    4. {b library debloating} (§5): wiping the init-only blocks *inside
       libc.so*, not just the application;
    5. {b redeploy from a customized image} (§4.1 footnote 5): restoring
       an already-debloated checkpoint vs booting + re-profiling. *)

(* ---------- 1. blocking-policy ablation ---------- *)

type policy_row = {
  ab_policy : string;
  ab_disable_s : float;
  ab_bytes_patched : int;
  ab_gadgets_after : int;
  ab_blocked : bool;
}

(** rkv linked page-per-function, with its own files built once per
    process like every shipped app's. *)
let rkv_paged : Workload.app =
  {
    Workload.rkv with
    a_files =
      lazy
        (( "rkv",
           Self.to_bytes
             (Crt0.link_app ~func_align:4096 ~libc:(Lazy.force Libc.shared) (Rkv.unit_rkv ())) )
        :: Rkv.files);
  }

(** Feature blocks of rkv's SET on the page-aligned build: the whole
    [rkv_cmd_set] function occupies its own page, so unmapping is
    feasible. *)
let paged_feature_blocks () =
  let cfg_of = Common.cfg_of_app rkv_paged in
  let _, wanted =
    Workload.trace_requests ~app:rkv_paged ~requests:Workload.kv_wanted
      ~nudge_at_ready:true ()
  in
  let _, undesired =
    Workload.trace_requests ~app:rkv_paged ~requests:Workload.kv_undesired
      ~nudge_at_ready:true ()
  in
  (Tracediff.feature_blocks ~cfg_of ~wanted:[ wanted ] ~undesired:[ undesired ] ())
    .Tracediff.undesired

(** For the unmap policy on a page-per-function build, the unit of
    removal is the feature function's *pages*: every function whose entry
    block is itself feature-only (reached exclusively through the blocked
    dispatcher edge) contributes its full page range, padding included. *)
let page_blocks_of_features ~(exe : Self.t) (blocks : Covgraph.block list) :
    Covgraph.block list =
  let bounds = Funcbounds.of_self exe in
  let feature_offs =
    List.filter_map
      (fun (b : Covgraph.block) ->
        if b.Covgraph.b_module = exe.Self.name then Some b.Covgraph.b_off else None)
      blocks
  in
  let owned_functions =
    List.sort_uniq compare
      (List.filter_map
         (fun off ->
           match Funcbounds.function_of bounds off with
           (* the prologue (function entry) itself is feature-only *)
           | Some f when List.mem f feature_offs -> Some f
           | _ -> None)
         feature_offs)
  in
  let starts = bounds.Funcbounds.fb_starts in
  let page = 4096 in
  List.concat_map
    (fun f ->
      (* extent: from this function's page to the next function's page *)
      let next =
        Array.fold_left
          (fun acc s -> if s > f && s < acc then s else acc)
          max_int starts
      in
      let lo = f / page * page in
      let hi = if next = max_int then lo + page else next / page * page in
      let npages = max 1 ((hi - lo) / page) in
      List.init npages (fun k ->
          { Covgraph.b_module = exe.Self.name; b_off = lo + (k * page); b_size = page }))
    owned_functions

let measure_policy ~(blocks : Covgraph.block list) (name, method_) : policy_row =
  let c = Workload.boot rkv_paged in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let blocks =
    match method_ with
    | `Unmap_pages ->
        let exe = Option.get (Vfs.find_self c.Workload.m.Machine.fs "rkv") in
        (* dispatcher edge blocks stay int3-patched; function pages unmapped *)
        blocks @ page_blocks_of_features ~exe blocks
    | _ -> blocks
  in
  let journals, t =
    Dynacut.cut session ~blocks ~policy:{ Dynacut.method_; on_trap = `Kill }
  in
  let bytes =
    List.fold_left (fun a j -> a + Rewriter.journal_bytes j) 0 journals
  in
  (* gadget surface left inside the feature region *)
  let img = Checkpoint.dump c.Workload.m ~pid:c.Workload.pid () in
  let gadgets =
    List.fold_left
      (fun acc (b : Covgraph.block) ->
        match
          Images.read_mem img (Rewriter.block_vaddr img b) b.Covgraph.b_size
        with
        | data ->
            let g, _ = Gadget.scan_bytes data in
            acc + g
        | exception (Not_found | Rewriter.Rewrite_error _) -> acc)
      0 blocks
  in
  let (_ : string) = Workload.rpc c "SET a 1\n" in
  let blocked = not (Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid)) in
  {
    ab_policy = name;
    ab_disable_s = t.Dynacut.t_disable;
    ab_bytes_patched = bytes;
    ab_gadgets_after = gadgets;
    ab_blocked = blocked;
  }

let run_policy fmt =
  Format.fprintf fmt "1. blocking policy (rkv SET, page-per-function build)@.";
  let blocks = paged_feature_blocks () in
  let rows =
    List.map
      (measure_policy ~blocks)
      [ ("first-byte int3", `First_byte); ("wipe blocks", `Wipe); ("unmap pages", `Unmap_pages) ]
  in
  Format.fprintf fmt "%s@."
    (Table.render
       ~headers:[ "policy"; "disable time(s)"; "bytes touched"; "gadgets left in feature"; "feature blocked" ]
       (List.map
          (fun r ->
            [
              r.ab_policy;
              Printf.sprintf "%.5f" r.ab_disable_s;
              string_of_int r.ab_bytes_patched;
              string_of_int r.ab_gadgets_after;
              (if r.ab_blocked then "yes" else "NO");
            ])
          rows));
  rows

(* ---------- 2. normalization ablation ---------- *)

let normalization_for fmt (app : Workload.app) =
  let init_log, serving =
    Common.server_phases app ~requests:(Workload.web_wanted @ Workload.kv_wanted)
  in
  let raw = Tracediff.init_blocks ~init:init_log ~serving () in
  let normalized =
    Tracediff.init_blocks ~cfg_of:(Common.cfg_of_app app) ~init:init_log ~serving ()
  in
  (* unsound raw candidates: their byte range overlaps a static block the
     serving phase still executes (wiping them would corrupt live code) *)
  let cfg_of = Common.cfg_of_app app in
  let serving_norm = Covgraph.normalize ~cfg_of (Covgraph.of_log serving) in
  let unsound =
    List.filter
      (fun (b : Covgraph.block) ->
        List.exists
          (fun (sv : Covgraph.block) ->
            sv.Covgraph.b_module = b.Covgraph.b_module
            && sv.Covgraph.b_off < b.Covgraph.b_off + b.Covgraph.b_size
            && b.Covgraph.b_off < sv.Covgraph.b_off + sv.Covgraph.b_size)
          (Covgraph.blocks serving_norm))
      raw.Tracediff.undesired
  in
  Format.fprintf fmt
    "  %-5s raw dynamic diff %3d candidates | CFG-normalized %3d | unsound raw candidates %d@."
    app.Workload.a_name
    (List.length raw.Tracediff.undesired)
    (List.length normalized.Tracediff.undesired)
    (List.length unsound);
  (List.length raw.Tracediff.undesired, List.length normalized.Tracediff.undesired, List.length unsound)

let run_normalization fmt =
  Format.fprintf fmt "2. trace canonicalization (init-diff)@.";
  let l = normalization_for fmt Workload.ltpd in
  let n = normalization_for fmt Workload.ngx in
  Format.fprintf fmt
    "an unsound raw candidate points into a block the serving phase still@.\
     executes: wiping it crashes the server (the pre-normalization Figure 7@.\
     run did exactly that)@.@.";
  (l, n)

(* ---------- 3. automatic phase detection ---------- *)

let run_autophase fmt =
  Format.fprintf fmt "3. automatic phase detection (accept-syscall trigger vs log watching)@.";
  let app = Workload.rkv in
  let reqs = Workload.kv_wanted in
  let cfg_of = Common.cfg_of_app app in
  let manual_init, manual_serving = Common.server_phases app ~requests:reqs in
  let auto_init, auto_serving = Workload.trace_requests_auto ~app ~requests:reqs () in
  let manual = Tracediff.init_blocks ~cfg_of ~init:manual_init ~serving:manual_serving () in
  let auto = Tracediff.init_blocks ~cfg_of ~init:auto_init ~serving:auto_serving () in
  let set_of r =
    let g = Covgraph.create () in
    List.iter (Covgraph.add g) r.Tracediff.undesired;
    g
  in
  let gm = set_of manual and ga = set_of auto in
  let common = List.length (Covgraph.intersect gm ga) in
  Format.fprintf fmt
    "manual nudge: %d init-only blocks; automatic (first accept): %d;@.\
     agreement: %d blocks (%.1f%% of the manual set) — the syscall trigger@.\
     needs no operator in the loop (§5)@.@."
    (Covgraph.cardinal gm) (Covgraph.cardinal ga) common
    (100. *. float_of_int common /. float_of_int (max 1 (Covgraph.cardinal gm)));
  (Covgraph.cardinal gm, Covgraph.cardinal ga, common)

(* ---------- 4. library debloating ---------- *)

let run_libcut fmt =
  Format.fprintf fmt "4. shared-library debloating (libc.so init-only code, ltpd)@.";
  let app = Workload.ltpd in
  let init_blocks, _, _ = Common.init_only_blocks app in
  let libc_blocks =
    List.filter (fun (b : Covgraph.block) -> b.Covgraph.b_module = "libc.so") init_blocks
  in
  let app_blocks = Common.own_blocks "ltpd" init_blocks in
  let c = Workload.boot app in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let _, t =
    Dynacut.cut session ~blocks:libc_blocks
      ~policy:{ Dynacut.method_ = `Wipe; on_trap = `Kill }
  in
  (* the server must still answer everything *)
  let ok =
    List.for_all
      (fun r -> String.length (Workload.rpc c r) > 0)
      Workload.web_wanted
    && Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid)
  in
  Format.fprintf fmt
    "init-only blocks: %d in ltpd itself, %d inside libc.so; wiped the@.\
     libc ones in %.4fs — server still serves the full mix: %s@.@."
    (List.length app_blocks) (List.length libc_blocks) (Dynacut.total_time t)
    (if ok then "yes" else "NO");
  (List.length libc_blocks, ok)

(* ---------- 5. restore-vs-boot ---------- *)

let run_restore_vs_boot fmt =
  Format.fprintf fmt
    "5. deploying from a customized image vs booting from scratch (ltpd)@.";
  (* cold boot + init-code removal, timed end to end *)
  let init_blocks, _, _ = Common.init_only_blocks Workload.ltpd in
  let (c, session), t_boot =
    Stats.time_it (fun () ->
        let c = Workload.boot Workload.ltpd in
        let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
        let _ =
          Dynacut.cut session ~blocks:init_blocks
            ~policy:{ Dynacut.method_ = `Wipe; on_trap = `Kill }
        in
        (c, session))
  in
  (* the paper's footnote 5: "end-users can directly restore the
     'customized' process image, which can be even faster than launching
     the program from the start" — kill the server and bring it back from
     the already-customized image *)
  let pid = c.Workload.pid in
  let path = Printf.sprintf "%s/dump-%d.img" session.Dynacut.tmpfs pid in
  Machine.post_signal c.Workload.m ~pid ~signum:Abi.sigkill;
  let (_ : Proc.t), t_restore =
    Stats.time_it (fun () ->
        Machine.reap c.Workload.m ~pid;
        Restore.restore_from_tmpfs c.Workload.m ~path)
  in
  let serves =
    String.length (Workload.rpc c (Workload.http_get "/index.html")) > 0
  in
  Format.fprintf fmt
    "boot + profile-guided init wipe: %.4fs (host) | redeploy from the@.     customized image: %.4fs — %.0fx faster, already debloated; serving: %s@.@."
    t_boot t_restore (t_boot /. max 1e-9 t_restore)
    (if serves then "yes" else "NO");
  (t_boot, t_restore, serves)

(* ---------- 6. dynamic seccomp ---------- *)

let run_seccomp fmt =
  Format.fprintf fmt
    "6. dynamic seccomp filtering by image rewriting (§5, after Ghavamnia et al.)@.";
  let c = Workload.boot Workload.ltpd in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  (* post-initialization, a static web server needs none of these *)
  let denied =
    [ Abi.sys_fork; Abi.sys_socket; Abi.sys_bind; Abi.sys_listen; Abi.sys_mmap ]
  in
  let t = Dynacut.apply_seccomp session ~denied:(Some denied) in
  let ok =
    List.for_all
      (fun r -> String.length (Workload.rpc c r) > 0)
      Workload.web_wanted
    && Proc.is_live (Machine.proc_exn c.Workload.m c.Workload.pid)
  in
  Format.fprintf fmt
    "denied post-init syscalls: %s; filter installed by a %.4fs image@.     rewrite; full request mix still served: %s — any code-reuse payload@.     invoking them now dies with SIGSYS, and the filter is removable the@.     same way when a maintenance window needs it@.@."
    (String.concat ", " (List.map Abi.syscall_name denied))
    (Dynacut.total_time t)
    (if ok then "yes" else "NO");
  (List.length denied, ok)

let run fmt =
  Common.section fmt "Ablations: policies, normalization, autophase, library debloating";
  let p = run_policy fmt in
  let n = run_normalization fmt in
  let a = run_autophase fmt in
  let l = run_libcut fmt in
  let r = run_restore_vs_boot fmt in
  let sc = run_seccomp fmt in
  (p, n, a, l, r, sc)
