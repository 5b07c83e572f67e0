(** Invariant oracles for chaos runs (DESIGN.md §6c).

    Safety — must hold after any schedule, once faults are cleared and
    recovery has run:

    - {b applied XOR unchanged}: every worker's feature blocks are all
      int3 or all original bytes, never mixed within one pid;
    - {b committed waves kept}: a wave the (post-recovery) manifest
      records as done has every member cut, and pids recovery unwound
      are fully original;
    - {b recovery idempotent}: a second [Fleet.recover] pass leaves the
      machine-state digest unchanged;
    - {b no silent drops}: the load generator accounts for every offered
      request as completed or failed.

    Liveness is the executor's business (it owns the clock): the fleet
    must answer again within a bounded virtual-cycle budget after faults
    clear, and goodput must recover to a floor. *)

type violation = { v_name : string; v_detail : string }

let violation v_name fmt =
  Printf.ksprintf (fun v_detail -> { v_name; v_detail }) fmt

let pp_violation ppf v = Format.fprintf ppf "%s: %s" v.v_name v.v_detail

(** Everything the safety checks need to inspect one fleet. *)
type ctx = {
  oc_machine : Machine.t;
  oc_pids : int list;  (** worker tree-root pids *)
  oc_base : int64;  (** guest text base of the workers' binary *)
  oc_blocks : Covgraph.block list;  (** effective feature blocks *)
  oc_originals : int list;  (** original first byte per block *)
}

let block_bytes (ctx : ctx) pid =
  let mem = (Machine.proc_exn ctx.oc_machine pid).Proc.mem in
  List.map
    (fun (b : Covgraph.block) ->
      Mem.peek8 mem (Int64.add ctx.oc_base (Int64.of_int b.Covgraph.b_off)))
    ctx.oc_blocks

let all_cut (ctx : ctx) pid =
  List.for_all (fun x -> x = 0xCC) (block_bytes ctx pid)

let all_original (ctx : ctx) pid = block_bytes ctx pid = ctx.oc_originals

(** The context over [pids]' feature [blocks] at text base [base], with
    the original bytes read from the first pid — call it while that pid
    is still untouched. *)
let make (m : Machine.t) ~base ~blocks ~pids : ctx =
  let ctx =
    {
      oc_machine = m;
      oc_pids = pids;
      oc_base = base;
      oc_blocks = blocks;
      oc_originals = [];
    }
  in
  { ctx with oc_originals = block_bytes ctx (List.hd pids) }

(** Per-pid applied XOR unchanged, across the whole fleet. *)
let check_xor (ctx : ctx) : violation list =
  List.filter_map
    (fun pid ->
      if all_cut ctx pid || all_original ctx pid then None
      else
        Some
          (violation "xor" "pid %d is half-patched (%s)" pid
             (String.concat ","
                (List.map string_of_int (block_bytes ctx pid)))))
    ctx.oc_pids

(** Each pid on its expected side of the XOR: every pid in [cut] fully
    cut, every other pid fully original. *)
let check_sides (ctx : ctx) ~(cut : int list) : violation list =
  List.filter_map
    (fun pid ->
      if List.mem pid cut then
        if all_cut ctx pid then None
        else Some (violation "side" "pid %d should be cut" pid)
      else if all_original ctx pid then None
      else Some (violation "side" "pid %d should be original" pid))
    ctx.oc_pids

(** Committed waves kept: read the manifest back (post-recovery, so the
    valid prefix is authoritative), and require every member of a
    [Wave_done] wave to be fully cut, and every pid recovery unwound to
    be fully original. Waves the manifest lost (torn tail, corruption)
    impose nothing here — recovery already reverted them uniformly, and
    {!check_xor} holds either way. *)
let check_waves (ctx : ctx) ~(plan : int list list)
    ~(recovery : Fleet.recovery) : violation list =
  let man = Journal.Manifest.attach ctx.oc_machine.Machine.fs ~dir:Fleet.manifest_dir in
  let entries, _torn = Journal.Manifest.read man in
  let s = Journal.Manifest.summarize entries in
  let of_wave w = try List.nth plan (w - 1) with _ -> [] in
  let completed =
    List.concat_map of_wave s.Journal.Manifest.m_completed
  in
  List.filter_map
    (fun pid ->
      if not (all_cut ctx pid) then
        Some (violation "committed-wave-lost" "pid %d of a done wave is not cut" pid)
      else None)
    completed
  @ List.filter_map
      (fun pid ->
        if not (all_original ctx pid) then
          Some (violation "unwound-not-original" "unwound pid %d is not original" pid)
        else None)
      recovery.Fleet.fr_unwound

(** Deterministic digest of everything recovery can touch: every file in
    the machine fs (journals, manifests, images) plus each worker's
    state and feature bytes. Fencing tokens ([.../lock]) are excluded —
    their epoch is monotonic by design: any recovery pass that finds a
    fence bumps it, so the lock can differ between two otherwise
    identical states. Two digests agree iff the states agree. *)
let state_digest (ctx : ctx) : int64 =
  let b = Buffer.create 4096 in
  let fs = ctx.oc_machine.Machine.fs in
  let is_fence path =
    let sfx = "/lock" in
    let lp = String.length path and ls = String.length sfx in
    lp >= ls && String.sub path (lp - ls) ls = sfx
  in
  List.iter
    (fun path ->
      Buffer.add_string b path;
      Buffer.add_char b '\000';
      Buffer.add_string b (Option.value ~default:"" (Vfs.find fs path));
      Buffer.add_char b '\000')
    (List.sort compare (List.filter (fun p -> not (is_fence p)) (Vfs.list fs)));
  List.iter
    (fun pid ->
      let state =
        match Machine.proc ctx.oc_machine pid with
        | Some p -> Proc.state_to_string p.Proc.state
        | None -> "reaped"
      in
      Buffer.add_string b (Printf.sprintf "pid=%d %s " pid state);
      List.iter
        (fun byte -> Buffer.add_string b (string_of_int byte))
        (match Machine.proc ctx.oc_machine pid with
        | Some _ -> block_bytes ctx pid
        | None -> []))
    ctx.oc_pids;
  Validate.checksum (Buffer.contents b)

(** Recovery idempotent by state digest: with faults cleared and one
    recovery pass already run, a second pass must change nothing. *)
let check_recover_idempotent (ctx : ctx) : violation list =
  let d1 = state_digest ctx in
  let (_ : Fleet.recovery) =
    Fleet.recover ctx.oc_machine ~pids:ctx.oc_pids
  in
  let d2 = state_digest ctx in
  if d1 <> d2 then
    [ violation "recover-idempotent" "digest %Lx -> %Lx across a second pass" d1 d2 ]
  else []

(** Request accounting: every offered request ends exactly once, served
    or cleanly refused. *)
let check_accounting ~offered ~served ~refused : violation list =
  if served + refused <> offered then
    [
      violation "request-dropped" "offered=%d but served=%d + refused=%d"
        offered served refused;
    ]
  else []

(** Goodput floor after faults clear: served over offered. *)
let check_goodput ~(floor : float) ~offered ~served : violation list =
  let goodput = float_of_int served /. float_of_int (max 1 offered) in
  if goodput < floor then
    [
      violation "goodput-floor" "goodput %.2f below floor %.2f (%d/%d)"
        goodput floor served offered;
    ]
  else []
