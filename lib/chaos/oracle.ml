(** Invariant oracles for the directed chaos probes. See [oracle.mli]. *)

type violation = { v_name : string; v_detail : string }

let violation v_name fmt =
  Printf.ksprintf (fun v_detail -> { v_name; v_detail }) fmt

let pp_violation ppf v = Format.fprintf ppf "%s: %s" v.v_name v.v_detail

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

let check_sides (ctx : ctx) ~(cut : int list) : violation list =
  List.filter_map
    (fun pid ->
      if List.mem pid cut then
        if all_cut ctx pid then None
        else Some (violation "side" "pid %d should be cut" pid)
      else if all_original ctx pid then None
      else Some (violation "side" "pid %d should be original" pid))
    ctx.oc_pids

let manifest_prefix (ctx : ctx) : Journal.Manifest.entry list =
  fst
    (Journal.Manifest.read
       (Journal.Manifest.attach ctx.oc_machine.Machine.fs ~dir:Fleet.manifest_dir))

let check_waves (ctx : ctx) ~(plan : int list list)
    ~(manifest : Journal.Manifest.entry list) : violation list =
  let s = Journal.Manifest.summarize manifest in
  let of_wave w = try List.nth plan (w - 1) with _ -> [] in
  let completed =
    List.concat_map of_wave s.Journal.Manifest.m_completed
  in
  let unwound =
    match s.Journal.Manifest.m_open with
    | None -> []
    | Some (wave, _planned, cut) ->
        List.map (fun pid -> (wave, pid))
          (List.filter (fun pid -> List.mem pid ctx.oc_pids) cut)
  in
  List.filter_map
    (fun pid ->
      if not (all_cut ctx pid) then
        Some (violation "committed-wave-lost" "pid %d of a done wave is not cut" pid)
      else None)
    completed
  @ List.filter_map
      (fun (wave, pid) ->
        if not (all_original ctx pid) then
          Some
            (violation "open-wave-not-unwound"
               "pid %d, cut in open wave %d, is not original" pid wave)
        else None)
      unwound

(* Deterministic digest of everything recovery can touch: every file in
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

let check_recover_idempotent (ctx : ctx) : violation list =
  let d1 = state_digest ctx in
  let (_ : Fleet.recovery) =
    Fleet.recover ctx.oc_machine ~pids:ctx.oc_pids
  in
  let d2 = state_digest ctx in
  if d1 <> d2 then
    [ violation "recover-idempotent" "digest %Lx -> %Lx across a second pass" d1 d2 ]
  else []
