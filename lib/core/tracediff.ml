(** tracediff — undesired code block identification (paper §3.1,
    Figure 4: "our tracediff.py tool automatically calculates undesired
    basic blocks using different execution traces").

    Two analyses:
    - {!feature_blocks}: blocks exercised only by undesired requests —
      [blk ∈ CovG_undesired ∧ blk ∉ CovG_wanted], with shared-library
      blocks filtered out;
    - {!init_blocks}: blocks exercised only before the initialization
      nudge — [blk ∈ CovG_init ∧ blk ∉ CovG_serving]. *)

type report = {
  undesired : Covgraph.block list;  (** blocks safe to disable *)
  n_undesired_raw : int;  (** before library filtering *)
  n_wanted : int;
  n_total_undesired_cov : int;
}

let no_cfg : string -> Cfg.t option = fun _ -> None

(** Feature identification from wanted/undesired trace logs. Multiple
    logs per side are merged first. [*.so] modules are dropped (Figure
    4 shows libc.so blocks being excluded). [cfg_of] canonicalizes
    coverage onto static blocks before diffing (see
    {!Covgraph.normalize}) — required for sound wipe policies. *)
let feature_blocks ?(cfg_of = no_cfg) ~(wanted : Drcov.log list)
    ~(undesired : Drcov.log list) () : report =
  let gw = Covgraph.normalize ~cfg_of (Covgraph.of_logs wanted) in
  let gu = Covgraph.normalize ~cfg_of (Covgraph.of_logs undesired) in
  let raw = Covgraph.diff gu gw in
  let filtered =
    Covgraph.filter_modules (fun m -> not (Covgraph.is_shared_library m)) raw
  in
  {
    undesired = filtered;
    n_undesired_raw = List.length raw;
    n_wanted = Covgraph.cardinal gw;
    n_total_undesired_cov = Covgraph.cardinal gu;
  }

(** Initialization-only block identification from the two coverage dumps
    produced by the nudge protocol (§3.1): the blocks covered during
    initialization that never re-appear during serving, in every module
    (libraries included). *)
let init_blocks ?(cfg_of = no_cfg) ~(init : Drcov.log) ~(serving : Drcov.log)
    () : report =
  let gi = Covgraph.normalize ~cfg_of (Covgraph.of_log init) in
  let gs = Covgraph.normalize ~cfg_of (Covgraph.of_log serving) in
  let raw = Covgraph.diff gi gs in
  {
    undesired = raw;
    n_undesired_raw = List.length raw;
    n_wanted = Covgraph.cardinal gs;
    n_total_undesired_cov = Covgraph.cardinal gi;
  }

type slice_report = {
  sliced : Covgraph.block list;  (** covered blocks outside every slice *)
  n_covered : int;  (** serving coverage, after module filtering *)
  n_slice_points : int;  (** slice points received *)
}

(** Slice-based identification (the third candidate class): covered
    blocks outside every wanted-output slice. [in_slice] is the
    slicer's output — (module name, dynamic block-start offset, extent
    in bytes) spans — kept as plain data so the slicer library needn't
    depend on this one. A static block is in the slice iff some slice
    span overlaps its byte range: dynamic blocks are maximal
    fall-through runs, so one span can blanket several static CFG
    blocks. This refines the coverage diff: a block can be covered by
    wanted requests yet contribute to no wanted output. *)
(* One module's slice spans, sorted by start, with the running maximum
   of their ends: a byte range [lo, hi) overlaps some span iff, among the
   spans starting below [hi], the furthest end lies past [lo]. *)
type spans = { starts : int array; max_end : int array }

let spans_of (l : (int * int) list) =
  let a = Array.of_list l in
  Array.sort (fun (x, _) (y, _) -> Int.compare x y) a;
  let max_end = Array.make (Array.length a) min_int in
  Array.iteri
    (fun i (off, len) -> max_end.(i) <- max (off + len) (if i = 0 then min_int else max_end.(i - 1)))
    a;
  { starts = Array.map fst a; max_end }

let overlaps sp ~lo ~hi =
  (* [n]: how many spans start below [hi] *)
  let l = ref 0 and h = ref (Array.length sp.starts) in
  while !l < !h do
    let mid = (!l + !h) / 2 in
    if sp.starts.(mid) < hi then l := mid + 1 else h := mid
  done;
  !l > 0 && sp.max_end.(!l - 1) > lo

let sliced_away ?(keep_module = fun m -> not (Covgraph.is_shared_library m))
    ?(cfg_of = no_cfg) ~(covered : Drcov.log list)
    ~(in_slice : (string * int * int) list) () : slice_report =
  let g = Covgraph.normalize ~cfg_of (Covgraph.of_logs covered) in
  let blocks = Covgraph.filter_modules keep_module (Covgraph.blocks g) in
  let spans =
    List.map
      (fun m ->
        ( m,
          spans_of
            (List.filter_map
               (fun (m', off, len) -> if String.equal m m' then Some (off, len) else None)
               in_slice) ))
      (List.sort_uniq String.compare (List.map (fun (m, _, _) -> m) in_slice))
  in
  let hit (b : Covgraph.block) =
    List.exists
      (fun (m, sp) ->
        String.equal m b.Covgraph.b_module
        && overlaps sp ~lo:b.Covgraph.b_off ~hi:(b.Covgraph.b_off + b.Covgraph.b_size))
      spans
  in
  {
    sliced = List.filter (fun b -> not (hit b)) blocks;
    n_covered = List.length blocks;
    n_slice_points = List.length in_slice;
  }

let pp_slice_report fmt (r : slice_report) =
  Format.fprintf fmt
    "tracediff: %d covered blocks sliced away (%d covered, %d slice points)@."
    (List.length r.sliced) r.n_covered r.n_slice_points;
  List.iter
    (fun b -> Format.fprintf fmt "  %a@." Covgraph.pp_block b)
    r.sliced

(** Human-readable listing in the style of Figure 4's tool output. *)
let pp_report fmt (r : report) =
  Format.fprintf fmt
    "tracediff: %d undesired blocks (%d before library filtering); wanted coverage %d blocks@."
    (List.length r.undesired) r.n_undesired_raw r.n_wanted;
  List.iter
    (fun b -> Format.fprintf fmt "  %a@." Covgraph.pp_block b)
    r.undesired
