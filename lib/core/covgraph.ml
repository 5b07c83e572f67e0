(** Code-coverage graphs (paper §3.1).

    A coverage graph is the set of executed basic blocks, keyed by
    (module, offset) with their sizes. Graphs are built from drcov trace
    logs, merged across runs (the "trace log merging" step), and diffed
    to find feature-related or temporally-dead code. *)

type block = { b_module : string; b_off : int; b_size : int }

let block_compare a b = compare (a.b_module, a.b_off) (b.b_module, b.b_off)

let pp_block fmt b =
  Format.fprintf fmt "%s+0x%x(%d)" b.b_module b.b_off b.b_size

type t = { tbl : (string * int, int) Hashtbl.t }

let create () = { tbl = Hashtbl.create 256 }

let add t (b : block) =
  match Hashtbl.find_opt t.tbl (b.b_module, b.b_off) with
  | Some sz when sz >= b.b_size -> ()
  | _ -> Hashtbl.replace t.tbl (b.b_module, b.b_off) b.b_size

let mem t (b : block) = Hashtbl.mem t.tbl (b.b_module, b.b_off)
let mem_off t ~module_ ~off = Hashtbl.mem t.tbl (module_, off)
let cardinal t = Hashtbl.length t.tbl

let blocks t =
  Hashtbl.fold
    (fun (m, off) size acc -> { b_module = m; b_off = off; b_size = size } :: acc)
    t.tbl []
  |> List.sort block_compare

let covered_bytes t = Hashtbl.fold (fun _ size acc -> acc + size) t.tbl 0

let of_log (log : Drcov.log) : t =
  let t = create () in
  List.iter
    (fun (bb : Drcov.bb) ->
      match Drcov.module_of_bb log bb with
      | Some m ->
          add t { b_module = m.Drcov.mi_name; b_off = bb.Drcov.bb_off; b_size = bb.Drcov.bb_size }
      | None -> ())
    log.Drcov.bbs;
  t

(** Trace log merging: union of many runs' coverage. *)
let merge (ts : t list) : t =
  let out = create () in
  List.iter (fun t -> List.iter (add out) (blocks t)) ts;
  out

let of_logs logs = merge (List.map of_log logs)

(** [diff a b] = blocks of [a] that are not in [b] — the core tracediff
    operation: undesired = CovG_undesired \ CovG_wanted, and
    init-only = CovG_init \ CovG_serving. *)
let diff (a : t) (b : t) : block list =
  List.filter (fun blk -> not (mem b blk)) (blocks a)

(** Keep only blocks whose module satisfies [pred] — used to filter out
    shared-library blocks before feature blocking (§3.1, Figure 4). *)
let filter_modules pred (bl : block list) = List.filter (fun b -> pred b.b_module) bl

let is_shared_library name =
  Filename.check_suffix name ".so"

let intersect (a : t) (b : t) : block list = List.filter (mem b) (blocks a)

(** Canonicalize a coverage graph onto the *static* basic blocks of each
    module. Dynamic (drcov-style) blocks are a function of the entry
    point: straight-line execution records one long block even when it
    runs across a jump target that another phase entered directly, so
    two phases can cover the same bytes under different (offset, size)
    keys. Diffing raw dynamic blocks would then flag code as phase-only
    and wipe bytes inside live blocks. [normalize] expands every dynamic
    block into the static CFG blocks whose start it covers, making the
    diff sound. [cfg_of] maps a module name to its recovered CFG (None
    leaves that module's blocks untouched). *)
let normalize ~(cfg_of : string -> Cfg.t option) (t : t) : t =
  let out = create () in
  (* per module: its real static blocks sorted by offset, built once *)
  let statics = Hashtbl.create 4 in
  let statics_of m =
    match Hashtbl.find_opt statics m with
    | Some s -> s
    | None ->
        let s =
          Option.map
            (fun cfg ->
              let a = Array.of_list (Cfg.real_blocks cfg) in
              Array.stable_sort (fun x y -> compare x.Cfg.bb_off y.Cfg.bb_off) a;
              a)
            (cfg_of m)
        in
        Hashtbl.add statics m s;
        s
  in
  List.iter
    (fun b ->
      match statics_of b.b_module with
      | None -> add out b
      | Some sbs ->
          (* binary search: the first static block at or after [b_off] *)
          let lo = ref 0 and hi = ref (Array.length sbs) in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if sbs.(mid).Cfg.bb_off < b.b_off then lo := mid + 1 else hi := mid
          done;
          let i = ref !lo in
          while !i < Array.length sbs && sbs.(!i).Cfg.bb_off < b.b_off + b.b_size do
            let sb = sbs.(!i) in
            add out { b_module = b.b_module; b_off = sb.Cfg.bb_off; b_size = sb.Cfg.bb_size };
            incr i
          done)
    (blocks t);
  out
