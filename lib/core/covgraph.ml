(** Code-coverage graphs (paper §3.1).

    A coverage graph is the set of executed basic blocks, keyed by
    (module, offset) with their sizes. Graphs are built from drcov trace
    logs, merged across runs (the "trace log merging" step), and diffed
    to find feature-related or temporally-dead code.

    Each module has its own [int]-keyed table of offset -> size, so a
    lookup is a name match over the few modules plus an integer probe,
    and a listing sorts plain offsets. *)

type block = { b_module : string; b_off : int; b_size : int }

let pp_block fmt b =
  Format.fprintf fmt "%s+0x%x(%d)" b.b_module b.b_off b.b_size

type t = {
  mutable mods : (string * int Itbl.t) list;  (** module -> offset -> size *)
  mutable card : int;
}

let create () = { mods = []; card = 0 }

let rec find_module name = function
  | [] -> None
  | (m, tbl) :: rest -> if String.equal m name then Some tbl else find_module name rest

let table t name =
  match find_module name t.mods with
  | Some tbl -> tbl
  | None ->
      let tbl = Itbl.create 256 in
      t.mods <- (name, tbl) :: t.mods;
      tbl

let add t (b : block) =
  let tbl = table t b.b_module in
  match Itbl.find tbl b.b_off with
  | sz -> if sz < b.b_size then Itbl.add tbl b.b_off b.b_size
  | exception Not_found ->
      Itbl.add tbl b.b_off b.b_size;
      t.card <- t.card + 1

let mem_off t ~module_ ~off =
  match find_module module_ t.mods with Some tbl -> Itbl.mem tbl off | None -> false

let mem t (b : block) = mem_off t ~module_:b.b_module ~off:b.b_off
let cardinal t = t.card

(* one module's blocks as (offset, size) pairs, by offset *)
let sorted tbl =
  let a = Array.make (Itbl.fold (fun _ _ n -> n + 1) tbl 0) (0, 0) in
  ignore (Itbl.fold (fun off size i -> a.(i) <- (off, size); i + 1) tbl 0 : int);
  Array.stable_sort (fun (x, _) (y, _) -> Int.compare x y) a;
  a

let by_name t = List.sort (fun (x, _) (y, _) -> String.compare x y) t.mods

let blocks t =
  List.concat_map
    (fun (m, tbl) ->
      Array.fold_right
        (fun (off, size) acc -> { b_module = m; b_off = off; b_size = size } :: acc)
        (sorted tbl) [])
    (by_name t)

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
  List.iter
    (fun t ->
      List.iter
        (fun (m, tbl) ->
          Itbl.fold (fun off size () -> add out { b_module = m; b_off = off; b_size = size }) tbl ())
        t.mods)
    ts;
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
  List.iter
    (fun (m, tbl) ->
      match cfg_of m with
      | None -> Itbl.fold (fun off size () -> add out { b_module = m; b_off = off; b_size = size }) tbl ()
      | Some cfg ->
          (* the module's real static blocks sorted by offset (a
             recovered CFG lists them sorted already) *)
          let sbs = Array.of_list (Cfg.real_blocks cfg) in
          let in_order = ref true in
          for i = 1 to Array.length sbs - 1 do
            if sbs.(i - 1).Cfg.bb_off > sbs.(i).Cfg.bb_off then in_order := false
          done;
          if not !in_order then Array.stable_sort (fun x y -> Int.compare x.Cfg.bb_off y.Cfg.bb_off) sbs;
          Array.iter
            (fun (off, size) ->
              (* binary search: the first static block at or after [off] *)
              let lo = ref 0 and hi = ref (Array.length sbs) in
              while !lo < !hi do
                let mid = (!lo + !hi) / 2 in
                if sbs.(mid).Cfg.bb_off < off then lo := mid + 1 else hi := mid
              done;
              let i = ref !lo in
              while !i < Array.length sbs && sbs.(!i).Cfg.bb_off < off + size do
                let sb = sbs.(!i) in
                add out { b_module = m; b_off = sb.Cfg.bb_off; b_size = sb.Cfg.bb_size };
                incr i
              done)
            (sorted tbl))
    (by_name t);
  out
