(** The process rewriter (paper §3.2.1, §3.3): all DynaCut code edits
    happen on a *static process image*, never on live memory — "by
    rewriting a static process image, we avoid the complications of
    dealing with potential race conditions".

    Supported transformations, mirroring the paper's extended CRIT:
    - update memory contents (replace the first byte of a basic block —
      or every byte — with [int3]);
    - unmap whole code pages;
    - enlarge the VMA set / insert a position-independent shared library
      (see {!Inject});
    - update the SIGTRAP sigaction in the core image.

    Every destructive edit records the original bytes in a {!journal}, so
    the feature can later be restored ("bidirectional" transformation,
    §3.2.2). *)

type patch =
  | Bytes_patch of { p_vaddr : int64; p_orig : bytes }
  | Unmap_patch of {
      u_vma : Images.vma_img;  (** original VMA row *)
      u_pages : (int64 * bytes) list;  (** page contents that were dropped *)
    }

type journal = { j_pid : int; j_patches : patch list }

exception Rewrite_error of string

let int3 = '\xCC'

(** Base address of module [name] inside an image: the lowest VMA whose
    name is [name:<section>]. *)
let module_base (img : Images.t) (name : string) : int64 option =
  let prefix = name ^ ":" in
  let plen = String.length prefix in
  List.fold_left
    (fun acc (v : Images.vma_img) ->
      if
        String.length v.Images.vi_name >= plen
        && String.sub v.Images.vi_name 0 plen = prefix
      then
        match acc with
        | None -> Some v.Images.vi_start
        | Some a -> Some (min a v.Images.vi_start)
      else acc)
    None img.Images.mm

let block_vaddr img (b : Covgraph.block) : int64 =
  match module_base img b.Covgraph.b_module with
  | Some base -> Int64.add base (Int64.of_int b.Covgraph.b_off)
  | None ->
      raise
        (Rewrite_error
           (Printf.sprintf "module %s not mapped in pid %d" b.Covgraph.b_module
              img.Images.core.Images.c_pid))

(** Replace the first byte of each block with [int3] (the default,
    cheapest policy — enough to block a feature entered through its
    unique first block, §3.2.2). *)
let disable_first_byte (img : Images.t) (blocks : Covgraph.block list) : patch list =
  Fault.site Rewrite_patch;
  List.map
    (fun b ->
      let va = block_vaddr img b in
      let orig =
        try Images.read_mem img va 1
        with Not_found ->
          raise (Rewrite_error (Printf.sprintf "block %s+0x%x not in dumped pages"
                                  b.Covgraph.b_module b.Covgraph.b_off))
      in
      Images.write_mem img va (Bytes.make 1 int3);
      Bytes_patch { p_vaddr = va; p_orig = orig })
    blocks

(** Wipe every byte of each block with [int3] — the aggressive policy
    that also defeats code-reuse (ROP) on the disabled feature. *)
let wipe_blocks (img : Images.t) (blocks : Covgraph.block list) : patch list =
  Fault.site Rewrite_patch;
  List.map
    (fun b ->
      let va = block_vaddr img b in
      let orig =
        try Images.read_mem img va b.Covgraph.b_size
        with Not_found ->
          raise (Rewrite_error (Printf.sprintf "block %s+0x%x not in dumped pages"
                                  b.Covgraph.b_module b.Covgraph.b_off))
      in
      Images.write_mem img va (Bytes.make b.Covgraph.b_size int3);
      Bytes_patch { p_vaddr = va; p_orig = orig })
    blocks

let page_size = 4096

(** Unmap the code pages *fully covered* by the given blocks (unmapping a
    partially-covered page would take live code with it). Removes the
    pages from pagemap/pages and splits the VMAs, recording everything
    for restore. *)
let unmap_block_pages (img : Images.t) (blocks : Covgraph.block list) :
    patch list * Images.t =
  Fault.site Rewrite_unmap;
  (* bytes of each page covered by any block *)
  let coverage : (int64, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun b ->
      let va = block_vaddr img b in
      for k = 0 to b.Covgraph.b_size - 1 do
        let pg = Mem.page_base (Int64.add va (Int64.of_int k)) in
        Hashtbl.replace coverage pg (1 + Option.value ~default:0 (Hashtbl.find_opt coverage pg))
      done)
    blocks;
  let victim_pages =
    Hashtbl.fold (fun pg n acc -> if n = page_size then pg :: acc else acc) coverage []
    |> List.sort compare
  in
  if victim_pages = [] then ([], img)
  else begin
    (* capture page contents + affected VMA rows for the journal *)
    let patches =
      List.filter_map
        (fun pg ->
          match Images.find_vma img pg with
          | None -> None
          | Some vma ->
              let data = try Images.read_mem img pg page_size with Not_found -> Bytes.create 0 in
              Some (Unmap_patch { u_vma = vma; u_pages = [ (pg, data) ] }))
        victim_pages
    in
    (* rebuild mm: split VMAs around each victim page *)
    let in_victims a = List.mem (Mem.page_base a) victim_pages in
    let mm =
      List.concat_map
        (fun (v : Images.vma_img) ->
          let npages = v.Images.vi_len / page_size in
          (* group consecutive surviving pages into VMA fragments *)
          let frags = ref [] in
          let cur = ref None in
          for k = 0 to npages - 1 do
            let pa = Int64.add v.Images.vi_start (Int64.of_int (k * page_size)) in
            if in_victims pa then begin
              (match !cur with Some (s, n) -> frags := (s, n) :: !frags | None -> ());
              cur := None
            end
            else
              match !cur with
              | Some (s, n) -> cur := Some (s, n + 1)
              | None -> cur := Some (pa, 1)
          done;
          (match !cur with Some (s, n) -> frags := (s, n) :: !frags | None -> ());
          List.rev_map
            (fun (s, n) ->
              let delta = Int64.to_int (Int64.sub s v.Images.vi_start) in
              {
                v with
                Images.vi_start = s;
                vi_len = n * page_size;
                vi_file =
                  (match v.Images.vi_file with
                  | Some (f, off) -> Some (f, off + delta)
                  | None -> None);
              })
            !frags)
        img.Images.mm
    in
    (* rebuild pagemap/pages without the victim pages: the surviving
       pages of a run form runs whose bytes lie together, each moved
       once, straight into a buffer laid out as the sealed frame; a
       moved page keeps its leaf sum *)
    let moves = ref [] and len = ref 0 in
    List.iter
      (fun (pm : Images.pagemap_entry) ->
        let run = ref None in
        let flush () =
          Option.iter (fun m -> moves := m :: !moves) !run;
          run := None
        in
        for k = 0 to pm.Images.pm_npages - 1 do
          let pa = Int64.add pm.Images.pm_vaddr (Int64.of_int (k * page_size)) in
          if in_victims pa then flush ()
          else begin
            (match !run with
            | None ->
                run :=
                  Some
                    ( { Images.pm_vaddr = pa; pm_npages = 1; pm_off = !len },
                      pm.Images.pm_off + (k * page_size) )
            | Some (e, src) -> run := Some ({ e with Images.pm_npages = e.Images.pm_npages + 1 }, src));
            len := !len + page_size
          end
        done;
        flush ())
      img.Images.pagemap;
    let moves = List.rev !moves in
    let img' =
      Images.layout ~reserve:Validate.header_size
        { img with Images.mm; pagemap = List.map fst moves }
        ~len:!len
    in
    List.iter
      (fun ((e : Images.pagemap_entry), src_off) ->
        Images.blit_pages ~src:img ~src_off ~dst:img' ~dst_off:e.Images.pm_off
          ~len:(e.Images.pm_npages * page_size))
      moves;
    (patches, img')
  end

(** Undo byte patches on an image (feature re-enable / restore). Unmap
    patches are handled by {!remap}. *)
let restore_bytes (img : Images.t) (patches : patch list) : unit =
  List.iter
    (function
      | Bytes_patch { p_vaddr; p_orig } -> Images.write_mem img p_vaddr p_orig
      | Unmap_patch _ -> ())
    patches

(** Re-insert previously unmapped VMAs and their page contents. *)
let remap (img : Images.t) (patches : patch list) : Images.t =
  let unmaps =
    List.filter_map
      (function Unmap_patch { u_vma; u_pages } -> Some (u_vma, u_pages) | Bytes_patch _ -> None)
      patches
  in
  if unmaps = [] then img
  else begin
    let mm =
      List.fold_left
        (fun mm ((u_vma : Images.vma_img), _) ->
          (* drop the split fragments (and, when several patches share one
             original row, an already re-added copy) that fall inside the
             original VMA's range, then re-add the whole row — otherwise
             the mm list ends up with overlapping entries and the restored
             process double-maps those pages *)
          let u_end = Int64.add u_vma.Images.vi_start (Int64.of_int u_vma.Images.vi_len) in
          let survivors =
            List.filter
              (fun (v : Images.vma_img) ->
                not
                  (v.Images.vi_name = u_vma.Images.vi_name
                  && v.Images.vi_start >= u_vma.Images.vi_start
                  && Int64.add v.Images.vi_start (Int64.of_int v.Images.vi_len) <= u_end))
              mm
          in
          List.sort (fun a b -> compare a.Images.vi_start b.Images.vi_start) (survivors @ [ u_vma ]))
        img.Images.mm unmaps
    in
    (* pages that were unmapped while undumped come back unpopulated; the
       journal's copies come back as new pages, without sums, all of them
       appended at once, under the dump's rule for all-zero pages *)
    let pages =
      List.concat_map
        (fun (_, u_pages) -> List.filter (fun (_, data) -> Bytes.length data >= page_size) u_pages)
        unmaps
    in
    Images.append_pages { img with Images.mm } pages
  end

(** Install/replace a sigaction in the core image (how DynaCut registers
    its injected handler: "modifies this file to add the signal handler
    address, restorer address ... into the SIGTRAP sigaction field",
    §3.3). *)
let set_sigaction (img : Images.t) ~signum ~handler ~restorer : Images.t =
  let core = img.Images.core in
  let others =
    List.filter (fun (s : Images.sigaction_img) -> s.Images.sg_signum <> signum) core.Images.c_sigactions
  in
  {
    img with
    Images.core =
      {
        core with
        Images.c_sigactions =
          others @ [ { Images.sg_signum = signum; sg_handler = handler; sg_restorer = restorer } ];
      };
  }

(** Install (or clear) a seccomp-style syscall denylist in the core
    image — "dynamically enabling/disabling seccomp filtering" from the
    paper's §5 list of process-rewriting applications. *)
let set_seccomp (img : Images.t) ~(denied : int list option) : Images.t =
  { img with Images.core = { img.Images.core with Images.c_seccomp = denied } }

(** Total number of bytes currently patched to [int3] in the journal —
    reporting helper. *)
let journal_bytes (j : journal) =
  List.fold_left
    (fun acc -> function
      | Bytes_patch { p_orig; _ } -> acc + Bytes.length p_orig
      | Unmap_patch { u_pages; _ } ->
          acc + List.fold_left (fun a (_, d) -> a + Bytes.length d) 0 u_pages)
    0 j.j_patches
