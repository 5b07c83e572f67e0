(** Shared-library injection into a checkpoint image (paper §3.3).

    "DynaCut's process rewriter parses the shared library and calculates
    the size of each ELF section. This is very similar to a traditional
    ELF loader, but DynaCut loads the shared binary and dynamically
    injects it into running processes."

    Steps, exactly as the paper describes:
    1. pick a base address — user-specified or a randomized-but-unused
       gap in the VMA space;
    2. perform global data relocations (library base + st_value) and
       PLT/GOT relocations (libc runtime base + symbol offset written
       into the library's GOT) — we reuse {!Loader.relocate}, which
       implements precisely those two rules;
    3. create the new VMAs in the [mm] image and append the pages to
       [pagemap]/[pages];
    4. (separately, {!Rewriter.set_sigaction}) register the handler in
       the core image. *)

exception Inject_error of string

let page_size = 4096
let page_align n = (n + page_size - 1) / page_size * page_size

let default_hint = 0x7fee_0000_0000L

(** Find an unused, page-aligned region of [size] bytes. [hint] seeds the
    search; pass a randomized hint for the paper's "randomized but unused
    location" default. *)
let find_gap (img : Images.t) ~(hint : int64) ~(size : int) : int64 =
  let overlaps base =
    List.exists
      (fun (v : Images.vma_img) ->
        let vend = Int64.add v.Images.vi_start (Int64.of_int v.Images.vi_len) in
        base < vend && v.Images.vi_start < Int64.add base (Int64.of_int size))
      img.Images.mm
  in
  let rec go base =
    if overlaps base then go (Int64.add base 0x10000L) else base
  in
  go hint

(** Inject [lib] into [img]. [deps] are already-loaded modules the
    library's extern (GOT) relocations resolve against — normally just
    [(libc_self, libc_base)]. Returns the updated image and the chosen
    base. *)
let inject (img : Images.t) ~(lib : Self.t) ?(base : int64 option)
    ~(deps : (Self.t * int64) list) () : Images.t * int64 =
  Fault.site Inject_lib;
  let size = Self.image_size lib in
  let base =
    match base with
    | Some b ->
        if Int64.rem b 4096L <> 0L then raise (Inject_error "base not page-aligned");
        b
    | None -> find_gap img ~hint:default_hint ~size
  in
  (* relocations: the lib itself + its dependencies *)
  let mods =
    { Loader.lm_name = lib.Self.name; lm_base = base; lm_self = lib }
    :: List.map
         (fun ((s : Self.t), b) -> { Loader.lm_name = s.Self.name; lm_base = b; lm_self = s })
         deps
  in
  let patched =
    try Loader.relocate lib ~base ~mods
    with Loader.Load_error e -> raise (Inject_error e)
  in
  (* new VMAs + pages *)
  let new_vmas =
    List.map
      (fun (s : Self.section) ->
        {
          Images.vi_start = Int64.add base (Int64.of_int s.Self.sec_off);
          vi_len = page_align (max 1 (Bytes.length s.Self.sec_data));
          vi_prot = Self.prot_to_int s.Self.sec_prot;
          vi_file = None (* injected pages are anonymous *);
          vi_name = lib.Self.name ^ ":" ^ s.Self.sec_name;
        })
      lib.Self.sections
  in
  (* check for collisions with existing VMAs *)
  List.iter
    (fun (nv : Images.vma_img) ->
      if
        List.exists
          (fun (v : Images.vma_img) ->
            let vend = Int64.add v.Images.vi_start (Int64.of_int v.Images.vi_len) in
            let nend = Int64.add nv.Images.vi_start (Int64.of_int nv.Images.vi_len) in
            nv.Images.vi_start < vend && v.Images.vi_start < nend)
          img.Images.mm
      then raise (Inject_error (Printf.sprintf "VMA collision at 0x%Lx" nv.Images.vi_start)))
    new_vmas;
  let datas =
    List.map (fun (s : Self.section) -> (s, List.assoc s.Self.sec_name patched)) lib.Self.sections
  in
  (* the library's pages are new: they carry no leaf sum *)
  let img, offs = Images.append_pages img (List.map snd datas) in
  let new_pm =
    List.map2
      (fun ((s : Self.section), data) at ->
        {
          Images.pm_vaddr = Int64.add base (Int64.of_int s.Self.sec_off);
          pm_npages = page_align (max 1 (Bytes.length data)) / page_size;
          pm_off = at;
        })
      datas offs
  in
  let img' =
    {
      img with
      Images.mm =
        List.sort
          (fun a b -> compare a.Images.vi_start b.Images.vi_start)
          (img.Images.mm @ new_vmas);
      pagemap = img.Images.pagemap @ new_pm;
    }
  in
  (img', base)

let lib_sym (lib : Self.t) ~(base : int64) name : int64 =
  match Self.find_symbol lib name with
  | Some s -> Int64.add base (Int64.of_int s.Self.sym_off)
  | None -> raise (Inject_error ("injected library lacks symbol " ^ name))

(** Patch the injected handler's policy area: mode word, table length,
    and the (trap address, payload) pairs the handler consults. *)
let write_policy (img : Images.t) ~(lib : Self.t) ~(base : int64)
    ~(mode : int64) ~(entries : (int64 * int64) list) : unit =
  Fault.site Inject_policy;
  if List.length entries > Handler.max_table_entries then
    raise (Inject_error "policy table overflow");
  let w64 addr v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    Images.write_mem img addr b
  in
  w64 (lib_sym lib ~base Handler.sym_mode) mode;
  w64 (lib_sym lib ~base Handler.sym_table_len) (Int64.of_int (List.length entries));
  let table = lib_sym lib ~base Handler.sym_table in
  List.iteri
    (fun k (trap, payload) ->
      w64 (Int64.add table (Int64.of_int (k * 16))) trap;
      w64 (Int64.add table (Int64.of_int ((k * 16) + 8))) payload)
    entries

(** Read back the handler's diagnostics from a *live* process (used by
    the verifier workflow and tests): hit count and the false-positive
    log. *)
let read_handler_state (p : Proc.t) ~(lib : Self.t) ~(base : int64) :
    int64 * int64 list =
  let r64 addr = Mem.read64 p.Proc.mem addr in
  let hits = r64 (lib_sym lib ~base Handler.sym_hits) in
  let n = Int64.to_int (r64 (lib_sym lib ~base Handler.sym_log_len)) in
  let log_base = lib_sym lib ~base Handler.sym_log in
  let log =
    List.init (min n Handler.max_log_entries) (fun k ->
        r64 (Int64.add log_base (Int64.of_int (8 * k))))
  in
  (hits, log)
