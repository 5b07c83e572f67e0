(** Checkpoint: dump a (frozen) process into {!Images}.

    Mirrors the paper's CRIU modification (§3.3): vanilla CRIU does not
    dump file-backed executable pages — they are reconstructed from the
    binary on restore, which would silently *undo* any [int3] patches.
    DynaCut's added option ([`Dynacut] mode here) dumps private+executable
    pages too, so rewritten code survives the restore. *)

type mode =
  | Vanilla  (** skip file-backed executable pages (restored from file) *)
  | Dynacut  (** dump PROT_EXEC | FILE_PRIVATE pages as well *)

let page_size = Mem.page_size

let dump_vma_pages ~mode (v : Mem.vma) =
  match mode with
  | Dynacut -> true
  | Vanilla -> not (v.Mem.va_file <> None && v.Mem.va_prot.Self.p_x)

(** Dump one process. The caller should have frozen it
    ({!Machine.freeze}); dumping a running process would be racy on a
    real system — here we just require quiescence by convention. *)
let dump (m : Machine.t) ~(pid : int) ?(mode = Dynacut) () : Images.t =
  Fault.site Criu_checkpoint;
  let p = Machine.proc_exn m pid in
  let mem = p.Proc.mem in
  let mm =
    List.map
      (fun (v : Mem.vma) ->
        {
          Images.vi_start = v.Mem.va_start;
          vi_len = v.Mem.va_len;
          vi_prot = Self.prot_to_int v.Mem.va_prot;
          vi_file = v.Mem.va_file;
          vi_name = v.Mem.va_name;
        })
      mem.Mem.vmas
  in
  (* pagemap: coalesce consecutive stored pages of each dumpable VMA
     into runs (a run never spans two VMAs), each page at the next slot
     of the page area. A VMA's resident pages are stored as
     [Images.stores] rules: an anonymous page only when it has a
     non-zero byte (the restore leaves a page the image lacks
     untouched, so it reads zero), a file-backed one always (the
     restore would fill it from the binary) *)
  let dumped =
    List.filter_map
      (fun (v : Mem.vma) ->
        if dump_vma_pages ~mode v then
          let file = v.Mem.va_file <> None in
          Some
            (List.filter
               (fun (_, (pg : Mem.page)) -> Images.stores ~file pg.Mem.pg_data 0 page_size)
               (Mem.pages_of_vma mem v))
        else None)
      mem.Mem.vmas
  in
  let runs = ref [] and npages = ref 0 in
  List.iter
    (fun vma_pages ->
      let first = ref true in
      List.iter
        (fun (vaddr, _) ->
          (match !runs with
          | (r : Images.pagemap_entry) :: rest
            when (not !first)
                 && Int64.add r.Images.pm_vaddr (Int64.of_int (r.Images.pm_npages * page_size))
                    = vaddr ->
              runs := { r with Images.pm_npages = r.Images.pm_npages + 1 } :: rest
          | _ ->
              runs :=
                { Images.pm_vaddr = vaddr; pm_npages = 1; pm_off = !npages * page_size } :: !runs);
          first := false;
          incr npages)
        vma_pages)
    dumped;
  let regs = p.Proc.regs in
  let core =
    {
      Images.c_pid = p.Proc.pid;
      c_parent = p.Proc.parent;
      c_comm = p.Proc.comm;
      c_exe = p.Proc.exe_path;
      c_regs =
        {
          Images.r_gpr = Array.of_list (List.map (Proc.gpr regs) Reg.all);
          r_rip = Proc.rip regs;
          r_flags = Proc.pack_flags regs;
        };
      c_sigactions =
        List.filter_map
          (fun signum ->
            match p.Proc.sigactions.(signum) with
            | Some { Proc.sa_handler; sa_restorer } ->
                Some { Images.sg_signum = signum; sg_handler = sa_handler; sg_restorer = sa_restorer }
            | None -> None)
          (List.init Abi.nsig Fun.id);
      c_state = Proc.state_to_string p.Proc.state;
      c_seccomp = p.Proc.seccomp;
    }
  in
  let f_fds =
    Hashtbl.fold
      (fun fd k acc ->
        let ki =
          match k with
          | Proc.Fd_stdin -> Images.Fi_stdin
          | Proc.Fd_stdout -> Images.Fi_stdout
          | Proc.Fd_stderr -> Images.Fi_stderr
          | Proc.Fd_file { path; pos } -> Images.Fi_file (path, pos)
          | Proc.Fd_listener port -> Images.Fi_listener port
          | Proc.Fd_sock cid -> Images.Fi_sock cid
        in
        (fd, ki) :: acc)
      p.Proc.fds []
    |> List.sort compare
  in
  let tcp =
    List.filter_map
      (fun (_, k) ->
        match k with
        | Images.Fi_sock cid -> (
            match Net.find_conn m.Machine.net cid with
            | Some c -> Some (Net.snapshot_conn c)
            | None -> None)
        | _ -> None)
      f_fds
  in
  let meta =
    {
      Images.core;
      mm;
      pagemap = List.rev !runs;
      pages = Images.no_pages;
      files = { Images.f_fds; f_next_fd = p.Proc.next_fd };
      tcp;
      mmap_hint = p.Proc.mmap_hint;
    }
  in
  (* every page is blitted once, to its final place in a buffer laid out
     as the sealed frame; each page's leaf sum, where it kept one, comes
     along, and the page itself is the slot's origin *)
  let img = Images.layout ~reserve:Validate.header_size meta ~len:(!npages * page_size) in
  let a = img.Images.pages in
  List.iteri
    (fun k (_, (pg : Mem.page)) ->
      Bytes.blit pg.Mem.pg_data 0 a.Images.buf (a.Images.off + (k * page_size)) page_size;
      a.Images.leaf.(k) <- pg.Mem.pg_sum;
      a.Images.origin.(k) <- pg)
    (List.concat dumped);
  img

(** Dump a process and all its live descendants (multi-process apps such
    as the Nginx-style master/worker server). *)
let dump_tree (m : Machine.t) ~(root : int) ?(mode = Dynacut) () : Images.t list =
  let rec descendants pid =
    let kids =
      List.filter (fun (q : Proc.t) -> q.Proc.parent = pid && Proc.is_live q) (Machine.all_procs m)
    in
    pid :: List.concat_map (fun (q : Proc.t) -> descendants q.Proc.pid) kids
  in
  List.map (fun pid -> dump m ~pid ~mode ()) (descendants root)

(** Store an already sealed image of [pid] in the machine's tmpfs (paper
    §3.3 checkpoints into a tmpfs to keep rewrite latency off the disk).
    This is the [criu.save] fault site: corrupt-mode chaos faults mangle
    the stored copy here. Returns the file path. *)
let save_sealed (m : Machine.t) ~(dir : string) ~(pid : int) (blob : string) : string =
  Fault.site Criu_save;
  let path = Printf.sprintf "%s/dump-%d.img" dir pid in
  Vfs.add m.Machine.fs path (Fault.corruptible Criu_save blob);
  path
