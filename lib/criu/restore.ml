(** Restore: rebuild a live process from {!Images}.

    Re-creates the address space from [mm] + [pagemap] + [pages], pulls
    any non-dumped file-backed executable ranges back from the binary
    (vanilla-CRIU behaviour), restores registers, signal dispositions and
    the fd table, and performs TCP repair so established connections
    carry on — the property Figure 8 depends on. *)

exception Restore_error of string

let page_size = Mem.page_size

(** Fetch the file-backed bytes of a VMA range from a SELF binary in the
    machine filesystem. *)
let file_bytes (m : Machine.t) ~path ~off ~len : bytes =
  match Vfs.find_self m.Machine.fs path with
  | None -> raise (Restore_error ("backing file missing: " ^ path))
  | Some self ->
      let out = Bytes.make len '\x00' in
      List.iter
        (fun (s : Self.section) ->
          let s_len = Bytes.length s.Self.sec_data in
          (* overlap of [off, off+len) with [sec_off, sec_off+s_len) *)
          let lo = max off s.Self.sec_off in
          let hi = min (off + len) (s.Self.sec_off + s_len) in
          if lo < hi then
            Bytes.blit s.Self.sec_data (lo - s.Self.sec_off) out (lo - off) (hi - lo))
        self.Self.sections;
      out

let restore (m : Machine.t) (img : Images.t) : Proc.t =
  Fault.site "restore.process";
  let core = img.Images.core in
  (match Machine.proc m core.Images.c_pid with
  | Some p when Proc.is_live p ->
      raise (Restore_error (Printf.sprintf "pid %d still alive" core.Images.c_pid))
  | _ -> ());
  let mem = Mem.create () in
  (* VMAs *)
  List.iter
    (fun (v : Images.vma_img) ->
      let (_ : Mem.vma) =
        Mem.map mem ~vaddr:v.Images.vi_start ~len:v.Images.vi_len
          ~prot:(Self.prot_of_int v.Images.vi_prot)
          ~file:v.Images.vi_file ~name:v.Images.vi_name ()
      in
      ())
    img.Images.mm;
  (* dumped pages, straight from the pages image; each page then takes
     its leaf sum along, so the next dump knows it while no store
     touches the page *)
  List.iter
    (fun (pm : Images.pagemap_entry) ->
      Mem.poke_sub mem pm.Images.pm_vaddr img.Images.pages ~off:pm.Images.pm_off
        ~len:(pm.Images.pm_npages * page_size);
      for k = 0 to pm.Images.pm_npages - 1 do
        Mem.set_sum mem
          (Int64.add pm.Images.pm_vaddr (Int64.of_int (k * page_size)))
          (Images.page_sum img (pm.Images.pm_off + (k * page_size)))
      done)
    img.Images.pagemap;
  (* vanilla-CRIU gaps: file-backed VMAs with no dumped pages are faulted
     in from the binary *)
  let populated vaddr =
    List.exists
      (fun (pm : Images.pagemap_entry) ->
        vaddr >= pm.Images.pm_vaddr
        && vaddr < Int64.add pm.Images.pm_vaddr (Int64.of_int (pm.Images.pm_npages * page_size)))
      img.Images.pagemap
  in
  List.iter
    (fun (v : Images.vma_img) ->
      match v.Images.vi_file with
      | None -> ()
      | Some (path, off) ->
          let npages = v.Images.vi_len / page_size in
          for k = 0 to npages - 1 do
            let vaddr = Int64.add v.Images.vi_start (Int64.of_int (k * page_size)) in
            if not (populated vaddr) then
              let data =
                file_bytes m ~path ~off:(off + (k * page_size)) ~len:page_size
              in
              Mem.poke_bytes mem vaddr data
          done)
    img.Images.mm;
  (* the process object *)
  let p =
    Proc.create ~pid:core.Images.c_pid ~parent:core.Images.c_parent
      ~comm:core.Images.c_comm ~exe_path:core.Images.c_exe ~mem
  in
  List.iter
    (fun r ->
      Proc.set_gpr p.Proc.regs r core.Images.c_regs.Images.r_gpr.(Reg.to_int r))
    Reg.all;
  Proc.set_rip p.Proc.regs core.Images.c_regs.Images.r_rip;
  Proc.unpack_flags p.Proc.regs core.Images.c_regs.Images.r_flags;
  List.iter
    (fun (s : Images.sigaction_img) ->
      p.Proc.sigactions.(s.Images.sg_signum) <-
        Some { Proc.sa_handler = s.Images.sg_handler; sa_restorer = s.Images.sg_restorer })
    core.Images.c_sigactions;
  Hashtbl.reset p.Proc.fds;
  List.iter
    (fun (fd, k) ->
      let kind =
        match k with
        | Images.Fi_stdin -> Proc.Fd_stdin
        | Images.Fi_stdout -> Proc.Fd_stdout
        | Images.Fi_stderr -> Proc.Fd_stderr
        | Images.Fi_file (path, pos) -> Proc.Fd_file { path; pos }
        | Images.Fi_listener port -> Proc.Fd_listener port
        | Images.Fi_sock cid -> Proc.Fd_sock cid
      in
      Hashtbl.replace p.Proc.fds fd kind)
    img.Images.files.Images.f_fds;
  p.Proc.next_fd <- img.Images.files.Images.f_next_fd;
  p.Proc.mmap_hint <- img.Images.mmap_hint;
  p.Proc.seccomp <- core.Images.c_seccomp;
  (* TCP repair *)
  Obs.with_span "tcp_repair" (fun () ->
      List.iter
        (fun (s : Net.conn_snapshot) ->
          Fault.site "restore.tcp_repair";
          ignore (Net.repair_conn m.Machine.net s))
        img.Images.tcp);
  p.Proc.state <- Proc.Runnable;
  Machine.install m p;
  (* re-create listeners for listening fds — after install, so the owner
     (tree root) resolves through the machine's process table even when
     the restored pid is the tree root itself *)
  List.iter
    (fun (_, k) ->
      match k with
      | Images.Fi_listener port when port >= 0 ->
          ignore
            (Net.listen
               ~owner:(Machine.tree_root m p.Proc.pid)
               m.Machine.net port)
      | _ -> ())
    img.Images.files.Images.f_fds;
  p

(** Read a sealed image frame from the machine tmpfs, as stored: the
    [criu.load] fault site. Raises {!Restore_error} if the file is
    missing. *)
let load_sealed (m : Machine.t) ~(path : string) : string =
  Fault.site "criu.load";
  match Vfs.find m.Machine.fs path with
  | None -> raise (Restore_error ("no image at " ^ path))
  | Some blob -> blob

(** Load and verify a sealed image from the machine tmpfs. Raises
    {!Validate.Validate_error} if the file is truncated, corrupted, or
    structurally inconsistent. *)
let load_from_tmpfs (m : Machine.t) ~(path : string) : Images.t =
  let blob = load_sealed m ~path in
  Obs.with_span "crit" (fun () -> Validate.decode_sealed blob)

(** Restore from a serialized image in the machine tmpfs. *)
let restore_from_tmpfs (m : Machine.t) ~(path : string) : Proc.t =
  restore m (load_from_tmpfs m ~path)

(** Re-create a dead process from a tmpfs image — the supervisor's
    crash-loop respawn. The pid must be dead (a live pid is refused by
    {!restore}); the restored process takes over the dead one's slot and
    resumes from the image's saved state, cut edits included when the
    image is a working (rewritten) one. *)
let respawn (m : Machine.t) ~(path : string) : Proc.t =
  Fault.site "restore.respawn";
  let p = restore m (load_from_tmpfs m ~path) in
  p.Proc.frozen <- false;
  p
