(** Restore: rebuild a live process from {!Images}.

    Re-creates the address space from [mm] + [pagemap] + [pages], each
    page built once: copied from its bytes in the image, or, when the
    restore replaces the very process the slot was dumped from and no
    store touched the slot since, taken over from that process
    ({!replace}). It pulls any non-dumped
    file-backed executable ranges back from the binary
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

(* Build the process [img] holds. A dumped slot whose origin is the
   page [donor] still maps at its address is taken from [donor]
   ({!Mem.give_up}); every other dumped slot is copied out of the
   image. *)
let build (m : Machine.t) ~(donor : Mem.t option) (img : Images.t) : Proc.t =
  Fault.site Restore_process;
  let core = img.Images.core in
  (match Machine.proc m core.Images.c_pid with
  | Some p when Proc.is_live p ->
      raise (Restore_error (Printf.sprintf "pid %d still alive" core.Images.c_pid))
  | _ -> ());
  let mem = Mem.create () in
  let a = img.Images.pages in
  let runs =
    Array.of_list
      (List.sort
         (fun (x : Images.pagemap_entry) y -> compare x.Images.pm_vaddr y.Images.pm_vaddr)
         img.Images.pagemap)
  in
  (* the page-area offset of the dumped page at [vaddr], if a run holds
     it: the last run starting at or below [vaddr] is the only one that
     can *)
  let dumped_at vaddr =
    let rec above lo hi =
      if lo = hi then lo
      else
        let mid = (lo + hi) / 2 in
        if runs.(mid).Images.pm_vaddr <= vaddr then above (mid + 1) hi else above lo mid
    in
    match above 0 (Array.length runs) - 1 with
    | -1 -> None
    | i ->
        let r = runs.(i) in
        let d = Int64.to_int (Int64.sub vaddr r.Images.pm_vaddr) in
        if d < r.Images.pm_npages * page_size then Some (r.Images.pm_off + d) else None
  in
  (* every page is made once: a dumped page from its slot, taking its
     leaf sum along (so the next dump knows it while no store touches
     the page) — the donor's own buffer when the slot's origin is the
     page the donor maps there, else a copy of the image's bytes; a
     file-backed page the image does not hold (a vanilla-CRIU gap) from
     the binary; any other page zero *)
  let supplied = ref 0 and adopted = ref 0 in
  let slot vaddr off =
    let origin = Images.page_origin img off in
    match donor with
    | Some d when Mem.give_up d vaddr origin ->
        incr adopted;
        origin.Mem.pg_data
    | _ -> Bytes.sub a.Images.buf (a.Images.off + off) page_size
  in
  List.iter
    (fun (v : Images.vma_img) ->
      let page k =
        let vaddr = Int64.add v.Images.vi_start (Int64.of_int (k * page_size)) in
        match (dumped_at vaddr, v.Images.vi_file) with
        | Some off, _ ->
            incr supplied;
            Some (slot vaddr off, Images.page_sum img off)
        | None, Some (path, foff) ->
            Some (file_bytes m ~path ~off:(foff + (k * page_size)) ~len:page_size, Bytesx.no_leaf)
        | None, None -> None
      in
      let (_ : Mem.vma) =
        Mem.map_pages mem ~vaddr:v.Images.vi_start ~len:v.Images.vi_len
          ~prot:(Self.prot_of_int v.Images.vi_prot)
          ~file:v.Images.vi_file ~name:v.Images.vi_name page
      in
      ())
    img.Images.mm;
  if !supplied <> Array.fold_left (fun n r -> n + r.Images.pm_npages) 0 runs then
    raise (Restore_error "a dumped page lies outside every vma");
  Obs.add (Obs.counter "criu.pages_adopted") !adopted;
  Obs.add (Obs.counter "criu.pages_copied") (!supplied - !adopted);
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
          Fault.site Restore_tcp_repair;
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

let restore m img = build m ~donor:None img

(** Reap the process [img] was dumped from and restore [img] over it,
    taking over its pages that no edit touched. It must have stayed
    frozen since the dump, as a transaction keeps its tree. A pid
    nothing holds is restored as {!restore} does. *)
let replace (m : Machine.t) (img : Images.t) : Proc.t =
  let pid = img.Images.core.Images.c_pid in
  let donor = Option.map (fun (p : Proc.t) -> p.Proc.mem) (Machine.proc m pid) in
  Machine.reap m ~pid;
  build m ~donor img

(** Read a sealed image frame from the machine tmpfs, as stored: the
    [criu.load] fault site. Raises {!Restore_error} if the file is
    missing. *)
let load_sealed (m : Machine.t) ~(path : string) : string =
  Fault.site Criu_load;
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

(** Re-create a dead process from a tmpfs image (a canary revert, a
    rollout unwind, recovery). The pid must be dead (a live pid is refused by
    {!restore}); the restored process takes over the dead one's slot and
    resumes from the image's saved state, cut edits included when the
    image is a working (rewritten) one. *)
let respawn (m : Machine.t) ~(path : string) : Proc.t =
  Fault.site Restore_respawn;
  let p = restore m (load_from_tmpfs m ~path) in
  p.Proc.frozen <- false;
  p
