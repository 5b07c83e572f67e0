(** Memory-integrity scrubbing and page-level self-healing.

    The baseline is captured {e live}: after a restore the loader and
    the committed cut edits have already shaped the immutable pages, so
    file bytes alone are not the truth — what the tree actually runs is.
    Staleness is physical: a restore installs a fresh {!Mem.t}, so a
    manifest whose page table is no longer the pid's page table is
    rebuilt rather than trusted.

    Repair has one source, the baseline snapshot: the exact bytes the
    expected digest was computed from, and nothing ever writes it. It
    still never pokes a byte it has not proven: the snapshot is digested
    against the baseline first. *)

type finding = {
  f_pid : int;
  f_vaddr : int64;
  f_expected : int64;
  f_found : int64;
}

let pp_finding fmt f =
  Format.fprintf fmt "pid %d page 0x%Lx: digest %Lx, expected %Lx" f.f_pid
    f.f_vaddr f.f_found f.f_expected

type repair_outcome = Repaired | Repair_failed of string

type entry = {
  e_vaddr : int64;
  e_digest : int64;
  e_snapshot : bytes;
  mutable e_gen : int;  (** write generation last proven clean *)
}

type manifest = {
  m_pid : int;
  m_mem : Mem.t;  (** physical identity — a restored pid gets a new one *)
  m_entries : entry array;
}

type t = {
  session : Dynacut.session;
  machine : Machine.t;
  mutable manifests : (int * manifest) list;
  mutable cursor : int;  (** rotation position in the flattened page walk *)
  c_visited : Obs.counter;
  c_hashed : Obs.counter;
  c_skipped : Obs.counter;
  c_mismatch : Obs.counter;
  c_repair_failed : Obs.counter;
  g_pages : Obs.gauge;
}

let create (session : Dynacut.session) : t =
  {
    session;
    machine = session.Dynacut.machine;
    manifests = [];
    cursor = 0;
    c_visited = Obs.counter "integrity.pages_scanned";
    c_hashed = Obs.counter "integrity.pages_hashed";
    c_skipped = Obs.counter "integrity.pages_skipped";
    c_mismatch = Obs.counter "integrity.mismatches";
    c_repair_failed = Obs.counter "integrity.repair_failures";
    g_pages = Obs.gauge "integrity.baseline_pages";
  }

let immutable_vmas (mem : Mem.t) : Mem.vma list =
  List.filter (fun (v : Mem.vma) -> not v.Mem.va_prot.Self.p_w) mem.Mem.vmas

let pages_tracked (t : t) : int =
  List.fold_left (fun n (_, m) -> n + Array.length m.m_entries) 0 t.manifests

let drop_pid (t : t) ~pid = t.manifests <- List.remove_assoc pid t.manifests

let set_pages_gauge (t : t) =
  Obs.set_gauge t.g_pages (float_of_int (pages_tracked t))

(* Capture a live manifest: digest + snapshot of every resident page of
   every non-writable VMA, with the generation it was clean at. *)
let rebaseline (t : t) ~(pid : int) : unit =
  (match Machine.proc t.machine pid with
  | Some p when Proc.is_live p ->
      let mem = p.Proc.mem in
      let entries =
        List.concat_map
          (fun v ->
            List.map
              (fun (vaddr, data) ->
                {
                  e_vaddr = vaddr;
                  e_digest = Mem.digest_bytes data;
                  e_snapshot = Bytes.copy data;
                  e_gen =
                    (match Mem.page_gen mem vaddr with Some g -> g | None -> 0);
                })
              (Mem.pages_of_vma mem v))
          (immutable_vmas mem)
      in
      t.manifests <-
        (pid, { m_pid = pid; m_mem = mem; m_entries = Array.of_list entries })
        :: List.remove_assoc pid t.manifests;
      Obs.event ~kind:"integrity"
        (Printf.sprintf "baseline pid=%d pages=%d" pid (List.length entries))
  | _ -> drop_pid t ~pid);
  set_pages_gauge t

(* A manifest is trusted only while its page table is still the pid's
   page table; anything else (restore, respawn, death) invalidates it. *)
let ensure_fresh (t : t) ~(pid : int) : unit =
  match Machine.proc t.machine pid with
  | Some p when Proc.is_live p -> (
      match List.assoc_opt pid t.manifests with
      | Some m when m.m_mem == p.Proc.mem -> ()
      | _ -> rebaseline t ~pid)
  | _ -> drop_pid t ~pid

let check_page (t : t) (m : manifest) (e : entry) : finding option =
  Fault.site ~scope:m.m_pid "scrub.page";
  Obs.incr t.c_visited;
  match Mem.page_gen m.m_mem e.e_vaddr with
  | None ->
      (* unmapped since baseline (an unmap cut landed without a restore —
         cannot happen through the transaction engine); nothing to audit *)
      Obs.incr t.c_skipped;
      None
  | Some g when g = e.e_gen ->
      Obs.incr t.c_skipped;
      None
  | Some g -> (
      Obs.incr t.c_hashed;
      match Mem.page_digest m.m_mem e.e_vaddr with
      | Some d when d = e.e_digest ->
          e.e_gen <- g;
          None
      | Some d ->
          Obs.incr t.c_mismatch;
          Obs.event ~kind:"integrity"
            (Printf.sprintf "mismatch pid=%d vaddr=0x%Lx digest=%Lx expected=%Lx"
               m.m_pid e.e_vaddr d e.e_digest);
          Some
            {
              f_pid = m.m_pid;
              f_vaddr = e.e_vaddr;
              f_expected = e.e_digest;
              f_found = d;
            }
      | None ->
          Obs.incr t.c_skipped;
          None)

let scrub (t : t) ?pids ~(quantum : int) () : finding list =
  let pids =
    match pids with Some l -> l | None -> Dynacut.tree_pids t.session
  in
  List.iter (fun pid -> ensure_fresh t ~pid) pids;
  let flat =
    List.concat_map
      (fun pid ->
        match List.assoc_opt pid t.manifests with
        | Some m -> List.map (fun e -> (m, e)) (Array.to_list m.m_entries)
        | None -> [])
      pids
  in
  let n = List.length flat in
  if n = 0 || quantum <= 0 then []
  else begin
    let arr = Array.of_list flat in
    let start = t.cursor mod n in
    let quantum = min quantum n in
    let findings = ref [] in
    for k = 0 to quantum - 1 do
      let m, e = arr.((start + k) mod n) in
      match check_page t m e with
      | Some f -> findings := f :: !findings
      | None -> ()
    done;
    t.cursor <- (start + quantum) mod n;
    List.rev !findings
  end

let scrub_full (t : t) ?pids () : finding list =
  scrub t ?pids ~quantum:max_int ()

let recheck (t : t) (f : finding) : bool =
  match List.assoc_opt f.f_pid t.manifests with
  | None -> false
  | Some m -> (
      match Mem.page_digest m.m_mem f.f_vaddr with
      | Some d -> d = f.f_expected
      | None -> false)

let repair (t : t) (f : finding) : repair_outcome =
  Fault.site ~scope:f.f_pid "integrity.repair";
  let entry =
    match List.assoc_opt f.f_pid t.manifests with
    | None -> None
    | Some m ->
        Array.fold_left
          (fun acc e -> if e.e_vaddr = f.f_vaddr then Some (m, e) else acc)
          None m.m_entries
  in
  match entry with
  | None -> Repair_failed "no baseline entry for the page"
  | Some (_, e) when Mem.digest_bytes e.e_snapshot <> f.f_expected ->
      Obs.incr t.c_repair_failed;
      Obs.event ~kind:"integrity"
        (Printf.sprintf "repair failed pid=%d vaddr=0x%Lx" f.f_pid f.f_vaddr);
      Repair_failed "the snapshot does not reproduce the expected digest"
  | Some (m, e) ->
      Mem.poke_bytes m.m_mem f.f_vaddr e.e_snapshot;
      (match Mem.page_gen m.m_mem f.f_vaddr with
      | Some g -> e.e_gen <- g
      | None -> ());
      Obs.incr (Obs.counter "integrity.repairs");
      Obs.event ~kind:"integrity"
        (Printf.sprintf "repaired pid=%d vaddr=0x%Lx" f.f_pid f.f_vaddr);
      Repaired
