(** The DynaCut orchestrator: freeze → checkpoint → rewrite → restore,
    with a per-stage timing breakdown matching Figure 6's legend
    (checkpoint / disable code w/ int3 / insert sighandler / restore).

    A {!session} wraps one target process tree. [cut] disables a block
    list under a policy; [reenable] restores a previous cut's journal.
    All edits go through static checkpoint images — decoded once per
    transaction, edited in memory, sealed into the machine's tmpfs —
    the live process is only ever frozen, reaped, and re-created, never
    patched in place (§3.2.1). Cuts, re-enables and seccomp filters are
    all transactions of one engine ([run_transaction]): journaled,
    retried on transient faults, rolled back on any other. *)

type policy = {
  method_ : [ `First_byte | `Wipe | `Unmap_pages ];
  on_trap :
    [ `Kill  (** no handler: default SIGTRAP action terminates (like RAZOR) *)
    | `Terminate  (** handler calls exit(13) *)
    | `Redirect of string
      (** handler redirects saved rip to this (exported) symbol — the
          application's default error path, e.g. the 403 responder *)
    | `Verify  (** handler restores the original byte and logs (§3.2.3) *)
    ];
}

type timings = {
  t_checkpoint : float;
  t_disable : float;
  t_handler : float;
  t_restore : float;
}

let total_time t = t.t_checkpoint +. t.t_disable +. t.t_handler +. t.t_restore

let pp_timings fmt t =
  Format.fprintf fmt
    "checkpoint %.4fs + disable %.4fs + sighandler %.4fs + restore %.4fs = %.4fs"
    t.t_checkpoint t.t_disable t.t_handler t.t_restore (total_time t)

(* what a redirect cut needs of its executable, kept across cuts in
   place of the parse (ngx's parsed executable alone is 75 KB) *)
type target = {
  tg_exe : string;  (** the executable's contents in the Vfs, compared by identity *)
  tg_sym : string;
  tg_module : string;  (** the executable's module name *)
  tg_off : int option;  (** [tg_sym]'s module offset; [None]: no such symbol *)
  tg_func : int * int;  (** the module range of [tg_sym]'s function; empty if none *)
}

type session = {
  machine : Machine.t;
  root_pid : int;
  handler_lib : Self.t;
  tmpfs : string;  (** tmpfs directory for the images (§3.3) *)
  journal : Journal.t;  (** the crash-consistency journal (DESIGN.md §5d) *)
  epoch : int;  (** this controller's fencing token *)
  mutable next_txid : int;
  mutable lib_bases : (int * int64) list;  (** pid -> injected handler base *)
  mutable cut_count : int;
  mutable table_mode : int64;  (** current handler mode for the whole table *)
  mutable table : (int * (int64 * int64) list) list;
      (** pid -> accumulated (trap addr, payload) entries across stacked
          cuts; re-enables remove their entries instead of clearing *)
  mutable target : target option;  (** the last redirect target resolved *)
}

exception Dynacut_error of string

let create (machine : Machine.t) ~(root_pid : int) : session =
  (* the handler library is linked once per process: linking only names
     the library each extern resolves to, and injection relocates it
     against the libc the target loaded *)
  if Option.is_none (Vfs.find machine.Machine.fs "libc.so") then
    raise (Dynacut_error "libc.so not present in target filesystem");
  let handler_lib = Lazy.force Handler.shared in
  let tmpfs = Printf.sprintf "/tmpfs/dynacut-%d" root_pid in
  let journal = Journal.attach machine.Machine.fs ~dir:tmpfs in
  (* one past whatever epoch the tree last saw, so a fresh controller
     outranks any stale lock a dead one left behind *)
  let epoch = Journal.lock_epoch journal + 1 in
  (* pre-register the pipeline span set so the exposed stage breakdown is
     stable from the first dump, even before any stage has run *)
  List.iter Obs.register_span
    [
      "checkpoint"; "crit"; "rewrite"; "inject"; "restore"; "tcp_repair";
      "journal.lock"; "journal.append"; "recover.replay";
    ];
  {
    machine;
    root_pid;
    handler_lib;
    tmpfs;
    journal;
    epoch;
    next_txid = 1;
    lib_bases = [];
    cut_count = 0;
    table_mode = Handler.mode_terminate;
    table = [];
    target = None;
  }

(* The redirect target [sym] in the executable at [path]; [None] if no
   executable is there. The executable is parsed only when its contents
   (by identity) or [sym] differ from the last call's, and the parse is
   dropped at once. *)
let redirect_target (s : session) ~path ~sym : target option =
  match Vfs.find s.machine.Machine.fs path with
  | None -> None
  | Some blob -> (
      match s.target with
      | Some tg when tg.tg_exe == blob && tg.tg_sym = sym -> Some tg
      | _ ->
          Option.map
            (fun (exe : Self.t) ->
              let off = Option.map (fun sm -> sm.Self.sym_off) (Self.find_symbol exe sym) in
              let func =
                Option.bind off (Funcbounds.function_range (Funcbounds.of_self exe))
              in
              let tg =
                {
                  tg_exe = blob;
                  tg_sym = sym;
                  tg_module = exe.Self.name;
                  tg_off = off;
                  tg_func = Option.value ~default:(0, 0) func;
                }
              in
              s.target <- Some tg;
              tg)
            (Vfs.parse_self blob))

let tree_pids (s : session) : int list =
  let rec descendants pid =
    let kids =
      List.filter
        (fun (q : Proc.t) -> q.Proc.parent = pid && Proc.is_live q)
        (Machine.all_procs s.machine)
    in
    pid :: List.concat_map (fun (q : Proc.t) -> descendants q.Proc.pid) kids
  in
  descendants s.root_pid

let image_path s pid = Printf.sprintf "%s/dump-%d.img" s.tmpfs pid
let pristine_path s pid = Printf.sprintf "%s/pristine-%d.img" s.tmpfs pid

(** Drop a pid's session bookkeeping (policy-table entries, injected-lib
    base). Needed when a process is re-created from its {e pristine}
    image outside the transaction engine — the handler library is not in
    that image, so stale entries would poison the next cut. *)
let forget_pid (s : session) ~(pid : int) : unit =
  s.table <- List.remove_assoc pid s.table;
  s.lib_bases <- List.remove_assoc pid s.lib_bases

let load_pristine s pid : Images.t =
  match Vfs.find s.machine.Machine.fs (pristine_path s pid) with
  | Some blob -> Validate.decode_sealed blob
  | None -> raise (Dynacut_error (Printf.sprintf "no pristine image for pid %d" pid))

(* A transaction keeps each pid's working image in memory, in a table
   local to the transaction: dumped once, edited by every stage, checked,
   sealed once into the working frame and restored from. Nothing of it
   outlives the transaction. *)
type images = (int, Images.t) Hashtbl.t

(* a pid's working image. A failed attempt empties the table, so the
   next one starts from the pristine frame: retries must not see a
   half-patched image (disable_first_byte would journal 0xCC as the
   original byte) *)
let working_image s (imgs : images) pid =
  match Hashtbl.find_opt imgs pid with
  | Some img -> img
  | None ->
      let img = load_pristine s pid in
      Hashtbl.replace imgs pid img;
      img

(* put the working frames back to their pre-edit state *)
let reset_working s pids =
  List.iter
    (fun pid ->
      match Vfs.find s.machine.Machine.fs (pristine_path s pid) with
      | Some blob -> Vfs.add s.machine.Machine.fs (image_path s pid) blob
      | None -> ())
    pids

(* stage 1: freeze the tree, then checkpoint every process into tmpfs,
   keeping a pristine copy of each image for rollback. Split so the
   journal can record [Frozen] between the two halves. *)
let stage_freeze s pids = List.iter (fun pid -> Machine.freeze s.machine ~pid) pids

let stage_dump s (imgs : images) pids =
  List.iter
    (fun pid ->
      let img = Checkpoint.dump s.machine ~pid ~mode:Checkpoint.Dynacut () in
      (* the dump lays its pages out as the frame, so the seal writes
         only header, head and tail around them. One seal serves both
         copies. The pristine copy is the transaction's rollback anchor;
         it is written before the criu.save fault site, so an injected
         serialization fault cannot take the safety net with it *)
      let img, blob = Obs.with_span "crit" (fun () -> Validate.seal_in_place img) in
      Vfs.add s.machine.Machine.fs (pristine_path s pid) blob;
      ignore (Checkpoint.save_sealed s.machine ~dir:s.tmpfs ~pid blob);
      (* the stored frame is never written again: the edits go to one
         copy of it, the working image *)
      Hashtbl.replace imgs pid (Images.copy img))
    pids

(* stage 2: apply the block-disabling edits; returns journals *)
let stage_disable s imgs pids ~(blocks : Covgraph.block list) ~method_ :
    Rewriter.journal list =
  List.map
    (fun pid ->
      let img = working_image s imgs pid in
      let patches, img =
        match method_ with
        | `First_byte -> (Rewriter.disable_first_byte img blocks, img)
        | `Wipe -> (Rewriter.wipe_blocks img blocks, img)
        | `Unmap_pages ->
            (* unmap whole pages; partially-covered pages are wiped *)
            let unmaps, img = Rewriter.unmap_block_pages img blocks in
            let still_mapped =
              List.filter
                (fun b ->
                  match Images.find_vma img (Rewriter.block_vaddr img b) with
                  | Some _ -> true
                  | None -> false)
                blocks
            in
            (unmaps @ Rewriter.wipe_blocks img still_mapped, img)
      in
      Hashtbl.replace imgs pid img;
      { Rewriter.j_pid = pid; j_patches = patches })
    pids

(* stage 3: inject (or re-use) the handler library, write the policy
   table, register the SIGTRAP sigaction *)
let stage_handler s imgs pids ~(blocks : Covgraph.block list) ~on_trap
    ~(journals : Rewriter.journal list) =
  match on_trap with
  | `Kill -> ()
  | (`Terminate | `Redirect _ | `Verify) as trap ->
      List.iter
        (fun pid ->
          let img = working_image s imgs pid in
          let libc_base =
            match Rewriter.module_base img "libc.so" with
            | Some b -> b
            | None -> raise (Dynacut_error "target does not map libc.so")
          in
          let img, base =
            match Rewriter.module_base img s.handler_lib.Self.name with
            | Some base ->
                (* already injected by an earlier cut — but still (re)record
                   the base: a pid respawned from an image with the lib
                   resident has no [lib_bases] entry ([forget_pid]), and
                   without one its trap counter is invisible to
                   [handler_hits] *)
                s.lib_bases <- (pid, base) :: List.remove_assoc pid s.lib_bases;
                (img, base)
            | None ->
                let libc =
                  match Vfs.find_self s.machine.Machine.fs "libc.so" with
                  | Some l -> l
                  | None -> raise (Dynacut_error "libc.so vanished")
                in
                let img, base =
                  Inject.inject img ~lib:s.handler_lib ~deps:[ (libc, libc_base) ] ()
                in
                s.lib_bases <- (pid, base) :: List.remove_assoc pid s.lib_bases;
                (img, base)
          in
          let journal =
            List.find (fun (j : Rewriter.journal) -> j.Rewriter.j_pid = pid) journals
          in
          let mode, new_entries =
            match trap with
            | `Terminate -> (Handler.mode_terminate, [])
            | `Redirect sym ->
                let tg =
                  match redirect_target s ~path:img.Images.core.Images.c_exe ~sym with
                  | Some tg -> tg
                  | None -> raise (Dynacut_error "target executable not in filesystem")
                in
                let target =
                  match tg.tg_off with
                  | Some off -> (
                      match Rewriter.module_base img tg.tg_module with
                      | Some mb -> Int64.add mb (Int64.of_int off)
                      | None -> raise (Dynacut_error "exe module not mapped"))
                  | None ->
                      raise
                        (Dynacut_error
                           (Printf.sprintf "redirect target %s not found in %s" sym
                              tg.tg_module))
                in
                ( Handler.mode_redirect,
                  List.map (fun b -> (Rewriter.block_vaddr img b, target)) blocks )
            | `Verify ->
                ( Handler.mode_verify,
                  List.filter_map
                    (function
                      | Rewriter.Bytes_patch { p_vaddr; p_orig } when Bytes.length p_orig = 1
                        ->
                          Some (p_vaddr, Int64.of_int (Char.code (Bytes.get p_orig 0)))
                      | _ -> None)
                    journal.Rewriter.j_patches )
          in
          (* stacked cuts accumulate entries; the mode is table-global, so
             redirect and verify payloads must not be mixed *)
          let prev = Option.value ~default:[] (List.assoc_opt pid s.table) in
          if prev <> [] && mode <> s.table_mode then
            raise
              (Dynacut_error
                 "cannot stack cuts with different trap modes (redirect vs \
                  verify); re-enable the earlier cut first");
          let merged =
            List.fold_left
              (fun acc (addr, payload) -> (addr, payload) :: List.remove_assoc addr acc)
              prev new_entries
          in
          s.table <- (pid, merged) :: List.remove_assoc pid s.table;
          s.table_mode <- mode;
          Inject.write_policy img ~lib:s.handler_lib ~base ~mode ~entries:merged;
          let img =
            Rewriter.set_sigaction img ~signum:Abi.sigtrap
              ~handler:(Inject.lib_sym s.handler_lib ~base Handler.sym_handler)
              ~restorer:(Inject.lib_sym s.handler_lib ~base Handler.sym_restorer)
          in
          Hashtbl.replace imgs pid img)
        pids

(* the last step of every edit: check each pid's edited image, seal it
   once and store it as the working frame, then read the frame back. The
   seal rewrites the working image's header, head and tail in place when
   they kept their length, so only the pages the edits dirtied are
   hashed and none is copied; the image is then only read (restore).
   The stored bytes must be the sealed string, so a damaged write is
   caught before the transaction journals [Rewritten] *)
let stage_seal s imgs pids =
  List.iter
    (fun pid ->
      let img = working_image s imgs pid in
      Validate.check img;
      let img, blob = Obs.with_span "crit" (fun () -> Validate.seal_in_place img) in
      Hashtbl.replace imgs pid img;
      let path = Checkpoint.save_sealed s.machine ~dir:s.tmpfs ~pid blob in
      let stored = Restore.load_sealed s.machine ~path in
      Obs.with_span "crit" (fun () -> Validate.check_stored ~sealed:blob stored))
    pids

(** Under the redirect policy, the saved instruction pointer is rewritten
    by a constant target, so the trap site and the error path must share
    a stack frame: "we require that the entries of the default error
    handler and unwanted code features reside within the same function"
    (§3.2.2). Keep only the feature blocks inside the redirect target's
    function — the dispatcher edges. Blocking those entry blocks is
    sufficient to disable the feature; deeper feature code stays mapped
    (use [`Wipe] + [`Kill] when that residue matters). *)
let redirect_filter (s : session) ~(sym : string) (blocks : Covgraph.block list) :
    Covgraph.block list =
  let root = Machine.proc_exn s.machine s.root_pid in
  match redirect_target s ~path:root.Proc.exe_path ~sym with
  | None -> blocks
  | Some { tg_off = None; _ } -> blocks (* resolution fails loudly later, in stage_handler *)
  | Some { tg_module; tg_func = lo, hi; _ } ->
      List.filter
        (fun (b : Covgraph.block) ->
          b.Covgraph.b_module = tg_module && lo <= b.Covgraph.b_off && b.Covgraph.b_off < hi)
        blocks

(* the image edits of a re-enable: original bytes back, pages remapped,
   the journal's entries dropped from the policy table *)
let reenable_edits s imgs pids (journals : Rewriter.journal list) =
  List.iter
    (fun (j : Rewriter.journal) ->
      match List.find_opt (fun pid -> pid = j.Rewriter.j_pid) pids with
      | None -> ()
      | Some pid ->
          let img = working_image s imgs pid in
          Rewriter.restore_bytes img j.Rewriter.j_patches;
          let img = Rewriter.remap img j.Rewriter.j_patches in
          (* drop only this journal's entries from the policy table;
             entries from other (still active) cuts remain *)
          let restored_addrs =
            List.filter_map
              (function
                | Rewriter.Bytes_patch { p_vaddr; _ } -> Some p_vaddr
                | Rewriter.Unmap_patch _ -> None)
              j.Rewriter.j_patches
          in
          let remaining =
            List.filter
              (fun (addr, _) -> not (List.mem addr restored_addrs))
              (Option.value ~default:[] (List.assoc_opt pid s.table))
          in
          s.table <- (pid, remaining) :: List.remove_assoc pid s.table;
          (match
             ( List.assoc_opt pid s.lib_bases,
               Rewriter.module_base img s.handler_lib.Self.name )
           with
          | Some base, Some _ ->
              let mode =
                if remaining = [] then Handler.mode_terminate else s.table_mode
              in
              Inject.write_policy img ~lib:s.handler_lib ~base ~mode
                ~entries:remaining
          | _ -> ());
          Hashtbl.replace imgs pid img)
    journals

(* ---------- the transaction ---------- *)

(* A cut is two phases. Phase A (checkpoint + every image edit) works on
   static images only: the live tree is frozen but untouched, so a
   failure there needs no process surgery — drop the in-memory images,
   reset the working frames from the pristine copies, restore the
   session bookkeeping, thaw. Phase B (restore) replaces processes one
   by one from the checked in-memory images; a failure there re-restores
   the already-replaced pids from their pristine images. Either way the
   invariant holds: the cut is fully applied, or the tree is exactly as
   it was. *)

type rollback = { rb_stage : string; rb_error : string }

type outcome = [ `Applied | `Rolled_back of rollback ]

type cut_result = {
  r_journals : Rewriter.journal list;
  r_timings : timings;
  r_outcome : outcome;
  r_retries : int;  (** transient-fault retries spent *)
  r_backoff_cycles : int;  (** virtual cycles charged as retry backoff *)
}

let pp_outcome fmt (o : outcome) =
  match o with
  | `Applied -> Format.pp_print_string fmt "applied"
  | `Rolled_back { rb_stage; rb_error } ->
      Format.fprintf fmt "rolled back at %s: %s" rb_stage rb_error

exception Stage_failed of string * exn

(* the pipeline's failure domain; anything outside it is a host bug and
   propagates untouched *)
let guard stage f =
  try f ()
  with
  | ( Fault.Injected _ | Fault.Storage_error _ | Dynacut_error _
    | Rewriter.Rewrite_error _ | Inject.Inject_error _
    | Restore.Restore_error _ | Validate.Validate_error _
    | Images.Format_error _ | Invalid_argument _ | Not_found ) as e
  ->
    raise (Stage_failed (stage, e))

let describe_exn = function
  | Fault.Injected { site; _ } -> "injected fault at " ^ Fault.Site.name site
  | Fault.Storage_error { site; kind } ->
      Printf.sprintf "storage error (%s) at %s" (Fault.storage_kind_to_string kind) (Fault.Site.name site)
  | Dynacut_error e -> e
  | Rewriter.Rewrite_error e -> "rewrite: " ^ e
  | Inject.Inject_error e -> "inject: " ^ e
  | Restore.Restore_error e -> "restore: " ^ e
  | Validate.Validate_error e -> "validate: " ^ e
  | Images.Format_error e -> "image format: " ^ e
  | e -> Printexc.to_string e

let snapshot_state s = (s.lib_bases, s.cut_count, s.table_mode, s.table)

let restore_state s (lib_bases, cut_count, table_mode, table) =
  s.lib_bases <- lib_bases;
  s.cut_count <- cut_count;
  s.table_mode <- table_mode;
  s.table <- table

let thaw_all s pids = List.iter (fun pid -> Machine.thaw s.machine ~pid) pids

(* ---------- journal wiring (DESIGN.md §5d) ---------- *)

let jrnl_append s (r : Journal.record) = Journal.append s.journal ~epoch:s.epoch r

(* Open the transaction in the journal: refuse a tree whose journal
   still holds an unfinished transaction or respawn ([Journal.Busy] —
   run [recover] first), take the lock ([Journal.Fenced] when a newer
   epoch holds it), and log the intent. Busy/Fenced are deliberately
   outside [guard]'s failure domain: they mean the tree is not ours to
   roll back. *)
let jrnl_open s ~txid ~op ~pids =
  let j = s.journal in
  let records, _torn = Journal.read j in
  let sum = Journal.summarize records in
  if not (Journal.quiescent sum) then begin
    let open_txid =
      match sum.Journal.s_tx with
      | Some t when not t.Journal.tx_closed -> t.Journal.tx_id
      | _ -> 0
    in
    raise (Journal.Busy { txid = open_txid })
  end;
  Journal.acquire j ~epoch:s.epoch;
  (* a quiescent leftover (death between Commit and cleanup, later
     recovered) is stale history — drop it before the new tx; only now
     that the fencing check passed is it ours to drop *)
  if records <> [] then Journal.clear j;
  Journal.append j ~epoch:s.epoch (Journal.Begin { txid; op; pids })

let jrnl_finish s = Journal.finish s.journal

(* Rollback epilogue: the tree is back to original — log [Abort] and
   drop journal + lock, but only while we still own the lock (a fenced
   controller must not touch files a newer one owns). Suppressed so an
   armed chaos fault cannot re-fire inside an already-successful
   rollback; a kill-mode fault still strikes — that is the point. *)
let jrnl_abort s ~txid =
  let j = s.journal in
  Fault.suppressed (fun () ->
      if Journal.lock_epoch j = s.epoch then begin
        Journal.append j ~epoch:s.epoch (Journal.Abort txid);
        Journal.finish j
      end)

(* charge the capped exponential backoff of retry number [attempt]
   ([min (2^attempt) 64] thousand cycles) to the virtual clock and
   return the cycles charged *)
let backoff (m : Machine.t) ~attempt =
  let cycles = min (1 lsl attempt) 64 * 1_000 in
  m.Machine.clock <- Int64.add m.Machine.clock (Int64.of_int cycles);
  cycles

(* Phase B: replace the live processes with the rewritten images. Each
   restore takes over the reaped process's pages that no edit touched
   and copies only the slots the edits wrote ([Restore.replace]); the
   tree stayed frozen since the dump, so those pages still hold what
   was dumped. On any
   failure, every pid is reverted to its pristine image — the already-
   replaced ones (and the half-restored victim) re-restored, the not-yet-
   touched ones merely thawed — under fault suppression so the unwind
   cannot itself be injected. The [Replaced] intent is journaled BEFORE
   each reap (write-ahead): a pid may be recorded and still original,
   never replaced and unrecorded. The [Commit] append rides inside the
   same failure domain — if it cannot be logged, the cut is not
   considered applied and the unwind reverts everything. *)
let commit_restore s ~txid imgs pids =
  let replaced = ref [] in
  try
    List.iter
      (fun pid ->
        guard "restore" (fun () ->
            jrnl_append s (Journal.Replaced { txid; pid });
            let p = Restore.replace s.machine (Hashtbl.find imgs pid) in
            p.Proc.frozen <- false;
            replaced := pid :: !replaced))
      pids;
    guard "restore" (fun () -> jrnl_append s (Journal.Commit txid))
  with Stage_failed _ as failure ->
    Fault.suppressed (fun () ->
        List.iter
          (fun pid ->
            let untouched =
              (not (List.mem pid !replaced))
              &&
              match Machine.proc s.machine pid with
              | Some p -> Proc.is_live p
              | None -> false
            in
            if not untouched then begin
              Machine.reap s.machine ~pid;
              let p = Restore.restore s.machine (load_pristine s pid) in
              p.Proc.frozen <- false
            end)
          pids);
    raise failure

(* the engine shared by cut, re-enable and seccomp. [edit] is the edit
   phase: it edits the transaction's in-memory images, ends with
   {!stage_seal} and returns (journals, t_disable, t_handler). *)
let run_transaction s ~op ~pids
    ~(edit : images -> Rewriter.journal list * float * float) : cut_result =
  let saved = snapshot_state s in
  let imgs : images = Hashtbl.create 4 in
  let txid = s.next_txid in
  s.next_txid <- txid + 1;
  let retries = ref 0 and backoff_total = ref 0 in
  (* the stage times reached so far: a rollback reports them *)
  let t = ref { t_checkpoint = 0.; t_disable = 0.; t_handler = 0.; t_restore = 0. } in
  let op_str = match op with Journal.Cut -> "cut" | Journal.Reenable -> "reenable" in
  (* the one retry loop: a failure whose injected fault is transient is
     re-run up to twice, after charging the backoff (the tree is frozen,
     so only time moves). Each step is idempotent: checkpointing
     re-dumps, a failed edit has reset the images, and the commit's own
     unwind leaves the tree restartable from the working images *)
  let rec with_retries step =
    try step ()
    with
    | Stage_failed (_, Fault.Injected { transient = true; _ }) when !retries < 2 ->
      incr retries;
      Obs.incr (Obs.counter "dynacut.retries");
      backoff_total := !backoff_total + backoff s.machine ~attempt:!retries;
      with_retries step
  in
  (* the journal open is NOT retried: a second [Begin] would read as a
     new transaction. Its failure rolls back trivially — nothing
     happened yet. Freeze/dump re-runs are idempotent, and re-appended
     progress records are deduplicated by the summarizer. *)
  match
    guard "journal" (fun () -> jrnl_open s ~txid ~op ~pids);
    let (), t_checkpoint =
      with_retries (fun () ->
          Obs.timed_span "checkpoint" (fun () ->
              guard "checkpoint" (fun () -> stage_freeze s pids);
              guard "journal" (fun () -> jrnl_append s (Journal.Frozen txid));
              guard "checkpoint" (fun () -> stage_dump s imgs pids);
              guard "journal" (fun () -> jrnl_append s (Journal.Images_saved txid))))
    in
    t := { !t with t_checkpoint };
    (* a failed edit resets the images, so a retry starts from the
       pristine frames (see [working_image]) *)
    let journals, t_disable, t_handler =
      with_retries (fun () ->
          try edit imgs
          with Stage_failed _ as failure ->
            restore_state s saved;
            Hashtbl.reset imgs;
            reset_working s pids;
            raise failure)
    in
    t := { !t with t_disable; t_handler };
    guard "journal" (fun () -> jrnl_append s (Journal.Rewritten txid));
    let (), t_restore =
      with_retries (fun () ->
          Obs.timed_span "restore" (fun () -> commit_restore s ~txid imgs pids))
    in
    (journals, { !t with t_restore })
  with
  | exception Stage_failed (stage, e) ->
      restore_state s saved;
      reset_working s pids;
      thaw_all s pids;
      jrnl_abort s ~txid;
      Obs.incr (Obs.counter ~labels:[ ("op", op_str) ] "dynacut.rollbacks");
      Obs.event ~kind:"dynacut"
        (Printf.sprintf "tx=%d %s rolled back at %s" txid op_str stage);
      {
        r_journals = [];
        r_timings = !t;
        r_outcome = `Rolled_back { rb_stage = stage; rb_error = describe_exn e };
        r_retries = !retries;
        r_backoff_cycles = !backoff_total;
      }
  | journals, timings ->
      (* [Commit] is on storage (last act of [commit_restore]); the
         journal has served its purpose *)
      jrnl_finish s;
      Obs.incr (Obs.counter ~labels:[ ("op", op_str) ] "dynacut.commits");
      Obs.event ~kind:"dynacut"
        (Printf.sprintf "tx=%d %s committed (%d retries)" txid op_str !retries);
      {
        r_journals = journals;
        r_timings = timings;
        r_outcome = `Applied;
        r_retries = !retries;
        r_backoff_cycles = !backoff_total;
      }

(** Disable [blocks] under [policy] as a transaction: any failure —
    including an injected fault at any pipeline site — rolls the tree
    back to its pre-cut state. Transient faults are retried up to twice
    with capped backoff. *)
let try_cut (s : session) ?pids ~(blocks : Covgraph.block list) ~(policy : policy)
    () : cut_result =
  let blocks =
    match policy.on_trap with
    | `Redirect sym -> redirect_filter s ~sym blocks
    | `Kill | `Terminate | `Verify -> blocks
  in
  let pids = match pids with Some l -> l | None -> tree_pids s in
  (* the final check, seal, store and read-back run in the last edit
     stage's span: inject when a handler is installed, else rewrite *)
  let installs = match policy.on_trap with `Kill -> false | _ -> true in
  let edit imgs =
    s.cut_count <- s.cut_count + 1;
    let seal () = guard "validate" (fun () -> stage_seal s imgs pids) in
    let journals, t_disable =
      Obs.timed_span "rewrite" (fun () ->
          let journals =
            guard "rewrite" (fun () ->
                stage_disable s imgs pids ~blocks ~method_:policy.method_)
          in
          if not installs then seal ();
          journals)
    in
    let (), t_handler =
      Obs.timed_span "inject" (fun () ->
          if installs then begin
            guard "inject" (fun () ->
                stage_handler s imgs pids ~blocks ~on_trap:policy.on_trap
                  ~journals);
            seal ()
          end)
    in
    (journals, t_disable, t_handler)
  in
  run_transaction s ~op:Journal.Cut ~pids ~edit

(* the edit phase of a re-enable or seccomp transaction: one pass of
   [edit] over the working images, then the seal, in the rewrite span *)
let image_edit s pids edit imgs =
  let (), t_disable =
    Obs.timed_span "rewrite" (fun () ->
        guard "rewrite" (fun () -> edit imgs);
        guard "validate" (fun () -> stage_seal s imgs pids))
  in
  ([], t_disable, 0.)

(** Restore previously disabled features from their journals (§3.2.2's
    bidirectional transformation), with the same transactional
    guarantees as {!try_cut}. *)
let try_reenable (s : session) ?pids (journals : Rewriter.journal list) : cut_result =
  let pids = match pids with Some l -> l | None -> tree_pids s in
  run_transaction s ~op:Journal.Reenable ~pids
    ~edit:(image_edit s pids (fun imgs -> reenable_edits s imgs pids journals))

(* a committed transaction's result; a rolled-back one raises *)
let applied what (r : cut_result) =
  match r.r_outcome with
  | `Applied -> r
  | `Rolled_back { rb_stage; rb_error } ->
      raise
        (Dynacut_error
           (Printf.sprintf "%s rolled back at %s stage: %s" what rb_stage rb_error))

(** Disable [blocks] in the target tree under [policy]. Returns per-pid
    journals (for {!reenable}) and the stage timing breakdown. Raises
    {!Dynacut_error} if the transaction rolled back (the tree is then
    unchanged and still serving). *)
let cut (s : session) ~(blocks : Covgraph.block list) ~(policy : policy) :
    Rewriter.journal list * timings =
  let r = applied "cut" (try_cut s ~blocks ~policy ()) in
  (r.r_journals, r.r_timings)

(** Restore a previous cut's features; raises {!Dynacut_error} if the
    transaction rolled back. *)
let reenable (s : session) (journals : Rewriter.journal list) : timings =
  (applied "re-enable" (try_reenable s journals)).r_timings

(** Install a seccomp-style syscall denylist across the tree via image
    rewriting (paper §5): after initialization a server no longer needs
    fork/open/socket-style syscalls, and filtering them out closes the
    kernel attack surface the way Ghavamnia et al. do — but switchable at
    run time, because it is just another image edit: a transaction
    journaled as a cut, rolled back on failure. [denied = None] clears
    the filter. *)
let apply_seccomp (s : session) ~(denied : int list option) : timings =
  let pids = tree_pids s in
  let set_filter imgs =
    List.iter
      (fun pid ->
        Hashtbl.replace imgs pid
          (Rewriter.set_seccomp (working_image s imgs pid) ~denied))
      pids
  in
  let r =
    run_transaction s ~op:Journal.Cut ~pids ~edit:(image_edit s pids set_filter)
  in
  (applied "seccomp" r).r_timings

(** Read the verifier's false-positive log from the live process
    (§3.2.3): addresses whose blocking was reverted at run time. *)
let verifier_log (s : session) ~(pid : int) : int64 list =
  match (Machine.proc s.machine pid, List.assoc_opt pid s.lib_bases) with
  | Some p, Some base ->
      let _, log = Inject.read_handler_state p ~lib:s.handler_lib ~base in
      log
  | _ -> []

let handler_hits (s : session) ~(pid : int) : int64 =
  match (Machine.proc s.machine pid, List.assoc_opt pid s.lib_bases) with
  | Some p, Some base ->
      let hits, _ = Inject.read_handler_state p ~lib:s.handler_lib ~base in
      hits
  | _ -> 0L

type trap_meter = (int, int64) Hashtbl.t

let trap_meter () : trap_meter = Hashtbl.create 4

(* a respawn from an image restores the guest counter to its
   checkpointed value, which may be below the baseline: the raw value
   is the delta then *)
let trap_delta (meter : trap_meter) (s : session) ~(pid : int) : int =
  let raw = handler_hits s ~pid in
  let last = Option.value ~default:0L (Hashtbl.find_opt meter pid) in
  Hashtbl.replace meter pid raw;
  Int64.to_int (if raw >= last then Int64.sub raw last else raw)

(* ---------- journaled respawn (canary and rollout reverts) ---------- *)

(** Respawns go through here so a controller death mid-respawn is
    visible to recovery: [Respawn_begin] is logged before the re-create
    and [Respawn_done] once the controller is back in control —
    {e including} when the respawn itself failed (the worker is then
    still dead, and the caller decides whether to retry). Only an
    unmatched intent means the controller died. *)
let journaled_respawn (s : session) ~(pid : int) ~(path : string) : Proc.t =
  let j = s.journal in
  Journal.acquire j ~epoch:s.epoch;
  Journal.append j ~epoch:s.epoch (Journal.Respawn_begin { pid; path });
  let close () =
    Fault.suppressed (fun () ->
        Journal.append j ~epoch:s.epoch (Journal.Respawn_done { pid });
        Journal.finish j)
  in
  match Restore.respawn s.machine ~path with
  | p ->
      close ();
      p
  | exception (Fault.Controller_killed _ as e) -> raise e
  | exception e ->
      close ();
      raise e

let respawn_pristine (s : session) ~(pid : int) : unit =
  ignore (journaled_respawn s ~pid ~path:(pristine_path s pid));
  forget_pid s ~pid

(* ---------- crash recovery (DESIGN.md §5d) ---------- *)

type recovery_action = [ `Nothing | `Thawed | `Rolled_back | `Completed ]

type recovery = {
  rec_action : recovery_action;
  rec_txid : int;  (** the open transaction's id; 0 when none was open *)
  rec_epoch : int;  (** the fencing epoch this pass stamped; 0 when idle *)
  rec_torn : bool;  (** the journal's tail was torn (crash mid-append) *)
  rec_pids : int list;  (** pids the open transaction covered *)
  rec_respawned : int list;  (** unmatched supervisor respawns redone *)
}

let pp_recovery fmt (r : recovery) =
  Format.fprintf fmt "%s%s%s%s"
    (match r.rec_action with
    | `Nothing -> "nothing to recover"
    | `Thawed -> "thawed the tree (crash before images were saved)"
    | `Rolled_back -> "rolled back from pristine images"
    | `Completed -> "transaction already finished (commit/abort logged); cleaned up")
    (if r.rec_txid <> 0 then Printf.sprintf " tx=%d" r.rec_txid else "")
    (if r.rec_torn then " [torn journal tail]" else "")
    (match r.rec_respawned with
    | [] -> ""
    | l ->
        Printf.sprintf " respawned=[%s]"
          (String.concat ";" (List.map string_of_int l)))

(** Recover the tree rooted at [root_pid] after a controller death, from
    the journal alone (the dead controller's heap is gone). The §5d
    decision table, applied to the journal's valid prefix:

    - no journal and no lock: nothing to do;
    - open transaction without [Images_saved]: the tree was at most
      frozen — thaw it;
    - open transaction with [Images_saved]: reap and re-create {e every}
      pid of the transaction from its pristine image. Uniform rollback is
      what makes a torn [Replaced] suffix harmless (a pid the dead
      controller never touched gets a state-identical re-create) and the
      pass idempotent;
    - [Commit]/[Abort] logged: the work finished, only cleanup was lost —
      thaw and quiesce.

    Unmatched supervisor respawns are redone first. The pass fences
    before it acts: the lock is stamped with a bumped epoch, so a
    controller that wakes up mid-recovery gets {!Journal.Fenced} on its
    next append. Idempotent: crashing inside recovery and re-running it
    converges to the same machine state. *)
let recover (machine : Machine.t) ~(root_pid : int) : recovery =
  let dir = Printf.sprintf "/tmpfs/dynacut-%d" root_pid in
  let j = Journal.attach machine.Machine.fs ~dir in
  let records, torn = Journal.read j in
  let lock_e = Journal.lock_epoch j in
  if records = [] && lock_e = 0 && not torn then
    {
      rec_action = `Nothing;
      rec_txid = 0;
      rec_epoch = 0;
      rec_torn = false;
      rec_pids = [];
      rec_respawned = [];
    }
  else begin
    (* fence first: a controller that still believes it owns this tree
       must fail its next append, not race the recovery pass *)
    let epoch = lock_e + 1 in
    Journal.write_lock j ~epoch;
    let sum = Journal.summarize records in
    let pristine pid = Printf.sprintf "%s/pristine-%d.img" dir pid in
    let working pid = Printf.sprintf "%s/dump-%d.img" dir pid in
    (* respawn from the first of [paths] that restores: a half-written
       image must not brick the revival while another copy is sound *)
    let revive paths =
      List.exists
        (fun path ->
          match Restore.respawn machine ~path with
          | (_ : Proc.t) -> true
          | exception (Restore.Restore_error _ | Validate.Validate_error _) -> false)
        paths
    in
    (* 1. respawns the dead controller left half-done *)
    let respawned =
      List.filter_map
        (fun (pid, path) ->
          Obs.with_span "recover.replay" @@ fun () ->
          Fault.site Recover_replay;
          let live =
            match Machine.proc machine pid with
            | Some p -> Proc.is_live p
            | None -> false
          in
          if (not live) && revive [ path; pristine pid ] then Some pid else None)
        sum.Journal.s_respawns
    in
    (* Thaw a pid — or, when the pid is gone although the journal's
       prefix never recorded a reap (mid-file corruption ate the
       record), revive it from its on-storage image: [prefer] first,
       the other copy as fallback. The write-ahead guarantee only
       covers the tail, so the revival is best effort — but a sealed
       image beats a dead tree. *)
    let thaw_or_revive ~prefer ~fallback pid =
      Obs.with_span "recover.replay" @@ fun () ->
      Fault.site Recover_replay;
      match Machine.proc machine pid with
      | Some p when Proc.is_live p -> Machine.thaw machine ~pid
      | Some _ -> ()
      | None -> ignore (revive [ prefer pid; fallback pid ])
    in
    (* 2. the open transaction, per the decision table *)
    let action, txid, pids =
      match sum.Journal.s_tx with
      | None -> (`Nothing, 0, [])
      | Some tx when tx.Journal.tx_closed ->
          (* committed pids run the rewritten (working) image *)
          List.iter
            (thaw_or_revive ~prefer:working ~fallback:pristine)
            tx.Journal.tx_pids;
          (`Completed, tx.Journal.tx_id, tx.Journal.tx_pids)
      | Some tx when tx.Journal.tx_images_saved ->
          List.iter
            (fun pid ->
              Obs.with_span "recover.replay" @@ fun () ->
              Fault.site Recover_replay;
              Machine.reap machine ~pid;
              let img =
                match Vfs.find machine.Machine.fs (pristine pid) with
                | Some blob -> Validate.decode_sealed blob
                | None ->
                    raise
                      (Dynacut_error
                         (Printf.sprintf "recover: no pristine image for pid %d"
                            pid))
              in
              let p = Restore.restore machine img in
              p.Proc.frozen <- false;
              (* future cuts must start from a clean working copy *)
              match Vfs.find machine.Machine.fs (pristine pid) with
              | Some blob -> Vfs.add machine.Machine.fs (working pid) blob
              | None -> ())
            tx.Journal.tx_pids;
          (`Rolled_back, tx.Journal.tx_id, tx.Journal.tx_pids)
      | Some tx ->
          (* pre-Images_saved pids were at most frozen *)
          List.iter
            (thaw_or_revive ~prefer:pristine ~fallback:working)
            tx.Journal.tx_pids;
          (`Thawed, tx.Journal.tx_id, tx.Journal.tx_pids)
    in
    (* quiesce the journal; the bumped lock stays behind as the fence *)
    Journal.clear j;
    Obs.incr (Obs.counter "dynacut.recoveries");
    Obs.event ~kind:"recover"
      (Printf.sprintf "tx=%d action=%s pids=%d respawned=%d epoch=%d" txid
         (match action with
         | `Nothing -> "nothing"
         | `Completed -> "completed"
         | `Rolled_back -> "rolled_back"
         | `Thawed -> "thawed")
         (List.length pids) (List.length respawned) epoch);
    {
      rec_action = action;
      rec_txid = txid;
      rec_epoch = epoch;
      rec_torn = torn;
      rec_pids = pids;
      rec_respawned = respawned;
    }
  end
