(** The crash-consistency journal: a durable write-ahead intent log for
    the cut transaction (DESIGN.md §5d).

    PR 1's "applied XOR unchanged" invariant only holds while the
    controller survives — the pristine map and stage progress live in
    its OCaml heap. This module puts both on storage: every state
    transition of a transaction appends a sealed, checksummed record
    (one {!Validate.seal} frame each) to [<tmpfs>/journal], so a fresh
    controller can reconstruct how far a dead one got and finish the
    job ([Dynacut.recover]).

    Records are written {e before} the action they announce (intent
    logging): a [Replaced pid] in the journal means the pid {e may}
    already run the rewritten image — never that a replaced pid went
    unrecorded.

    A sealed lock file at [<tmpfs>/lock] holds the owning controller's
    epoch — the fencing token. Appends verify the lock still carries
    the writer's epoch; recovery bumps the epoch first, so a controller
    that was presumed dead but wakes up mid-recovery gets {!Fenced} on
    its next append instead of corrupting the tree. *)

type op = Cut | Reenable

let op_to_string = function Cut -> "cut" | Reenable -> "reenable"

type record =
  | Begin of { txid : int; op : op; pids : int list }
      (** transaction opened; the tree is about to be frozen *)
  | Frozen of int  (** every pid of txid is frozen *)
  | Images_saved of int
      (** pristine + working images of every pid are sealed in tmpfs —
          from here on, rollback-by-pristine-restore is always possible *)
  | Rewritten of int  (** all image edits validated; restore is next *)
  | Replaced of { txid : int; pid : int }
      (** [pid] is about to be reaped and re-created from the rewritten
          image (intent — logged before the reap) *)
  | Commit of int  (** every pid runs the rewritten image *)
  | Abort of int  (** the controller finished rolling the tree back *)
  | Respawn_begin of { pid : int; path : string }
      (** supervisor respawn: [pid] is about to be re-created from the
          image at [path] *)
  | Respawn_done of { pid : int }
      (** the controller regained control after [Respawn_begin] (the
          respawn landed, or failed with the controller alive) *)

type t = { fs : Vfs.t; dir : string }

exception
  Fenced of { epoch : int; lock_epoch : int }
      (** the lock no longer carries this controller's epoch: a newer
          controller (or recovery pass) fenced it out *)

exception
  Busy of { txid : int }
      (** the journal holds an unfinished transaction — the tree needs
          [dynacut recover] before anyone cuts it again *)

let attach (fs : Vfs.t) ~(dir : string) : t = { fs; dir }
let journal_path t = t.dir ^ "/journal"
let lock_path t = t.dir ^ "/lock"

(* ---------- record codec ---------- *)

let encode_record (r : record) : string =
  let open Bytesx.W in
  let b = create ~size:64 () in
  (match r with
  | Begin { txid; op; pids } ->
      u8 b 1;
      int_as_u64 b txid;
      u8 b (match op with Cut -> 0 | Reenable -> 1);
      u32 b (List.length pids);
      List.iter (fun pid -> u32 b pid) pids
  | Frozen txid ->
      u8 b 2;
      int_as_u64 b txid
  | Images_saved txid ->
      u8 b 3;
      int_as_u64 b txid
  | Rewritten txid ->
      u8 b 4;
      int_as_u64 b txid
  | Replaced { txid; pid } ->
      u8 b 5;
      int_as_u64 b txid;
      u32 b pid
  | Commit txid ->
      u8 b 6;
      int_as_u64 b txid
  | Abort txid ->
      u8 b 7;
      int_as_u64 b txid
  | Respawn_begin { pid; path } ->
      u8 b 8;
      u32 b pid;
      lstring b path
  | Respawn_done { pid } ->
      u8 b 9;
      u32 b pid);
  contents b

(* raises on garbage; [read] turns that into a torn tail *)
let decode_record (payload : string) : record =
  let open Bytesx.R in
  let r = of_string payload in
  match u8 r with
  | 1 ->
      let txid = int_of_u64 r in
      let op = match u8 r with 0 -> Cut | 1 -> Reenable | _ -> failwith "bad op" in
      let n = u32 r in
      let pids = List.init n (fun _ -> u32 r) in
      Begin { txid; op; pids }
  | 2 -> Frozen (int_of_u64 r)
  | 3 -> Images_saved (int_of_u64 r)
  | 4 -> Rewritten (int_of_u64 r)
  | 5 ->
      let txid = int_of_u64 r in
      Replaced { txid; pid = u32 r }
  | 6 -> Commit (int_of_u64 r)
  | 7 -> Abort (int_of_u64 r)
  | 8 ->
      let pid = u32 r in
      Respawn_begin { pid; path = lstring r }
  | 9 -> Respawn_done { pid = u32 r }
  | tag -> failwith (Printf.sprintf "bad journal record tag %d" tag)

let pp_record fmt (r : record) =
  match r with
  | Begin { txid; op; pids } ->
      Format.fprintf fmt "begin tx=%d op=%s pids=[%s]" txid (op_to_string op)
        (String.concat ";" (List.map string_of_int pids))
  | Frozen txid -> Format.fprintf fmt "frozen tx=%d" txid
  | Images_saved txid -> Format.fprintf fmt "images-saved tx=%d" txid
  | Rewritten txid -> Format.fprintf fmt "rewritten tx=%d" txid
  | Replaced { txid; pid } -> Format.fprintf fmt "replaced tx=%d pid=%d" txid pid
  | Commit txid -> Format.fprintf fmt "commit tx=%d" txid
  | Abort txid -> Format.fprintf fmt "abort tx=%d" txid
  | Respawn_begin { pid; path } ->
      Format.fprintf fmt "respawn-begin pid=%d path=%s" pid path
  | Respawn_done { pid } -> Format.fprintf fmt "respawn-done pid=%d" pid

(* ---------- the sealed append-log ---------- *)

(* Both intent logs — this journal and the fleet manifest below — are
   one format: a file of {!Validate.seal} frames, each appended whole,
   read back as the longest decodable prefix. *)

let remove_file fs path = if Vfs.exists fs path then Vfs.remove fs path

(* append one frame sealed at [site] (its [Corrupt] injection point) *)
let log_append fs path ~site payload =
  let prev = Option.value ~default:"" (Vfs.find fs path) in
  Vfs.add fs path (prev ^ Validate.seal_at ~site payload)

(* the valid prefix in append order, plus whether the tail was torn
   (truncated write, corruption or an undecodable frame — all
   survivable; the prefix is authoritative). Never raises. *)
let log_read fs path ~kind decode =
  match Vfs.find fs path with
  | None -> ([], false)
  | Some blob ->
      let payloads, tear = Validate.unseal_frames blob in
      Option.iter
        (fun t ->
          Obs.event ~kind (Format.asprintf "torn tail: %a" Validate.pp_tear t))
        tear;
      let rec go acc = function
        | [] -> (List.rev acc, tear <> None)
        | p :: rest -> (
            match decode p with
            | x -> go (x :: acc) rest
            | exception _ -> (List.rev acc, true))
      in
      go [] payloads

let read (t : t) : record list * bool =
  log_read t.fs (journal_path t) ~kind:"journal" decode_record

(* ---------- the lock / fencing token ---------- *)

(** Epoch in the lock file; 0 when absent or unreadable (an unreadable
    lock is treated like a missing one — any recovery bumps past it). *)
let lock_epoch (t : t) : int =
  match Vfs.find t.fs (lock_path t) with
  | None -> 0
  | Some blob -> (
      match Validate.unseal blob with
      | payload -> (
          match Bytesx.R.int_of_u64 (Bytesx.R.of_string payload) with
          | e -> max e 0
          | exception _ -> 0)
      | exception Validate.Validate_error _ -> 0)

(** Stamp the lock with [epoch], unconditionally — recovery's fencing
    move. Transaction paths use {!acquire}. *)
let write_lock (t : t) ~(epoch : int) : unit =
  Obs.with_span "journal.lock" @@ fun () ->
  Fault.site Journal_lock;
  let open Bytesx.W in
  let b = create ~size:16 () in
  int_as_u64 b epoch;
  Vfs.add t.fs (lock_path t) (Validate.seal_at ~site:Journal_lock (contents b))

(** Take (or refresh) the lock for [epoch]; raises {!Fenced} when a
    newer epoch already holds it. *)
let acquire (t : t) ~(epoch : int) : unit =
  let held = lock_epoch t in
  if held > epoch then raise (Fenced { epoch; lock_epoch = held });
  write_lock t ~epoch

(* ---------- appending ---------- *)

(** Append one sealed record; verifies the lock still carries [epoch]
    first (raises {!Fenced} otherwise — a fenced controller must stop,
    not write). *)
let append (t : t) ~(epoch : int) (r : record) : unit =
  Obs.with_span "journal.append" @@ fun () ->
  Fault.site Journal_append;
  let held = lock_epoch t in
  if held <> epoch then raise (Fenced { epoch; lock_epoch = held });
  log_append t.fs (journal_path t) ~site:Journal_append (encode_record r);
  Obs.event ~kind:"journal" (Format.asprintf "%a" pp_record r)

(** Remove the journal file only (recovery keeps its bumped lock behind
    as a fence). *)
let clear (t : t) : unit = remove_file t.fs (journal_path t)

(** Remove journal and lock — a transaction's clean finish. *)
let finish (t : t) : unit =
  clear t;
  remove_file t.fs (lock_path t)

(* ---------- summarizing ---------- *)

type tx_state = {
  tx_id : int;
  tx_op : op;
  tx_pids : int list;
  tx_frozen : bool;
  tx_images_saved : bool;
  tx_rewritten : bool;
  tx_replaced : int list;  (** pids with a [Replaced] intent, oldest first *)
  tx_closed : bool;  (** [Commit] or [Abort] logged *)
}

type summary = {
  s_tx : tx_state option;  (** the journal's last transaction, if any *)
  s_respawns : (int * string) list;
      (** [Respawn_begin]s without a matching [Respawn_done], oldest
          first — the controller died mid-respawn *)
}

let summarize (records : record list) : summary =
  let tx = ref None and respawns = ref [] in
  let with_tx f = match !tx with None -> () | Some t -> tx := Some (f t) in
  List.iter
    (fun r ->
      match r with
      | Begin { txid; op; pids } ->
          tx :=
            Some
              {
                tx_id = txid;
                tx_op = op;
                tx_pids = pids;
                tx_frozen = false;
                tx_images_saved = false;
                tx_rewritten = false;
                tx_replaced = [];
                tx_closed = false;
              }
      | Frozen _ -> with_tx (fun t -> { t with tx_frozen = true })
      | Images_saved _ -> with_tx (fun t -> { t with tx_images_saved = true })
      | Rewritten _ -> with_tx (fun t -> { t with tx_rewritten = true })
      | Replaced { pid; _ } ->
          with_tx (fun t ->
              if List.mem pid t.tx_replaced then t
              else { t with tx_replaced = t.tx_replaced @ [ pid ] })
      | Commit _ | Abort _ -> with_tx (fun t -> { t with tx_closed = true })
      | Respawn_begin { pid; path } -> respawns := (pid, path) :: !respawns
      | Respawn_done { pid } ->
          respawns := List.filter (fun (p, _) -> p <> pid) !respawns)
    records;
  { s_tx = !tx; s_respawns = List.rev !respawns }

(** A quiescent journal needs no recovery: every transaction closed,
    every respawn matched. (An absent journal is trivially quiescent.) *)
let quiescent (s : summary) : bool =
  s.s_respawns = [] && (match s.s_tx with None -> true | Some t -> t.tx_closed)

(** The fleet manifest: a second intent log, one per {e fleet} rather
    than per tree, recording rollout progress across workers so a crash
    mid-rollout can be replayed back to a uniform fleet (per-worker cut
    state itself is covered by each worker's own journal; the manifest
    records which workers a wave {e intended} to cut). The same sealed
    append-log as the journal, with its own record type. *)
module Manifest = struct
  type entry =
    | Wave_begin of { wave : int; pids : int list }
        (** wave [wave] is about to start cutting [pids] *)
    | Worker_cut of { wave : int; pid : int }
        (** [pid]'s cut transaction committed as part of [wave] *)
    | Wave_done of { wave : int }  (** every pid of the wave is cut *)
    | Rollout_halted of { wave : int }
        (** the rollout stopped at [wave] (canary rejected / SLO breach)
            and the wave's partial cuts were reverted *)
    | Rollout_done of { waves : int }  (** all [waves] waves committed *)
    | Checkpoint of { completed : int list; halted : int option; done_ : bool }
        (** compaction record: the summary of everything before it, so
            the append-only manifest can be rewritten as one entry *)

  type t = { fs : Vfs.t; path : string }

  let attach (fs : Vfs.t) ~(dir : string) : t = { fs; path = dir ^ "/manifest" }

  let encode_entry (e : entry) : string =
    let open Bytesx.W in
    let b = create ~size:32 () in
    (match e with
    | Wave_begin { wave; pids } ->
        u8 b 1;
        u32 b wave;
        u32 b (List.length pids);
        List.iter (fun pid -> u32 b pid) pids
    | Worker_cut { wave; pid } ->
        u8 b 2;
        u32 b wave;
        u32 b pid
    | Wave_done { wave } ->
        u8 b 3;
        u32 b wave
    | Rollout_halted { wave } ->
        u8 b 4;
        u32 b wave
    | Rollout_done { waves } ->
        u8 b 5;
        u32 b waves
    | Checkpoint { completed; halted; done_ } ->
        u8 b 6;
        u32 b (List.length completed);
        List.iter (fun w -> u32 b w) completed;
        u8 b (match halted with Some _ -> 1 | None -> 0);
        u32 b (match halted with Some w -> w | None -> 0);
        u8 b (if done_ then 1 else 0));
    contents b

  let decode_entry (payload : string) : entry =
    let open Bytesx.R in
    let r = of_string payload in
    match u8 r with
    | 1 ->
        let wave = u32 r in
        let n = u32 r in
        Wave_begin { wave; pids = List.init n (fun _ -> u32 r) }
    | 2 ->
        let wave = u32 r in
        Worker_cut { wave; pid = u32 r }
    | 3 -> Wave_done { wave = u32 r }
    | 4 -> Rollout_halted { wave = u32 r }
    | 5 -> Rollout_done { waves = u32 r }
    | 6 ->
        let n = u32 r in
        let completed = List.init n (fun _ -> u32 r) in
        let has_halted = u8 r in
        let halted_wave = u32 r in
        let done_ = u8 r = 1 in
        Checkpoint
          {
            completed;
            halted = (if has_halted = 1 then Some halted_wave else None);
            done_;
          }
    | tag -> failwith (Printf.sprintf "bad manifest entry tag %d" tag)

  let pp_entry fmt (e : entry) =
    match e with
    | Wave_begin { wave; pids } ->
        Format.fprintf fmt "wave-begin wave=%d pids=[%s]" wave
          (String.concat ";" (List.map string_of_int pids))
    | Worker_cut { wave; pid } ->
        Format.fprintf fmt "worker-cut wave=%d pid=%d" wave pid
    | Wave_done { wave } -> Format.fprintf fmt "wave-done wave=%d" wave
    | Rollout_halted { wave } ->
        Format.fprintf fmt "rollout-halted wave=%d" wave
    | Rollout_done { waves } ->
        Format.fprintf fmt "rollout-done waves=%d" waves
    | Checkpoint { completed; halted; done_ } ->
        Format.fprintf fmt "checkpoint completed=[%s] halted=%s done=%b"
          (String.concat ";" (List.map string_of_int completed))
          (match halted with Some w -> string_of_int w | None -> "-")
          done_

  (** Append one sealed entry. Fault site [fleet.manifest] — a storage
      write like [Journal.append], with the same corruption point. *)
  let append (t : t) (e : entry) : unit =
    Fault.site Fleet_manifest;
    log_append t.fs t.path ~site:Fleet_manifest (encode_entry e);
    Obs.event ~kind:"manifest" (Format.asprintf "%a" pp_entry e)

  (** Longest valid prefix + torn flag; never raises. *)
  let read (t : t) : entry list * bool =
    log_read t.fs t.path ~kind:"manifest" decode_entry

  let clear (t : t) : unit = remove_file t.fs t.path

  type summary = {
    m_completed : int list;  (** waves with [Wave_done], oldest first *)
    m_open : (int * int list * int list) option;
        (** a [Wave_begin] without [Wave_done]/[Rollout_halted]:
            (wave, planned pids, pids with a [Worker_cut]) *)
    m_halted : int option;  (** rollout halted at this wave *)
    m_done : bool;  (** [Rollout_done] logged *)
  }

  let summarize (entries : entry list) : summary =
    let completed = ref [] in
    let open_ = ref None in
    let halted = ref None in
    let done_ = ref false in
    List.iter
      (fun e ->
        match e with
        | Wave_begin { wave; pids } -> open_ := Some (wave, pids, [])
        | Worker_cut { wave; pid } -> (
            match !open_ with
            | Some (w, planned, cut) when w = wave ->
                open_ := Some (w, planned, cut @ [ pid ])
            | _ -> ())
        | Wave_done { wave } ->
            completed := !completed @ [ wave ];
            (match !open_ with
            | Some (w, _, _) when w = wave -> open_ := None
            | _ -> ())
        | Rollout_halted { wave } ->
            halted := Some wave;
            open_ := None
        | Rollout_done _ -> done_ := true
        | Checkpoint { completed = c; halted = h; done_ = d } ->
            (* a checkpoint replaces everything before it *)
            completed := c;
            halted := h;
            done_ := d;
            open_ := None)
      entries;
    { m_completed = !completed; m_open = !open_; m_halted = !halted; m_done = !done_ }

  (** Rewrite the manifest as one {!Checkpoint} summarizing the longest
      valid prefix — plus, when a wave is still open, the open wave's
      [Wave_begin]/[Worker_cut] records verbatim so crash recovery can
      still unwind it. Torn-tail tolerant by construction: compaction
      reads with {!read}, so a torn suffix is simply dropped, and the
      rewritten file is fully sealed again. *)
  let compact (t : t) : unit =
    let entries, torn = read t in
    let s = summarize entries in
    let tail =
      match s.m_open with
      | None -> []
      | Some (wave, planned, cut) ->
          Wave_begin { wave; pids = planned }
          :: List.map (fun pid -> Worker_cut { wave; pid }) cut
    in
    let entries' =
      Checkpoint
        { completed = s.m_completed; halted = s.m_halted; done_ = s.m_done }
      :: tail
    in
    Vfs.add t.fs t.path
      (String.concat "" (List.map (fun e -> Validate.seal (encode_entry e)) entries'));
    Obs.event ~kind:"manifest"
      (Printf.sprintf "compacted %d entries -> %d%s" (List.length entries)
         (List.length entries')
         (if torn then " (torn tail dropped)" else ""))
end
