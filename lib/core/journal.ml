(** The crash-consistency journal: a durable write-ahead intent log for
    the cut transaction (DESIGN.md §5d).

    The "applied XOR unchanged" invariant (§5a) only holds while the
    controller survives — the pristine map and stage progress live in
    its OCaml heap. This module puts on storage what recovery decides
    on: each transition that changes [Dynacut.recover]'s action appends
    a sealed, checksummed record (one {!Validate.seal} frame each) to
    [<tmpfs>/journal], so a fresh controller can tell how far a dead
    one got and finish the job. Those are [Begin], [Images_saved],
    [Commit] and [Abort]; no other record is kept. A supervisor respawn
    is a transaction too: a [Begin] naming the pid, then the re-create.

    Records are written {e before} the action they announce (intent
    logging), and a record counts only once it reads back: {!append}
    checks the frame it just stored against the frame it sealed and
    raises before the announced stage can act when the frame is damaged.

    A sealed lock file at [<tmpfs>/lock] holds the owning controller's
    epoch — the fencing token. Appends verify the lock still carries
    the writer's epoch; recovery bumps the epoch first, so a controller
    that was presumed dead but wakes up mid-recovery gets {!Fenced} on
    its next append instead of corrupting the tree. *)

type record =
  | Begin of { txid : int; pids : int list }
      (** transaction opened; the tree is about to be frozen *)
  | Images_saved of int
      (** pristine + working images of every pid are sealed in tmpfs —
          from here on, rollback-by-pristine-restore is always possible *)
  | Commit of int  (** every pid runs the rewritten image *)
  | Abort of int  (** the controller finished rolling the tree back *)

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
  | Begin { txid; pids } ->
      u8 b 1;
      int_as_u64 b txid;
      u32 b (List.length pids);
      List.iter (fun pid -> u32 b pid) pids
  | Images_saved txid ->
      u8 b 3;
      int_as_u64 b txid
  | Commit txid ->
      u8 b 6;
      int_as_u64 b txid
  | Abort txid ->
      u8 b 7;
      int_as_u64 b txid);
  contents b

(* raises on garbage; [read] turns that into a torn tail *)
let decode_record (payload : string) : record =
  let open Bytesx.R in
  let r = of_string payload in
  match u8 r with
  | 1 ->
      let txid = int_of_u64 r in
      let n = u32 r in
      let pids = List.init n (fun _ -> u32 r) in
      Begin { txid; pids }
  | 3 -> Images_saved (int_of_u64 r)
  | 6 -> Commit (int_of_u64 r)
  | 7 -> Abort (int_of_u64 r)
  | tag -> failwith (Printf.sprintf "bad journal record tag %d" tag)

let pp_record fmt (r : record) =
  match r with
  | Begin { txid; pids } ->
      Format.fprintf fmt "begin tx=%d pids=[%s]" txid
        (String.concat ";" (List.map string_of_int pids))
  | Images_saved txid -> Format.fprintf fmt "images-saved tx=%d" txid
  | Commit txid -> Format.fprintf fmt "commit tx=%d" txid
  | Abort txid -> Format.fprintf fmt "abort tx=%d" txid

(* ---------- the sealed append-log ---------- *)

(* The journal is a file of {!Validate.seal} frames, each appended
   whole, read back as the longest decodable prefix. *)

let remove_file fs path = if Vfs.exists fs path then Vfs.remove fs path

(** The valid prefix in append order, plus whether the tail was torn
    (truncated write, corruption or an undecodable frame — all
    survivable; the prefix is authoritative). Never raises. *)
let read (t : t) : record list * bool =
  match Vfs.find t.fs (journal_path t) with
  | None -> ([], false)
  | Some blob ->
      let payloads, tear = Validate.unseal_frames blob in
      Option.iter
        (fun t ->
          Obs.event ~kind:"journal"
            (Format.asprintf "torn tail: %a" Validate.pp_tear t))
        tear;
      let rec go acc = function
        | [] -> (List.rev acc, tear <> None)
        | p :: rest -> (
            match decode_record p with
            | x -> go (x :: acc) rest
            | exception _ -> (List.rev acc, true))
      in
      go [] payloads

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

(* Write the sealed frame [sealed] to [path] behind [prefix], through
   [site]'s corruption point, and read it back: the frame counts only if
   the bytes stored after [prefix] are the frame sealed
   ({!Validate.check_stored}, as image frames are). A frame that differs
   is undone — [path] gets [undo] back, or goes when [undo] is [None] —
   and raises {!Validate.Validate_error}. *)
let store_checked fs path ~site ~prefix ~undo sealed =
  Vfs.add fs path (prefix ^ Fault.corruptible site sealed);
  let stored = Option.value ~default:"" (Vfs.find fs path) in
  let off = String.length prefix in
  let frame = if off = 0 then stored else String.sub stored off (String.length stored - off) in
  try Validate.check_stored ~sealed frame
  with Validate.Validate_error _ as e ->
    (match undo with Some b -> Vfs.add fs path b | None -> remove_file fs path);
    raise e

(** Stamp the lock with [epoch], unconditionally — recovery's fencing
    move. Transaction paths use {!acquire}. The stamp counts once it
    reads back; a damaged one puts the previous lock back and raises
    {!Validate.Validate_error}, so no one acts on a lock it does not
    hold. *)
let write_lock (t : t) ~(epoch : int) : unit =
  Obs.with_span "journal.lock" @@ fun () ->
  Fault.site Journal_lock;
  let path = lock_path t in
  let open Bytesx.W in
  let b = create ~size:16 () in
  int_as_u64 b epoch;
  store_checked t.fs path ~site:Journal_lock ~prefix:"" ~undo:(Vfs.find t.fs path)
    (Validate.seal (contents b))

(** Take (or refresh) the lock for [epoch]; raises {!Fenced} when a
    newer epoch already holds it. *)
let acquire (t : t) ~(epoch : int) : unit =
  let held = lock_epoch t in
  if held > epoch then raise (Fenced { epoch; lock_epoch = held });
  write_lock t ~epoch

(* ---------- appending ---------- *)

(** Append one sealed record; verifies the lock still carries [epoch]
    first (raises {!Fenced} otherwise — a fenced controller must stop,
    not write). The record counts once it reads back: the frame just
    stored is read from storage and checked against the sealed frame
    written ({!Validate.check_stored}, as image frames are), and a frame
    that differs is cut off again and raises {!Validate.Validate_error}.
    Only the new frame is read, so a torn frame fails its own append and
    no later one: the rollback's [Abort], or the next transaction's
    [Begin], lands on an intact file. *)
let append (t : t) ~(epoch : int) (r : record) : unit =
  Obs.with_span "journal.append" @@ fun () ->
  Fault.site Journal_append;
  let held = lock_epoch t in
  if held <> epoch then raise (Fenced { epoch; lock_epoch = held });
  let path = journal_path t in
  let prev = Option.value ~default:"" (Vfs.find t.fs path) in
  store_checked t.fs path ~site:Journal_append ~prefix:prev ~undo:(Some prev)
    (Validate.seal (encode_record r));
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
  tx_pids : int list;
  tx_images_saved : bool;
  tx_closed : bool;  (** [Commit] or [Abort] logged *)
}

(** The journal's last transaction, if any. *)
let summarize (records : record list) : tx_state option =
  List.fold_left
    (fun tx r ->
      match (r, tx) with
      | Begin { txid; pids }, _ ->
          Some
            { tx_id = txid; tx_pids = pids; tx_images_saved = false; tx_closed = false }
      | Images_saved _, Some t -> Some { t with tx_images_saved = true }
      | (Commit _ | Abort _), Some t -> Some { t with tx_closed = true }
      | (Images_saved _ | Commit _ | Abort _), None -> None)
    None records

(** A quiescent journal needs no recovery: its last transaction closed.
    (An absent journal is trivially quiescent.) *)
let quiescent : tx_state option -> bool = function
  | None -> true
  | Some t -> t.tx_closed
