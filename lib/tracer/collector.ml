(** The code-coverage collector — our DynamoRIO+drcov stand-in.

    Attaches to a machine's basic-block hook and records deduplicated
    (module, offset, size) blocks per traced process tree. Supports the
    paper's two extensions (§3.1, §3.3):

    - {b nudges}: [nudge] dumps the coverage collected so far (the
      initialization-phase coverage) and clears the code cache, so the
      remainder of the run yields the serving-phase coverage;
    - {b multi-process}: children of traced processes are traced
      automatically, and blocks merge into one coverage map per tree. *)

type t = {
  machine : Machine.t;
  roots : (int, unit) Hashtbl.t;  (** traced pids (incl. discovered children) *)
  mutable last : Proc.t option;
      (** the process the hook last found traced: while it keeps running,
          its blocks skip the [roots] lookups *)
  mutable module_map : (string * int64 * int64) list;  (** name, base, end *)
  seen : int Itbl.t;  (** [key] (mod, off, size) -> seq *)
  mutable seq : int;
  mutable dumps : Drcov.log list;  (** nudge outputs, oldest first *)
  prev_hook : Machine.trace_hook option;
}

(* A block as one int: module index in bits 54-61, offset in bits
   22-53, size in bits 0-21. *)
let key mid off size =
  if mid lsr 8 <> 0 || off lsr 32 <> 0 || size lsr 22 <> 0 then
    invalid_arg
      (Printf.sprintf "Collector: block (module %d, 0x%x, %d) out of range" mid off size);
  (mid lsl 54) lor (off lsl 22) lor size

let module_of_vma_name name =
  match String.index_opt name ':' with
  | Some i -> String.sub name 0 i
  | None -> name

(** Derive the module list of a process from its VMA names: the module
    spans from its lowest to highest section VMA. *)
let modules_of_proc (p : Proc.t) : (string * int64 * int64) list =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v : Mem.vma) ->
      let m = module_of_vma_name v.Mem.va_name in
      if m <> "[stack]" && m <> "[anon]" then begin
        let lo, hi =
          match Hashtbl.find_opt tbl m with
          | Some (lo, hi) -> (min lo v.Mem.va_start, max hi (Mem.vma_end v))
          | None -> (v.Mem.va_start, Mem.vma_end v)
        in
        Hashtbl.replace tbl m (lo, hi)
      end)
    p.Proc.mem.Mem.vmas;
  Hashtbl.fold (fun name (lo, hi) acc -> (name, lo, hi) :: acc) tbl []
  |> List.sort compare

(* the block's [key], or -1 outside every module *)
let rec locate_in (addr : int64) size i = function
  | [] -> -1
  | (_, base, end_) :: _ when addr >= base && addr < end_ ->
      key i (Int64.to_int (Int64.sub addr base)) size
  | _ :: rest -> locate_in addr size (i + 1) rest

let traced t (p : Proc.t) =
  match t.last with
  | Some q when q == p -> true
  | _ ->
      let traced =
        Hashtbl.mem t.roots p.Proc.pid
        ||
        (* follow forks: trace children of traced processes *)
        if Hashtbl.mem t.roots p.Proc.parent then begin
          Hashtbl.replace t.roots p.Proc.pid ();
          (* the child may share module layout; merge any new modules *)
          List.iter
            (fun (n, lo, hi) ->
              if not (List.exists (fun (n', _, _) -> n' = n) t.module_map) then
                t.module_map <- t.module_map @ [ (n, lo, hi) ])
            (modules_of_proc p);
          true
        end
        else false
      in
      if traced then t.last <- Some p;
      traced

let on_block t (p : Proc.t) (start : int64) (size : int) =
  if traced t p then begin
    (* anonymous memory (JIT/stack) has no key — drcov skips it too *)
    let key = locate_in start size 0 t.module_map in
    if key >= 0 && not (Itbl.mem t.seen key) then begin
      Itbl.add t.seen key t.seq;
      t.seq <- t.seq + 1
    end
  end

(** Start tracing [pid] (and its future children) on [machine]. *)
let attach (machine : Machine.t) ~pid : t =
  let p = Machine.proc_exn machine pid in
  let t =
    {
      machine;
      roots = Hashtbl.create 4;
      last = None;
      module_map = modules_of_proc p;
      seen = Itbl.create 1024;
      seq = 0;
      dumps = [];
      prev_hook = machine.Machine.trace;
    }
  in
  Hashtbl.replace t.roots pid ();
  machine.Machine.trace <-
    Some
      (fun p start size ->
        (match t.prev_hook with Some h -> h p start size | None -> ());
        on_block t p start size);
  t

let current_log t : Drcov.log =
  let modules =
    List.mapi
      (fun i (name, base, end_) ->
        { Drcov.mi_id = i; mi_name = name; mi_base = base; mi_end = end_ })
      t.module_map
  in
  let bbs =
    Itbl.fold
      (fun key seq acc ->
        {
          Drcov.bb_mod = key lsr 54;
          bb_off = (key lsr 22) land 0xffff_ffff;
          bb_size = key land 0x3f_ffff;
          bb_seq = seq;
        }
        :: acc)
      t.seen []
    |> List.sort (fun a b -> compare a.Drcov.bb_seq b.Drcov.bb_seq)
  in
  { Drcov.modules; bbs }

(** The nudge (§3.1): dump the coverage collected so far and clear the
    code cache. The dumped log is the coverage of the phase that just
    ended (e.g. initialization). *)
let nudge t : Drcov.log =
  let log = current_log t in
  t.dumps <- t.dumps @ [ log ];
  Itbl.reset t.seen;
  log

(** Stop tracing; returns the final (post-last-nudge) coverage. *)
let detach t : Drcov.log =
  t.machine.Machine.trace <- t.prev_hook;
  current_log t

let dumps t = t.dumps
