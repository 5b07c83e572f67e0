(** Deterministic named-site fault injection.

    Every failure-prone operation in the cut pipeline declares a named
    site ([Fault.site "criu.save"]); a test (or the CLI's
    [--inject-fault]) arms a site with a schedule and the next matching
    hit fires there. Scheduling is driven by {!Rng}, so a chaos run with
    a fixed seed replays bit-for-bit.

    Beyond the original fail/kill faults, a site can be armed in one of
    the {!mode}s of the chaos engine (DESIGN.md §6c): [Delay n] charges
    [n] virtual cycles to the machine clock and lets the operation
    proceed (gray failure / straggler simulation), [Corrupt] mangles the
    sealed blob a storage site is about to write (seeded bit-flip or
    truncation, caught downstream by {!Validate}'s checksum), and
    [Enospc]/[Eio] raise a typed {!Storage_error} that the transaction
    engine turns into a clean refusal.

    Sites are global (the pipeline is single-threaded, like the
    machine): [reset] between tests. Rollback paths run under
    {!suppressed} so an armed fault cannot re-fire while the transaction
    is already unwinding. *)

type spec =
  | One_shot  (** fire on the next hit, then disarm *)
  | Every_nth of int  (** fire on every [n]-th hit of the site *)
  | Probability of float  (** fire each hit with probability [p] *)
  | On_nth of int  (** fire exactly on the [n]-th hit, then disarm *)

(** What happens when an armed site fires. *)
type mode =
  | Fail  (** raise {!Injected} — the original single-fault mode *)
  | Kill  (** raise {!Controller_killed}: the controller itself dies *)
  | Delay of int
      (** advance the virtual clock by [n] cycles and continue — a slow
          disk, a GC pause, a straggling worker (gray failure) *)
  | Corrupt
      (** mangle the payload at a storage write site ({!corruptible});
          the operation "succeeds" and the damage surfaces at read time *)
  | Enospc  (** raise {!Storage_error} with [`Enospc] *)
  | Eio  (** raise {!Storage_error} with [`Eio] *)
  | Bitflip
      (** flip one seeded bit in a resident mapped page of the scoped
          worker (any live process when unscoped) and let the operation
          proceed — {e silent} memory corruption, the failure only the
          integrity scrubber can catch. Distinct from [Corrupt], which
          mangles a storage write and is caught by the checksum seal at
          read time. *)

let mode_to_string = function
  | Fail -> "fail"
  | Kill -> "kill"
  | Delay n -> Printf.sprintf "delay=%d" n
  | Corrupt -> "corrupt"
  | Enospc -> "enospc"
  | Eio -> "eio"
  | Bitflip -> "bitflip"

exception Injected of { site : string; transient : bool }
(** [transient] marks the fault as retryable — the transaction retries
    the stage instead of rolling back (capped backoff). *)

exception Controller_killed of { site : string }
(** A [~kill] fault: the dynacut controller itself dies at the site.
    Unlike {!Injected} it is not part of the pipeline's failure domain —
    it unwinds past every rollback handler (including {!suppressed}
    sections), leaving the tree exactly as the crash found it. Recovery
    is [Dynacut.recover]'s job, from the journal alone. *)

exception Storage_error of { site : string; kind : [ `Enospc | `Eio ] }
(** A typed storage failure ([Enospc]/[Eio] modes) at a write site.
    Inside the transaction engine it is part of the failure domain: the
    cut is refused cleanly (rollback / typed error), never a stranded
    half-patched tree. *)

let storage_kind_to_string = function `Enospc -> "enospc" | `Eio -> "eio"

type armed = {
  a_spec : spec;
  a_mode : mode;
  a_transient : bool;
  a_scope : int option;
      (** when set, only [site ~scope:pid] calls with a matching pid
          fire — per-worker faults (e.g. one straggling fleet member) *)
}

type counters = { mutable c_hits : int; mutable c_fired : int }

let rng = ref (Rng.create 7)
let armed_tbl : (string, armed) Hashtbl.t = Hashtbl.create 8
let stats : (string, counters) Hashtbl.t = Hashtbl.create 16
let suppress_depth = ref 0

(* installed by [Machine.create]: advance that machine's virtual clock
   (Fault sits below Machine in the layering, so delay is a callback).
   Like [Obs.set_clock], the last machine created wins, and [reset]
   leaves it alone — the machine outlives the faults armed on it. *)
let delay_hook : (int -> unit) option ref = ref None
let set_delay_hook h = delay_hook := h

(* installed by [Machine.create], like [delay_hook]: flip one seeded bit
   in a resident mapped page of a live process (the armed scope's pid
   when set). The draw comes from Fault's own rng so a seeded chaos run
   replays the flip bit-for-bit. *)
let bitflip_hook : (scope:int option -> Rng.t -> unit) option ref = ref None
let set_bitflip_hook h = bitflip_hook := h

(** Re-seed the fault scheduler (probabilistic specs and corruption
    mangling draw from here). *)
let seed n = rng := Rng.create n

(** Disarm every site and zero all counters. *)
let reset () =
  Hashtbl.reset armed_tbl;
  Hashtbl.reset stats;
  suppress_depth := 0;
  seed 7

let check_spec = function
  | Every_nth n when n <= 0 -> invalid_arg "Fault.arm: Every_nth needs n >= 1"
  | On_nth n when n <= 0 -> invalid_arg "Fault.arm: On_nth needs n >= 1"
  | Probability p when not (p >= 0. && p <= 1.) ->
      invalid_arg "Fault.arm: probability outside [0,1]"
  | _ -> ()

(** Arm [site] to fire in [mode] on [spec]'s schedule, optionally scoped
    to one pid. One armed entry per site (latest wins). *)
let arm_mode ?scope ?(transient = false) site spec (mode : mode) =
  check_spec spec;
  (match mode with
  | Delay n when n <= 0 -> invalid_arg "Fault.arm_mode: Delay needs n >= 1"
  | _ -> ());
  Hashtbl.replace armed_tbl site
    { a_spec = spec; a_mode = mode; a_transient = transient; a_scope = scope }

let arm ?(transient = false) ?(kill = false) site spec =
  arm_mode ~transient site spec (if kill then Kill else Fail)

let disarm site = Hashtbl.remove armed_tbl site
let disarm_all () = Hashtbl.reset armed_tbl
let armed site = Hashtbl.mem armed_tbl site
let armed_mode site = Option.map (fun a -> a.a_mode) (Hashtbl.find_opt armed_tbl site)

let counters_for site =
  match Hashtbl.find_opt stats site with
  | Some c -> c
  | None ->
      let c = { c_hits = 0; c_fired = 0 } in
      Hashtbl.add stats site c;
      c

(** How many times the site was reached / actually fired. *)
let hits site = match Hashtbl.find_opt stats site with Some c -> c.c_hits | None -> 0
let fired site = match Hashtbl.find_opt stats site with Some c -> c.c_fired | None -> 0

(** Every site seen or armed so far, sorted. *)
let sites () =
  let acc = Hashtbl.create 16 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace acc k ()) stats;
  Hashtbl.iter (fun k _ -> Hashtbl.replace acc k ()) armed_tbl;
  List.sort compare (Hashtbl.fold (fun k () l -> k :: l) acc [])

(** Run [f] with all armed faults masked — the rollback path must not
    trip over the fault that triggered the rollback. Hit counters still
    advance. *)
let suppressed f =
  incr suppress_depth;
  Fun.protect ~finally:(fun () -> decr suppress_depth) f

let scope_matches (a : armed) (scope : int option) =
  match (a.a_scope, scope) with
  | None, _ -> true
  | Some s, Some k -> s = k
  | Some _, None -> false

let should_fire (c : counters) (a : armed) =
  match a.a_spec with
  | One_shot -> true
  | Every_nth n -> c.c_hits mod n = 0
  | On_nth n -> c.c_hits = n
  | Probability p -> Rng.float !rng < p

(* common firing bookkeeping: one-shot specs disarm, counters + registry
   advance, the event ring records the firing *)
let record_fire name (c : counters) (a : armed) =
  (match a.a_spec with
  | One_shot | On_nth _ -> Hashtbl.remove armed_tbl name
  | Every_nth _ | Probability _ -> ());
  c.c_fired <- c.c_fired + 1;
  Obs.incr (Obs.counter ~labels:[ ("site", name) ] "fault.fired");
  Obs.event ~kind:"fault"
    (Printf.sprintf "%s fired=%d %s%s" name c.c_fired (mode_to_string a.a_mode)
       (if a.a_transient then " transient" else ""))

(** Declare a fault site. No-op unless the site is armed. A [Kill]
    fault ignores {!suppressed} — controller death strikes anywhere,
    including inside a rollback. A [Corrupt] fault never fires here: it
    applies at the site's {!corruptible} write, with the hit counter
    this call advanced. [?scope] names the pid the operation acts for;
    a fault armed with a scope only fires on a matching call. *)
let site ?scope name =
  let c = counters_for name in
  c.c_hits <- c.c_hits + 1;
  match Hashtbl.find_opt armed_tbl name with
  | None -> ()
  | Some a when not (scope_matches a scope) -> ()
  | Some a when a.a_mode = Corrupt -> ()
  | Some a when a.a_mode <> Kill && !suppress_depth > 0 -> ()
  | Some a ->
      if should_fire c a then begin
        record_fire name c a;
        match a.a_mode with
        | Fail -> raise (Injected { site = name; transient = a.a_transient })
        | Kill -> raise (Controller_killed { site = name })
        | Delay n -> ( match !delay_hook with Some h -> h n | None -> ())
        | Bitflip -> (
            (* silent: the operation proceeds, the damage is resident *)
            match !bitflip_hook with
            | Some h -> h ~scope:a.a_scope !rng
            | None -> ())
        | Enospc -> raise (Storage_error { site = name; kind = `Enospc })
        | Eio -> raise (Storage_error { site = name; kind = `Eio })
        | Corrupt -> assert false
      end

(* seeded damage: either a torn write (truncate, possibly to nothing)
   or 1-3 single-bit flips. Both are exactly what the checksum seal is
   there to catch. *)
let mangle (s : string) : string =
  let n = String.length s in
  if n = 0 then s
  else if Rng.bool !rng then String.sub s 0 (Rng.int !rng n)
  else begin
    let b = Bytes.of_string s in
    let flips = 1 + Rng.int !rng 3 in
    for _ = 1 to flips do
      let i = Rng.int !rng n in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int !rng 8)))
    done;
    Bytes.to_string b
  end

(** Pass a storage payload through the site's corruption point, just
    before it is written. Identity unless a [Corrupt]-mode fault fires
    here. Does not advance the hit counter — the site's {!site} call,
    which every storage write site makes first, already did. *)
let corruptible ?scope name (payload : string) : string =
  match Hashtbl.find_opt armed_tbl name with
  | Some ({ a_mode = Corrupt; _ } as a)
    when scope_matches a scope && !suppress_depth = 0 ->
      let c = counters_for name in
      if should_fire c a then begin
        record_fire name c a;
        mangle payload
      end
      else payload
  | _ -> payload

(** Parse a CLI fault argument:
    [SITE[:once|nth=N|on=N|p=F][:MODE][:transient][:pid=P]] where MODE
    is [kill], [delay=N], [corrupt], [enospc], [eio] or [bitflip]
    (default: fail),
    e.g. ["criu.save:once"], ["rewrite.patch:nth=3:transient"],
    ["journal.append:once:corrupt"], ["net.serve:nth=2:delay=40000"].
    Returns (site, spec, transient, mode, scope). *)
let parse_spec (s : string) : string * spec * bool * mode * int option =
  let num ~what v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "Fault.parse_spec: bad %s %S" what v)
  in
  match String.split_on_char ':' s with
  | [] | [ "" ] -> invalid_arg "Fault.parse_spec: empty"
  | site :: opts ->
      let spec = ref One_shot
      and transient = ref false
      and mode = ref Fail
      and scope = ref None in
      let has_prefix p o =
        String.length o > String.length p && String.sub o 0 (String.length p) = p
      in
      let suffix p o = String.sub o (String.length p) (String.length o - String.length p) in
      List.iter
        (fun o ->
          match o with
          | "once" -> spec := One_shot
          | "transient" -> transient := true
          | "kill" -> mode := Kill
          | "corrupt" -> mode := Corrupt
          | "enospc" -> mode := Enospc
          | "eio" -> mode := Eio
          | "bitflip" -> mode := Bitflip
          | _ when has_prefix "nth=" o -> spec := Every_nth (num ~what:"nth" (suffix "nth=" o))
          | _ when has_prefix "on=" o -> spec := On_nth (num ~what:"on" (suffix "on=" o))
          | _ when has_prefix "p=" o -> (
              match float_of_string_opt (suffix "p=" o) with
              | Some p -> spec := Probability p
              | None -> invalid_arg (Printf.sprintf "Fault.parse_spec: bad p %S" o))
          | _ when has_prefix "delay=" o -> mode := Delay (num ~what:"delay" (suffix "delay=" o))
          | _ when has_prefix "pid=" o -> scope := Some (num ~what:"pid" (suffix "pid=" o))
          | _ -> invalid_arg (Printf.sprintf "Fault.parse_spec: bad option %S" o))
        opts;
      (site, !spec, !transient, !mode, !scope)

(** Static registry of every fault site compiled into the pipeline, with
    a one-line description. [sites ()] only knows sites already reached
    at run time; the CLI's [--list-fault-sites] wants them all. Keep in
    sync with the [Fault.site] calls — ci.sh greps lib/ for them, and
    the chaos coverage matrix (whose [Kill] column is the crash matrix)
    derives its probes from this list. *)
let known_sites =
  [
    ("criu.checkpoint", "freeze + dump of one process into images");
    ("criu.save", "store a sealed image blob in tmpfs");
    ("criu.load", "read a sealed image blob back from tmpfs");
    ("crit.encode", "image-to-text round trip, encode half");
    ("crit.decode", "image-to-text round trip, decode half");
    ("rewrite.patch", "int3 byte patch on a checkpoint image");
    ("rewrite.unmap", "page drop / VMA split on a checkpoint image");
    ("inject.lib", "map the SIGTRAP handler library into the image");
    ("inject.policy", "write the policy table into the image");
    ("restore.process", "rebuild a live process from images");
    ("restore.tcp_repair", "re-attach a snapshotted TCP connection");
    ("restore.respawn", "supervisor crash-loop respawn from a tmpfs image");
    ("supervisor.promote", "canary promotion to the remaining pids");
    ("supervisor.reenable", "breaker-tripped automatic re-enable");
    ("journal.lock", "acquire or refresh the per-tree journal lock (fencing)");
    ("journal.append", "append a sealed record to the crash-consistency journal");
    ("recover.replay", "apply one recovery action (respawn, pristine restore, thaw)");
    ("fleet.wave", "begin one wave of a rolling fleet rollout");
    ("fleet.manifest", "append a sealed entry to the fleet rollout manifest");
    ("fleet.reenable", "drift monitor's automatic fleet-wide re-enable");
    ("fleet.recut", "drift monitor's automatic re-cut of cold blocks");
    ("balancer.dispatch", "route one client connection to a fleet worker");
    ("balancer.health", "health-score the fleet's workers for one dispatch");
    ("net.accept_queue", "admit a connection onto a bounded accept queue");
    ("net.serve", "a worker accepts one queued connection to serve it");
    ("fleet.shed", "admission control sheds one over-capacity request");
    ("scrub.page", "verify one resident page digest against the integrity baseline");
    ("integrity.repair", "page-level repair of a diverged resident page from sealed images");
    ("slice.trace", "attach the dataflow slicing tracer's per-insn/syscall hooks");
    ("slice.compute", "fold the anchored dependency sets into the final slice");
    ("bbcache.dispatch", "enter the decoded-block code cache's dispatch loop for a quantum");
    ("bbcache.flush", "evict cached blocks overlapping dirtied executable pages");
  ]

(* storage write sites: the only places [Corrupt]/[Enospc]/[Eio] apply —
   every one pairs its [site] call with a [corruptible] write *)
let storage_sites = [ "criu.save"; "journal.lock"; "journal.append"; "fleet.manifest" ]

(* resident-memory sites: operations running against live mapped pages,
   where a silent [Bitflip] can land — a worker serving traffic, and the
   scrubber touching the very page it audits. Both take a [~scope] pid,
   so a flip is per-worker scopable. *)
let resident_sites = [ "net.serve"; "scrub.page" ]

(** The modes that make sense at [site]: fail/kill/delay everywhere
    (every site is an operation that can fail outright, die, or stall),
    plus corrupt/enospc/eio at the storage write sites and bitflip at
    the resident-memory sites. The chaos coverage matrix must exercise
    each site in every applicable mode. *)
let applicable_modes (site : string) : mode list =
  let base = [ Fail; Kill; Delay 25_000 ] in
  let base = if List.mem site storage_sites then base @ [ Corrupt; Enospc; Eio ] else base in
  if List.mem site resident_sites then base @ [ Bitflip ] else base

(** Run-wide per-site fired count as recorded in the metric registry.
    Unlike {!fired} it survives {!reset} (only [Obs.reset] clears it), so
    a multi-phase scenario can report every injection that ever fired. *)
let registry_fired site =
  Obs.counter_value (Obs.counter ~labels:[ ("site", site) ] "fault.fired")

(** One line per known site: "site hits/fired". *)
let report () =
  String.concat "\n"
    (List.map (fun s -> Printf.sprintf "%-20s hits=%d fired=%d" s (hits s) (fired s)) (sites ()))
