(** Deterministic fault injection at the pipeline's named sites.

    Every failure-prone operation in the cut pipeline declares a site
    ([Fault.site Criu_save]), a constructor of {!Site.t}; a test (or the
    CLI's [--inject-fault]) arms a site with a schedule and the next
    matching hit fires there. Scheduling is driven by {!Rng}, so a chaos
    run with a fixed seed replays bit-for-bit. The type is the registry:
    {!Site.info}, {!applicable_modes} and [Chaos.probe_driver] are
    exhaustive matches, so a site without a name, a mode set or a chaos
    probe does not compile; per-site state lives in arrays indexed by
    the constructor, so a hit hashes nothing.

    Beyond the original fail/kill faults, a site can be armed in one of
    the {!mode}s of the chaos engine (DESIGN.md §6c): [Delay n] charges
    [n] virtual cycles to the machine clock and lets the operation
    proceed (gray failure: slow, never wrong), [Corrupt] mangles the
    sealed blob a storage site is about to write (seeded bit-flip or
    truncation, caught downstream by {!Validate}'s checksum), and
    [Enospc]/[Eio] raise a typed {!Storage_error} that the transaction
    engine turns into a clean refusal.

    Sites are global (the pipeline is single-threaded, like the
    machine): [reset] between tests. Rollback paths run under
    {!suppressed} so an armed fault cannot re-fire while the transaction
    is already unwinding. *)

module Site = struct
  type t =
    | Criu_checkpoint | Criu_save | Criu_load | Crit_encode | Crit_decode
    | Rewrite_patch | Rewrite_unmap | Inject_lib | Inject_policy
    | Restore_process | Restore_tcp_repair | Restore_respawn | Supervisor_promote
    | Journal_lock | Journal_append | Recover_replay | Fleet_wave | Fleet_manifest
    | Balancer_dispatch | Net_accept_queue | Net_serve | Slice_trace | Slice_compute
    | Bbcache_dispatch | Bbcache_flush

  (** Array index, spelling (CLI, metric labels, replay files) and a
      one-line description of each site. *)
  let info = function
    | Criu_checkpoint -> (0, "criu.checkpoint", "freeze + dump of one process into images")
    | Criu_save -> (1, "criu.save", "store a sealed image blob in tmpfs")
    | Criu_load -> (2, "criu.load", "read a sealed image blob back from tmpfs")
    | Crit_encode -> (3, "crit.encode", "image-to-text round trip, encode half")
    | Crit_decode -> (4, "crit.decode", "image-to-text round trip, decode half")
    | Rewrite_patch -> (5, "rewrite.patch", "int3 byte patch on a checkpoint image")
    | Rewrite_unmap -> (6, "rewrite.unmap", "page drop / VMA split on a checkpoint image")
    | Inject_lib -> (7, "inject.lib", "map the SIGTRAP handler library into the image")
    | Inject_policy -> (8, "inject.policy", "write the policy table into the image")
    | Restore_process -> (9, "restore.process", "rebuild a live process from images")
    | Restore_tcp_repair -> (10, "restore.tcp_repair", "re-attach a snapshotted TCP connection")
    | Restore_respawn ->
        (11, "restore.respawn", "journaled re-create of a dead or reverted pid from a tmpfs image")
    | Supervisor_promote -> (12, "supervisor.promote", "canary promotion to the remaining pids")
    | Journal_lock -> (13, "journal.lock", "acquire or refresh the per-tree journal lock (fencing)")
    | Journal_append ->
        (14, "journal.append", "append a sealed record to the crash-consistency journal")
    | Recover_replay ->
        (15, "recover.replay", "apply one recovery action (respawn, pristine restore, thaw)")
    | Fleet_wave -> (16, "fleet.wave", "begin one wave of a rolling fleet rollout")
    | Fleet_manifest ->
        (17, "fleet.manifest", "append a sealed entry to the fleet rollout manifest")
    | Balancer_dispatch ->
        (18, "balancer.dispatch", "route one client connection to a fleet worker")
    | Net_accept_queue -> (19, "net.accept_queue", "admit a connection onto a bounded accept queue")
    | Net_serve -> (20, "net.serve", "a worker accepts one queued connection to serve it")
    | Slice_trace ->
        (21, "slice.trace", "attach the dataflow slicing tracer's per-insn/syscall hooks")
    | Slice_compute -> (22, "slice.compute", "fold the anchored dependency sets into the final slice")
    | Bbcache_dispatch ->
        (23, "bbcache.dispatch", "enter the decoded-block code cache's dispatch loop for a quantum")
    | Bbcache_flush ->
        (24, "bbcache.flush", "evict cached blocks overlapping dirtied executable pages")

  let index s = match info s with i, _, _ -> i
  let name s = match info s with _, n, _ -> n
  let description s = match info s with _, _, d -> d

  (** Every site in index order: the order of [--list-fault-sites], of
      the chaos coverage matrix and of the schedule generator's draws. *)
  let all =
    [
      Criu_checkpoint; Criu_save; Criu_load; Crit_encode; Crit_decode; Rewrite_patch;
      Rewrite_unmap; Inject_lib; Inject_policy; Restore_process; Restore_tcp_repair;
      Restore_respawn; Supervisor_promote; Journal_lock; Journal_append; Recover_replay;
      Fleet_wave; Fleet_manifest; Balancer_dispatch; Net_accept_queue; Net_serve;
      Slice_trace; Slice_compute; Bbcache_dispatch; Bbcache_flush;
    ]

  let count = List.length all
  let () = List.iteri (fun i s -> assert (index s = i)) all
  let of_name n = List.find_opt (fun s -> name s = n) all
end

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
          disk, a GC pause, a slow worker (gray failure) *)
  | Corrupt
      (** mangle the payload at a storage write site ({!corruptible});
          the operation "succeeds" and the damage surfaces at read time *)
  | Enospc  (** raise {!Storage_error} with [`Enospc] *)
  | Eio  (** raise {!Storage_error} with [`Eio] *)

let mode_to_string = function
  | Fail -> "fail"
  | Kill -> "kill"
  | Delay n -> Printf.sprintf "delay=%d" n
  | Corrupt -> "corrupt"
  | Enospc -> "enospc"
  | Eio -> "eio"

(** Inverse of {!mode_to_string}: the spelling shared by [--inject-fault]
    options and replay files. [delay=N] needs [N >= 1]. *)
let mode_of_string (s : string) : mode =
  match List.find_opt (fun m -> mode_to_string m = s) [ Fail; Kill; Corrupt; Enospc; Eio ] with
  | Some m -> m
  | None -> (
      let arg = if String.starts_with ~prefix:"delay=" s then String.sub s 6 (String.length s - 6) else "" in
      match int_of_string_opt arg with
      | Some n when n > 0 -> Delay n
      | _ -> invalid_arg (Printf.sprintf "Fault: bad mode %S" s))

exception Injected of { site : Site.t; transient : bool }
(** [transient] marks the fault as retryable — the transaction retries
    the stage instead of rolling back (capped backoff). *)

exception Controller_killed of { site : Site.t }
(** A [~kill] fault: the dynacut controller itself dies at the site.
    Unlike {!Injected} it is not part of the pipeline's failure domain —
    it unwinds past every rollback handler (including {!suppressed}
    sections), leaving the tree exactly as the crash found it. Recovery
    is [Dynacut.recover]'s job, from the journal alone. *)

exception Storage_error of { site : Site.t; kind : [ `Enospc | `Eio ] }
(** A typed storage failure ([Enospc]/[Eio] modes) at a write site.
    Inside the transaction engine it is part of the failure domain: the
    cut is refused cleanly (rollback / typed error), never a stranded
    half-patched tree. *)

let storage_kind_to_string = function `Enospc -> "enospc" | `Eio -> "eio"

let () =
  Printexc.register_printer (function
    | (Injected { site; _ } | Controller_killed { site } | Storage_error { site; _ }) as e ->
        Some (Printf.sprintf "%s(%S)" (Printexc.exn_slot_name e) (Site.name site))
    | _ -> None)

type armed = {
  a_spec : spec;
  a_mode : mode;
  a_transient : bool;
  a_scope : int option;
      (** when set, only [site ~scope:pid] calls with a matching pid
          fire — per-worker faults (e.g. one slow fleet member) *)
}

type counters = { mutable c_hits : int; mutable c_fired : int }

let rng = ref (Rng.create 7)

(* per-site state, indexed by [Site.index] *)
let armed_tbl : armed option array = Array.make Site.count None
let stats : counters array = Array.init Site.count (fun _ -> { c_hits = 0; c_fired = 0 })
let suppress_depth = ref 0

(* installed by [Machine.create]: advance that machine's virtual clock
   (Fault sits below Machine in the layering, so delay is a callback).
   Like [Obs.set_clock], the last machine created wins, and [reset]
   leaves it alone — the machine outlives the faults armed on it. *)
let delay_hook : (int -> unit) option ref = ref None
let set_delay_hook h = delay_hook := h

(** Re-seed the fault scheduler (probabilistic specs and corruption
    mangling draw from here). *)
let seed n = rng := Rng.create n

(** Disarm every site and zero all counters. *)
let reset () =
  Array.fill armed_tbl 0 Site.count None;
  Array.iter (fun c -> c.c_hits <- 0; c.c_fired <- 0) stats;
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
let arm_mode ?scope ?(transient = false) (site : Site.t) spec (mode : mode) =
  check_spec spec;
  (match mode with
  | Delay n when n <= 0 -> invalid_arg "Fault.arm_mode: Delay needs n >= 1"
  | _ -> ());
  armed_tbl.(Site.index site) <-
    Some { a_spec = spec; a_mode = mode; a_transient = transient; a_scope = scope }

let arm ?(transient = false) ?(kill = false) site spec =
  arm_mode ~transient site spec (if kill then Kill else Fail)

let disarm site = armed_tbl.(Site.index site) <- None
let armed site = armed_tbl.(Site.index site) <> None

(** How many times the site was reached / actually fired. *)
let hits site = stats.(Site.index site).c_hits
let fired site = stats.(Site.index site).c_fired

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
let record_fire site (c : counters) (a : armed) =
  (match a.a_spec with
  | One_shot | On_nth _ -> disarm site
  | Every_nth _ | Probability _ -> ());
  c.c_fired <- c.c_fired + 1;
  let name = Site.name site in
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
let site ?scope (site : Site.t) =
  let i = Site.index site in
  let c = stats.(i) in
  c.c_hits <- c.c_hits + 1;
  match armed_tbl.(i) with
  | None -> ()
  | Some a when not (scope_matches a scope) -> ()
  | Some a when a.a_mode = Corrupt -> ()
  | Some a when a.a_mode <> Kill && !suppress_depth > 0 -> ()
  | Some a ->
      if should_fire c a then begin
        record_fire site c a;
        match a.a_mode with
        | Fail -> raise (Injected { site; transient = a.a_transient })
        | Kill -> raise (Controller_killed { site })
        | Delay n -> ( match !delay_hook with Some h -> h n | None -> ())
        | Enospc -> raise (Storage_error { site; kind = `Enospc })
        | Eio -> raise (Storage_error { site; kind = `Eio })
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
let corruptible ?scope (site : Site.t) (payload : string) : string =
  let i = Site.index site in
  match armed_tbl.(i) with
  | Some ({ a_mode = Corrupt; _ } as a)
    when scope_matches a scope && !suppress_depth = 0 ->
      let c = stats.(i) in
      if should_fire c a then begin
        record_fire site c a;
        mangle payload
      end
      else payload
  | _ -> payload

(** Parse a CLI fault argument:
    [SITE[:once|nth=N|on=N|p=F][:MODE][:transient][:pid=P]] where MODE
    is [fail] (the default), [kill], [delay=N], [corrupt], [enospc] or
    [eio] ({!mode_of_string}), e.g. ["criu.save:once"],
    ["rewrite.patch:nth=3:transient"], ["journal.append:once:corrupt"],
    ["net.serve:nth=2:delay=40000"]. Returns (site, spec, transient,
    mode, scope). A name outside {!Site.all} is rejected: there is no
    such site to arm. *)
let parse_spec (s : string) : Site.t * spec * bool * mode * int option =
  let num ~what v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "Fault.parse_spec: bad %s %S" what v)
  in
  match String.split_on_char ':' s with
  | [] | [ "" ] -> invalid_arg "Fault.parse_spec: empty"
  | name :: opts ->
      let site =
        match Site.of_name name with
        | Some site -> site
        | None -> invalid_arg (Printf.sprintf "Fault.parse_spec: unknown site %S" name)
      in
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
          | _ when has_prefix "nth=" o -> spec := Every_nth (num ~what:"nth" (suffix "nth=" o))
          | _ when has_prefix "on=" o -> spec := On_nth (num ~what:"on" (suffix "on=" o))
          | _ when has_prefix "p=" o -> (
              match float_of_string_opt (suffix "p=" o) with
              | Some p -> spec := Probability p
              | None -> invalid_arg (Printf.sprintf "Fault.parse_spec: bad p %S" o))
          | _ when has_prefix "pid=" o -> scope := Some (num ~what:"pid" (suffix "pid=" o))
          | _ -> (
              try mode := mode_of_string o
              with Invalid_argument _ ->
                invalid_arg (Printf.sprintf "Fault.parse_spec: bad option %S" o)))
        opts;
      (site, !spec, !transient, !mode, !scope)

(** The modes that make sense at [site]: fail/kill/delay everywhere
    (every site is an operation that can fail outright, die, or stall),
    plus corrupt/enospc/eio at the storage write sites, the only ones
    that pair their {!site} call with a {!corruptible} write. The chaos
    coverage matrix must exercise each site in every applicable mode. *)
let applicable_modes (site : Site.t) : mode list =
  let base = [ Fail; Kill; Delay 25_000 ] in
  match site with
  | Criu_save | Journal_lock | Journal_append | Fleet_manifest -> base @ [ Corrupt; Enospc; Eio ]
  | Criu_checkpoint | Criu_load | Crit_encode | Crit_decode | Rewrite_patch | Rewrite_unmap
  | Inject_lib | Inject_policy | Restore_process | Restore_tcp_repair | Restore_respawn
  | Supervisor_promote | Recover_replay | Fleet_wave | Balancer_dispatch | Net_accept_queue
  | Net_serve | Slice_trace | Slice_compute | Bbcache_dispatch | Bbcache_flush ->
      base

(** Run-wide per-site fired count as recorded in the metric registry.
    Unlike {!fired} it survives {!reset} (only [Obs.reset] clears it), so
    a multi-phase scenario can report every injection that ever fired. *)
let registry_fired site =
  Obs.counter_value (Obs.counter ~labels:[ ("site", Site.name site) ] "fault.fired")

(** One line per site reached or armed since {!reset}, sorted by name:
    "site hits/fired". *)
let report () =
  List.filter (fun s -> hits s > 0 || fired s > 0 || armed s) Site.all
  |> List.sort (fun a b -> compare (Site.name a) (Site.name b))
  |> List.map (fun s -> Printf.sprintf "%-20s hits=%d fired=%d" (Site.name s) (hits s) (fired s))
  |> String.concat "\n"
