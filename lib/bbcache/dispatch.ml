(** Direct-threaded dispatch over the decoded-block cache.

    [enable] installs an [exec_cached] hook on the machine; the scheduler
    then hands each runnable process to {!exec}, which chains cached
    blocks — fall-through and taken edges alike — into superblocks until
    a trap, blocked syscall, signal, cache miss on an undecodable entry
    (int3), pending invalidation, or fuel exhaustion breaks the chain.
    Block transitions whose predecessor carries a direct link skip the
    table lookup.

    A host-only accelerator: every instruction retires through
    {!Machine.exec_decoded} at the interpreter's one cycle, lookups are
    free, and a chain stops at the exact instruction where the
    scheduler's single-step loop would ([fuel] spent or the clock at
    [until]), so the virtual clock cannot tell the modes apart. One
    known gap: a store into the executing block is seen at the next
    block boundary, not at the next instruction.

    The coverage tracer needs no separate instrumentation mode:
    {!Machine.exec_decoded} performs the same block bookkeeping as the
    interpreter, so each cached block entry/exit emits the identical
    [trace] hook events and drcov output is byte-for-byte the same.

    Fidelity rules: a machine with an [on_insn] hook (the dataflow
    slicer) never reaches this code — the scheduler checks the hook
    before consulting [exec_cached]. An ["bbcache.dispatch"] fault
    injected as [Fail] falls back to the interpreter for that quantum;
    a failed flush degrades the dispatcher permanently (stale blocks are
    never an option). *)

type t = {
  d_machine : Machine.t;
  d_caches : (int, Cache.t) Hashtbl.t;  (** pid -> its block cache *)
  mutable d_degraded : bool;
      (** a flush fault fired: every cache was dropped and the machine
          runs on the single-step interpreter from here on *)
  mutable d_hits : int;
  mutable d_decodes : int;
  mutable d_flushes : int;  (** blocks evicted, not flush operations *)
  mutable d_superblocks : int;
  obs_hits : Obs.counter;
  obs_decodes : Obs.counter;
  obs_flushes : Obs.counter;
  obs_sb_len : Obs.histogram;
}

type stats = {
  st_hits : int;  (** block dispatches served from the cache *)
  st_decodes : int;  (** blocks decoded (cold or re-decoded after flush) *)
  st_flushes : int;  (** blocks evicted by invalidation *)
  st_superblocks : int;  (** dispatch chains (histogrammed by length) *)
  st_blocks : int;  (** live cached blocks right now *)
}

let cache_for d (p : Proc.t) =
  match Hashtbl.find_opt d.d_caches p.Proc.pid with
  | Some c when c.Cache.c_proc == p -> c
  | _ ->
      (* first sight of this pid, or its process object was replaced
         (criu restore, supervisor respawn, fork): fresh address space,
         cold cache — no block survives a respawn-from-image *)
      let c = Cache.create p in
      Hashtbl.replace d.d_caches p.Proc.pid c;
      c

let lookup_linked prev rip =
  match prev with
  | None -> None
  | Some (pb : Block.t) -> (
      match pb.Block.b_s1 with
      | Some b when b.Block.b_start = rip && not b.Block.b_dead -> Some b
      | _ -> (
          match pb.Block.b_s2 with
          | Some b when b.Block.b_start = rip && not b.Block.b_dead ->
              pb.Block.b_s2 <- pb.Block.b_s1;
              pb.Block.b_s1 <- Some b;
              Some b
          | _ -> None))

let link prev b =
  match prev with
  | None -> ()
  | Some (pb : Block.t) ->
      pb.Block.b_s2 <- pb.Block.b_s1;
      pb.Block.b_s1 <- Some b

(** Run one block with [executed] instructions already spent; returns
    the new total. Only a block's last instruction can be a syscall, so
    every earlier one costs exactly one cycle: the single-step loop's
    fuel and deadline checks fold into one slot limit taken on entry,
    and {!exec} re-checks both before the next block. Execution also
    leaves the block early when a slot does not fall through
    ({!Machine.exec_decoded} returns [false] on a taken trap, signal,
    blocked syscall or exit) or stops the process — decided from that
    flag and the process state, never by re-reading rip or memory. *)
let exec_block m (p : Proc.t) (b : Block.t) ~fuel ~until executed =
  let slots = b.Block.b_slots in
  let limit =
    min (Array.length slots)
      (min (fuel - executed) (Int64.to_int (Int64.sub until m.Machine.clock)))
  in
  let i = ref 0 and go = ref true in
  while !go && !i < limit do
    let s = slots.(!i) in
    go :=
      Machine.exec_decoded m p s.Block.s_insn s.Block.s_len
      && (match p.Proc.state with Proc.Runnable -> true | _ -> false)
      && not p.Proc.frozen;
    incr i
  done;
  executed + !i

let exec d (p : Proc.t) ~fuel ~until =
  if d.d_degraded then 0
  else
    match
      if Fault.armed "bbcache.dispatch" then Fault.site "bbcache.dispatch"
    with
    | exception Fault.Injected _ -> 0 (* this quantum interprets instead *)
    | () ->
        let m = d.d_machine in
        let cache = cache_for d p in
        let mem = p.Proc.mem in
        let executed = ref 0 in
        let chained = ref 0 in
        let prev = ref None in
        (try
           let continue_ = ref true in
           while !continue_ do
             (* the single-step loop's own condition, so the chain
                retires exactly the instructions it would *)
             if
               p.Proc.state <> Proc.Runnable
               || p.Proc.frozen
               || !executed >= fuel
               || m.Machine.clock >= until
             then continue_ := false
             else begin
               (match Invalidate.drain cache with
               | 0 -> ()
               | k ->
                   d.d_flushes <- d.d_flushes + k;
                   Obs.add d.obs_flushes k;
                   (* links into evicted blocks are dead; re-dispatch *)
                   prev := None);
               let rip = Proc.rip p.Proc.regs in
               let blk =
                 match lookup_linked !prev rip with
                 | Some b ->
                     d.d_hits <- d.d_hits + 1;
                     Obs.incr d.obs_hits;
                     Some b
                 | None -> (
                     match Cache.find cache rip with
                     | Some b ->
                         d.d_hits <- d.d_hits + 1;
                         Obs.incr d.obs_hits;
                         link !prev b;
                         Some b
                     | None -> (
                         match Block.decode mem rip with
                         | None -> None (* int3/fault entry: interpreter *)
                         | Some b ->
                             d.d_decodes <- d.d_decodes + 1;
                             Obs.incr d.obs_decodes;
                             Cache.insert cache b;
                             link !prev b;
                             Some b))
               in
               match blk with
               | None -> continue_ := false
               | Some b ->
                   incr chained;
                   executed := exec_block m p b ~fuel ~until !executed;
                   prev := Some b
             end
           done
         with Fault.Injected _ ->
           (* the flush machinery failed mid-drain: never risk a stale
              block — drop every cache and hand the machine back to the
              single-step interpreter for good *)
           Hashtbl.reset d.d_caches;
           d.d_degraded <- true);
        if !chained > 0 then begin
          d.d_superblocks <- d.d_superblocks + 1;
          Obs.observe d.obs_sb_len (float_of_int !chained)
        end;
        !executed

let enable (m : Machine.t) =
  let d =
    {
      d_machine = m;
      d_caches = Hashtbl.create 8;
      d_degraded = false;
      d_hits = 0;
      d_decodes = 0;
      d_flushes = 0;
      d_superblocks = 0;
      obs_hits = Obs.counter "bbcache.hits";
      obs_decodes = Obs.counter "bbcache.decodes";
      obs_flushes = Obs.counter "bbcache.flushes";
      obs_sb_len = Obs.histogram "bbcache.superblock_len";
    }
  in
  m.Machine.exec_cached <- Some (exec d);
  d

let disable d =
  d.d_machine.Machine.exec_cached <- None;
  Hashtbl.reset d.d_caches

let degraded d = d.d_degraded

(** Explicit whole-cache nudge across every pid. *)
let flush_all d =
  match
    Hashtbl.fold (fun _ c n -> n + Invalidate.flush c) d.d_caches 0
  with
  | n ->
      d.d_flushes <- d.d_flushes + n;
      Obs.add d.obs_flushes n;
      Hashtbl.reset d.d_caches
  | exception Fault.Injected _ ->
      Hashtbl.reset d.d_caches;
      d.d_degraded <- true

let stats d =
  {
    st_hits = d.d_hits;
    st_decodes = d.d_decodes;
    st_flushes = d.d_flushes;
    st_superblocks = d.d_superblocks;
    st_blocks = Hashtbl.fold (fun _ c n -> n + Cache.block_count c) d.d_caches 0;
  }

(** Live cached blocks for one pid, counting only a cache that still
    belongs to the pid's *current* process object — a respawned or
    restored process reads 0 until it re-decodes. *)
let cached_blocks d ~pid =
  match Hashtbl.find_opt d.d_caches pid with
  | Some c -> (
      match Machine.proc d.d_machine pid with
      | Some p when p == c.Cache.c_proc -> Cache.block_count c
      | _ -> 0)
  | None -> 0
