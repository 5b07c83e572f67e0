(** Direct-threaded dispatch over the decoded-block cache — the path
    every machine executes on.

    The scheduler hands each runnable process to {!exec}, which chains
    cached blocks — fall-through and taken edges alike — into
    superblocks until a trap, blocked syscall, signal, cache miss on an
    undecodable entry (int3), pending invalidation, or fuel exhaustion
    breaks the chain. Block transitions whose predecessor carries a
    direct link skip the table lookup.

    A host-only accelerator: every instruction retires through
    {!Cpu.exec_decoded} at the interpreter's one cycle, lookups are
    free, and a chain stops at the exact instruction where the
    scheduler's single-step loop would ([fuel] spent or the clock at
    [until]), so the virtual clock cannot tell the paths apart. The
    chain charges the clock once ({!Cpu.charge}): when it ends, before
    it drains a dirty page set, and when an exception leaves it; in
    between, its tests read [clock + uncharged], and every callback
    out of the machine is preceded by a charge of its own. A store
    that dirties an executable page — the executing block's own
    included — moves [Mem.exec_gen], and {!Cpu.exec_decoded} then
    reports that the block cannot continue: it is left at the next
    slot, so self-modifying code is seen at the next instruction, as
    the interpreter sees it.

    The coverage tracer needs no separate instrumentation mode:
    {!Cpu.exec_decoded} performs the same block bookkeeping as the
    interpreter, so each cached block entry/exit emits the identical
    [trace] hook events and drcov output is byte-for-byte the same.

    Fidelity rules: the interpreter runs only the steps the cache
    declines — an int3 or a fault at rip, a quantum whose
    [Bbcache_dispatch] fault was injected as [Fail], and every step
    of a degraded dispatcher — and the reference the tests and the
    bench compare against, which is a dispatcher degraded on purpose
    ({!degrade}). A failed flush degrades the dispatcher permanently
    (stale blocks are never an option). The dataflow slicer runs on the
    cache: for a traced process {!Cpu.exec_block} runs its traced slot
    loop, which applies the slicer's step before each slot with the
    slot's flat summary and the registers the interpreter would show
    it. *)

(* Int-typed [min], [max] and [compare], as in {!Cpu}: nothing on the
   per-block path may reach the C runtime's polymorphic compare. *)
open struct
  [@@@warning "-32"]

  let[@inline] min (a : int) b = if a <= b then a else b
  let[@inline] max (a : int) b = if a >= b then a else b
  let compare = Int.compare
end

type t = Cpu.dispatcher

type stats = {
  st_hits : int;  (** block dispatches served from the cache *)
  st_decodes : int;  (** blocks decoded (cold or re-decoded after flush) *)
  st_flushes : int;  (** blocks evicted by invalidation *)
  st_superblocks : int;  (** dispatch chains *)
  st_blocks : int;  (** live cached blocks right now *)
}

let cache_for (d : t) (p : Proc.t) =
  match Hashtbl.find_opt d.Cpu.d_caches p.Proc.pid with
  | Some c when c.Cache.c_proc == p -> c
  | _ ->
      (* first sight of this pid, or its process object was replaced
         (criu restore, supervisor respawn, fork): fresh address space,
         cold cache — no block survives a respawn-from-image *)
      let c = Cache.create p in
      Hashtbl.replace d.Cpu.d_caches p.Proc.pid c;
      c

(* The successor of [prev] entered at [rip], if linked and live. Returns
   the option already stored on [prev], and inlines so that [rip] stays
   unboxed: a linked hit allocates nothing. *)
let[@inline] lookup_linked prev rip =
  match prev with
  | None -> None
  | Some (pb : Block.t) -> (
      match pb.Block.b_s1 with
      | Some b as s1 when b.Block.b_start = rip && not b.Block.b_dead -> s1
      | _ -> (
          match pb.Block.b_s2 with
          | Some b as s2 when b.Block.b_start = rip && not b.Block.b_dead ->
              pb.Block.b_s2 <- pb.Block.b_s1;
              pb.Block.b_s1 <- s2;
              s2
          | _ -> None))

(* Make [succ] (a [Some] block) [prev]'s most recent successor. *)
let link prev succ =
  match prev with
  | None -> ()
  | Some (pb : Block.t) ->
      pb.Block.b_s2 <- pb.Block.b_s1;
      pb.Block.b_s1 <- succ

(* [Dispatch.exec] counts its hits in a local and publishes them once. *)
let publish_hits (d : t) n =
  d.Cpu.d_hits <- d.Cpu.d_hits + n;
  Obs.add d.Cpu.obs_hits n

(** Drop every cache and hand the machine to the single-step
    interpreter for good. *)
let degrade (d : t) =
  Hashtbl.reset d.Cpu.d_caches;
  d.Cpu.d_degraded <- true

(** Run [p] out of its cache, stopping where the scheduler's
    single-step loop would (after [fuel] instructions or at clock
    [until]); returns how many instructions executed, 0 when the cache
    declined (int3 or fault at rip, injected dispatch fault, degraded
    dispatcher) and the interpreter must take one step. *)
let exec (m : Cpu.t) (p : Proc.t) ~fuel ~until =
  let d = m.Cpu.dispatcher in
  if d.Cpu.d_degraded then 0
  else
    match
      if Fault.armed Bbcache_dispatch then Fault.site Bbcache_dispatch
    with
    | exception Fault.Injected _ -> 0 (* this quantum interprets instead *)
    | () ->
        let cache = cache_for d p in
        let mem = p.Proc.mem in
        let executed = ref 0 in
        let hits = ref 0 in
        let chained = ref false in
        let prev = ref None in
        (try
           let continue_ = ref true in
           while !continue_ do
             (* the single-step loop's own condition, so the chain
                retires exactly the instructions it would *)
             if
               (match p.Proc.state with Proc.Runnable -> false | _ -> true)
               || p.Proc.frozen
               || !executed >= fuel
               || Int64.add m.Cpu.clock (Int64.of_int m.Cpu.uncharged) >= until
             then continue_ := false
             else begin
               if Hashtbl.length mem.Mem.exec_dirty <> 0 then begin
                 (* the flush's fault site can stamp an event *)
                 Cpu.charge m;
                 match Invalidate.drain cache with
                 | 0 -> ()
                 | k ->
                     d.Cpu.d_flushes <- d.Cpu.d_flushes + k;
                     Obs.add d.Cpu.obs_flushes k;
                     (* links into evicted blocks are dead; re-dispatch *)
                     prev := None
               end;
               let rip = Proc.get64u p.Proc.regs.Proc.file Proc.rip_off in
               let blk =
                 match lookup_linked !prev rip with
                 | Some _ as linked ->
                     incr hits;
                     linked
                 | None -> (
                     match Cache.find cache rip with
                     | Some _ as found ->
                         incr hits;
                         link !prev found;
                         found
                     | None -> (
                         match Block.decode d.Cpu.d_scratch mem rip with
                         | None -> None (* int3/fault entry: interpreter *)
                         | Some b as decoded ->
                             d.Cpu.d_decodes <- d.Cpu.d_decodes + 1;
                             Obs.incr d.Cpu.obs_decodes;
                             Cache.insert cache b;
                             link !prev decoded;
                             decoded))
               in
               match blk with
               | None -> continue_ := false
               | Some b ->
                   chained := true;
                   executed := Cpu.exec_block m p b ~fuel ~until !executed;
                   prev := blk
             end
           done
         with
        | Fault.Injected _ ->
            (* the flush machinery failed mid-drain: never risk a stale
               block *)
            Cpu.charge m;
            degrade d
        | e ->
            (* a hook or a kill-mode fault site escaped: the clock and
               the hits so far still count *)
            Cpu.charge m;
            publish_hits d !hits;
            raise e);
        Cpu.charge m;
        publish_hits d !hits;
        if !chained then d.Cpu.d_superblocks <- d.Cpu.d_superblocks + 1;
        !executed

let stats (d : t) =
  {
    st_hits = d.Cpu.d_hits;
    st_decodes = d.Cpu.d_decodes;
    st_flushes = d.Cpu.d_flushes;
    st_superblocks = d.Cpu.d_superblocks;
    st_blocks =
      Hashtbl.fold (fun _ c n -> n + Cache.block_count c) d.Cpu.d_caches 0;
  }

(** Live cached blocks for one pid, counting only a cache that still
    belongs to the pid's *current* process object — a respawned or
    restored process reads 0 until it re-decodes. *)
let cached_blocks (m : Cpu.t) ~pid =
  match Hashtbl.find_opt m.Cpu.dispatcher.Cpu.d_caches pid with
  | Some c -> (
      match Cpu.proc m pid with
      | Some p when p == c.Cache.c_proc -> Cache.block_count c
      | _ -> 0)
  | None -> 0
