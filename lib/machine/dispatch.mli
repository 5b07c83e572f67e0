(** Direct-threaded dispatch over the decoded-block cache, the path
    every machine executes on, [on_insn] hooks included: chains cached
    blocks into superblocks until a trap/syscall boundary. A host-only
    accelerator: the virtual clock advances exactly as when
    interpreted. The interpreter runs only the steps the cache declines
    (int3 or fault at rip, an injected [Bbcache_dispatch] fault, a
    degraded dispatcher) and the reference made by {!degrade}. *)

type t = Cpu.dispatcher
(** A machine's dispatcher ([Machine.t.dispatcher]), made by
    [Machine.create]. *)

type stats = {
  st_hits : int;  (** block dispatches served from the cache *)
  st_decodes : int;  (** blocks decoded (cold or re-decoded after flush) *)
  st_flushes : int;  (** blocks evicted by invalidation *)
  st_superblocks : int;  (** dispatch chains *)
  st_blocks : int;  (** live cached blocks right now *)
}

val exec : Cpu.t -> Proc.t -> fuel:int -> until:int64 -> int
(** Run the process out of its cache, stopping where the scheduler's
    single-step loop would (after [fuel] instructions or at clock
    [until]); returns how many instructions executed, 0 when the cache
    declined (int3 or fault at rip, injected [Bbcache_dispatch]
    fault, degraded dispatcher) and the interpreter must take one step.
    Interpreted semantics are preserved exactly (same hooks, counters,
    signals and virtual clock); only host time changes. *)

val degrade : t -> unit
(** Drop every cache and run the machine on the single-step interpreter
    from now on. A failed flush does this; the tests and the bench call
    it to make the interpreter reference the cache is compared with. *)

val stats : t -> stats

val cached_blocks : Cpu.t -> pid:int -> int
(** Live cached blocks for the pid's *current* process object; a
    respawned/restored process reads 0 until it re-decodes. *)
