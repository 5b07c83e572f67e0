(** Nudge-precise invalidation: the bridge from [Mem]'s executable-page
    dirty set to block eviction.

    Every path that modifies code — the rewriter's first-byte int3
    patches, block wipes and page unmaps (via [Mem.poke8]/[protect]/
    [unmap] on the restored image), and any guest store that lands on
    an executable page — marks the page index in [Mem.exec_dirty]. The dispatcher drains that set before running
    another cached block, so a modification is visible at the next block
    boundary: exactly the DBI contract (DynamoRIO flushes the fragments
    overlapping a modified page and re-builds from current bytes).

    Restore and respawn need no draining at all: they build a fresh
    [Proc.t], which the dispatcher detects by physical equality and
    answers with a cold cache. *)

(** Evict the blocks overlapping the dirtied executable pages of the
    cache's address space; returns how many blocks died (0 when the
    dirty set was empty). The [Bbcache_flush] fault site models the
    flush machinery itself failing — an injected [Fail] propagates as
    [Fault.Injected] and the dispatcher must degrade to the interpreter
    rather than ever run a stale block. *)
let drain (c : Cache.t) =
  let mem = c.Cache.c_proc.Proc.mem in
  if not (Mem.exec_dirty_pending mem) then 0
  else begin
    Fault.site Bbcache_flush;
    List.fold_left
      (fun n idx -> n + Cache.evict_page c idx)
      0 (Mem.take_exec_dirty mem)
  end
