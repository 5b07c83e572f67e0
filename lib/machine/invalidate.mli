(** Nudge-precise invalidation: drain [Mem]'s executable-page dirty set
    into block evictions. Code modifications become visible at the next
    block boundary — the DBI flush contract. *)

val drain : Cache.t -> int
(** Evict blocks overlapping dirtied executable pages; returns how many
    died (0 when clean). Fires [Bbcache_flush] when there is work; an
    injected [Fail] propagates as [Fault.Injected] and the caller must
    degrade rather than run stale blocks. *)
