(** Facade for the decoded-block code cache (DESIGN.md "Code cache"),
    which lives in [dynacut.machine]: [Block] decodes, [Cache] stores,
    [Dispatch] executes, [Invalidate] evicts. Every machine runs on its
    cache from [Machine.create] on; there is nothing to turn on. *)

type t = Dispatch.t
type stats = Dispatch.stats = {
  st_hits : int;
  st_decodes : int;
  st_flushes : int;
  st_superblocks : int;
  st_blocks : int;
}

(** The machine's dispatcher; idempotent (the cache is always on). *)
let enable (m : Machine.t) = m.Machine.dispatcher

let stats = Dispatch.stats
