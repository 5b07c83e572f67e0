(** Per-address-space block store with a page-granular inverse index for
    precise invalidation. Pinned to one {!Proc.t}: restore/respawn/fork
    build fresh process objects, so staleness is one physical-equality
    check and a rebuilt cache. *)

type t = {
  c_proc : Proc.t;
  c_blocks : (int64, Block.t) Hashtbl.t;
  c_by_page : (int64, Block.t list ref) Hashtbl.t;
}

val create : Proc.t -> t
val find : t -> int64 -> Block.t option
val insert : t -> Block.t -> unit
val block_count : t -> int

val evict_page : t -> int64 -> int
(** Tombstone and unindex every block overlapping the page; returns how
    many died. *)
