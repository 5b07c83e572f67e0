(** Hash-consed dependency sets over dense block ids, for the dynamic
    slicer.

    A set is named by its [sid], an [int]: sets are interned in a
    per-universe table, so two equal sets have one [sid], and [sid]s
    are handed out in interning order, the empty set ({!empty}) first.
    Behind a [sid] is a bitset of 63 block ids per word, with no
    trailing zero word, so every set has exactly one representation.
    Unions are word-wise ORs memoized on the unordered pair of [sid]s,
    so a repeated union is one integer-keyed table lookup, and a caller
    holds and compares sets as plain [int]s. *)

type t
(** A universe: the interned sets and the union memo. [sid]s from
    different universes must not be mixed. *)

val create : unit -> t

val empty : int
(** The [sid] of the empty set, in every universe: 0. *)

val singleton : t -> int -> int
(** [singleton t id] is the [sid] of [{id}]; [id >= 0]. *)

val union : t -> int -> int -> int
(** Commutative, idempotent, [union t empty s = s]. *)

val elements : t -> int -> int list
(** The ids in the set, increasing. *)

val count : t -> int
(** Sets interned so far, the empty set included. *)
