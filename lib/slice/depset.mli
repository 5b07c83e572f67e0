(** Hash-consed dependency sets over dense block ids, for the dynamic
    slicer.

    A set is a bitset: 63 block ids per word, with no trailing zero
    word, so every set has exactly one representation. Sets are interned
    in a per-universe table, so two equal sets are physically equal and
    share one [sid]; [sid]s are handed out in interning order, the empty
    set first. Unions are word-wise ORs memoized on the unordered pair
    of [sid]s, so a repeated union is one integer-keyed table lookup. *)

type set = private {
  sid : int;  (** interning order; 0 is the empty set *)
  bits : int array;  (** 63 ids per word, no trailing zero word *)
}

type t
(** A universe: the interning and union-memo tables. Sets from
    different universes must not be mixed. *)

val create : unit -> t
val empty : t -> set

val singleton : t -> int -> set
(** [singleton t id] is [{id}]; [id >= 0]. *)

val union : t -> set -> set -> set
(** Commutative, idempotent, [union t (empty t) s == s]. *)

val is_empty : set -> bool

val elements : set -> int list
(** The ids in the set, increasing. *)

val count : t -> int
(** Sets interned so far, the empty set included. *)
