(** Abstract memory for the dynamic slicer: payloads keyed by address
    ranges with strong-update writes, range splitting, and coalescing of
    adjacent equal-payload ranges — table size proportional to distinct
    touched regions, not bytes. Addresses and payloads are unboxed
    [int]s; adjacent ranges coalesce when their payloads are equal. *)

type t = {
  mutable los : int array;  (** range starts, increasing; disjoint ranges *)
  mutable lens : int array;
  mutable pays : int array;
  mutable n : int;  (** live ranges: indexes [0, n) of the arrays *)
}
(** Three parallel arrays sorted by start. Exposed so that the machine's
    traced slot loop can read ranges and take {!write}'s no-op case
    inline; every change goes through {!write}. *)

val create : unit -> t

val write : t -> addr:int -> len:int -> int -> unit
(** Strong update: [addr, addr+len) carries exactly the payload
    afterwards. [len <= 0] is a no-op. *)

val fold : t -> addr:int -> len:int -> ('b -> int -> 'b) -> 'b -> 'b
(** Fold over the payloads of every range overlapping [addr, addr+len),
    in address order; a payload carried by several ranges is passed once
    per range. Allocates nothing itself. *)

val cardinal : t -> int
(** Ranges held. *)
