(** Abstract memory for the dynamic slicer: payloads keyed by address
    ranges with strong-update writes, range splitting, and coalescing of
    adjacent equal-payload ranges — table size proportional to distinct
    touched regions, not bytes. Addresses and payloads are unboxed
    [int]s; adjacent ranges coalesce when their payloads are equal. *)

type t

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
