(** Hash tables keyed on [int], with no polymorphic hashing or
    comparison: one functor instance shared by every int-keyed table. *)

include Hashtbl.Make (Int)
