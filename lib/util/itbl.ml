(** Hash tables keyed on [int]: open addressing with linear probing over
    a power-of-two key array, hashed by an inline multiply-xorshift. No
    functor, no polymorphic hashing or comparison and no C call, so a
    lookup is a few integer operations and array loads.

    [add] binds a key, replacing any earlier binding (its users add a
    key only after a failed lookup). [min_int] marks an empty slot, so
    it is reserved: [add] rejects it and [find] never finds it. Every
    user's keys are non-negative packed ints. *)

type 'a t = {
  initial : int;  (** slot count [create] chose; [reset] returns to it *)
  mutable keys : int array;  (** [empty] where no binding lives *)
  mutable vals : 'a array;  (** [||] until the first [add] *)
  mutable size : int;  (** bindings in [keys] *)
}

let empty = min_int

let create n =
  let cap = ref 16 in
  while !cap < n do
    cap := 2 * !cap
  done;
  { initial = !cap; keys = Array.make !cap empty; vals = [||]; size = 0 }

(* fold the high half down, spread with an odd multiplier, fold again:
   keys that differ only in high or only in low bits land apart *)
let[@inline] slot k mask =
  let h = (k lxor (k lsr 32)) * 0x2545f4914f6cdd1d in
  (h lxor (h lsr 29)) land mask

let find t k =
  if k = empty then raise Not_found
  else begin
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    let i = ref (slot k mask) in
    while
      let kk = Array.unsafe_get keys !i in
      kk <> k && kk <> empty
    do
      i := (!i + 1) land mask
    done;
    if Array.unsafe_get keys !i = k then Array.unsafe_get t.vals !i else raise Not_found
  end

let mem t k = match find t k with _ -> true | exception Not_found -> false

(* place a key known to be absent; the table has a free slot *)
let place keys vals k v =
  let mask = Array.length keys - 1 in
  let i = ref (slot k mask) in
  while Array.unsafe_get keys !i <> empty do
    i := (!i + 1) land mask
  done;
  Array.unsafe_set keys !i k;
  Array.unsafe_set vals !i v

let grow t v =
  let cap = 2 * Array.length t.keys in
  let keys = Array.make cap empty and vals = Array.make cap v in
  Array.iteri (fun i k -> if k <> empty then place keys vals k t.vals.(i)) t.keys;
  t.keys <- keys;
  t.vals <- vals

let add t k v =
  if k = empty then invalid_arg "Itbl.add: min_int is reserved"
  else begin
    if Array.length t.vals = 0 then t.vals <- Array.make (Array.length t.keys) v;
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    let i = ref (slot k mask) in
    while
      let kk = Array.unsafe_get keys !i in
      kk <> k && kk <> empty
    do
      i := (!i + 1) land mask
    done;
    if Array.unsafe_get keys !i = k then Array.unsafe_set t.vals !i v
    else begin
      (* at most half full, so probe runs stay short *)
      if 2 * (t.size + 1) > Array.length keys then begin
        grow t v;
        place t.keys t.vals k v
      end
      else begin
        Array.unsafe_set keys !i k;
        Array.unsafe_set t.vals !i v
      end;
      t.size <- t.size + 1
    end
  end

(** Empty the table and shrink it back to its initial size. *)
let reset t =
  t.keys <- Array.make t.initial empty;
  t.vals <- [||];
  t.size <- 0

(** Fold over every binding, in no particular order. *)
let fold f t init =
  let acc = ref init in
  Array.iteri (fun i k -> if k <> empty then acc := f k t.vals.(i) !acc) t.keys;
  !acc
