(** Hash-consed dependency sets over dense block ids: bitsets of 63 ids
    per word with no trailing zero word, interned so equal sets are
    physically equal, with unions memoized on packed [sid] pairs. *)

type set = { sid : int; bits : int array }

let word_bits = 63

(* every word feeds the hash: sets that share their low words (the init
   blocks every set inherits) must still spread over the buckets *)
module Bits = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let mix h =
    let h = (h lxor (h lsr 29)) * 0x1f51afd7ed558ccd in
    h lxor (h lsr 32)

  let hash (a : int array) =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := mix (!h + a.(i))
    done;
    !h land max_int
end)

type t = {
  sets : set Bits.t;
  mutable nsets : int;
  unions : set Itbl.t;  (** packed [sid] pair -> union *)
  mutable singles : set array;  (** by id; [empty] = not built yet *)
  empty : set;
}

let create () =
  let empty = { sid = 0; bits = [||] } in
  let sets = Bits.create 1024 in
  Bits.add sets empty.bits empty;
  { sets; nsets = 1; unions = Itbl.create 4096; singles = [||]; empty }

let empty t = t.empty
let count t = t.nsets
let is_empty s = Array.length s.bits = 0

let intern t bits =
  match Bits.find t.sets bits with
  | s -> s
  | exception Not_found ->
      let s = { sid = t.nsets; bits } in
      t.nsets <- t.nsets + 1;
      Bits.add t.sets bits s;
      s

let singleton t id =
  if id >= Array.length t.singles then begin
    let bigger = Array.make (max 64 (2 * (id + 1))) t.empty in
    Array.blit t.singles 0 bigger 0 (Array.length t.singles);
    t.singles <- bigger
  end;
  let s = t.singles.(id) in
  if s != t.empty then s
  else begin
    let bits = Array.make ((id / word_bits) + 1) 0 in
    bits.(id / word_bits) <- 1 lsl (id mod word_bits);
    let s = intern t bits in
    t.singles.(id) <- s;
    s
  end

(* the longer operand's length; both last words are nonzero, so the
   result has no trailing zero word either *)
let or_bits a b =
  let a, b = if Array.length a >= Array.length b then (a, b) else (b, a) in
  let out = Array.copy a in
  for i = 0 to Array.length b - 1 do
    out.(i) <- out.(i) lor b.(i)
  done;
  out

let union t a b =
  if a == b || is_empty b then a
  else if is_empty a then b
  else begin
    (* sids stay below 2^31, so the unordered pair packs into one int *)
    let key =
      if a.sid < b.sid then (a.sid lsl 31) lor b.sid
      else (b.sid lsl 31) lor a.sid
    in
    match Itbl.find t.unions key with
    | s -> s
    | exception Not_found ->
        let s = intern t (or_bits a.bits b.bits) in
        Itbl.add t.unions key s;
        s
  end

let elements s =
  let acc = ref [] in
  for w = Array.length s.bits - 1 downto 0 do
    let x = s.bits.(w) in
    for b = word_bits - 1 downto 0 do
      if x land (1 lsl b) <> 0 then acc := ((w * word_bits) + b) :: !acc
    done
  done;
  !acc
