(** Hash-consed dependency sets over dense block ids: bitsets of 63 ids
    per word with no trailing zero word, interned so that equal sets
    share one [int] [sid], with unions memoized on packed [sid] pairs. *)

let word_bits = 63

let mix h =
  let h = (h lxor (h lsr 29)) * 0x1f51afd7ed558ccd in
  h lxor (h lsr 32)

(* every word feeds the hash: sets that share their low words (the init
   blocks every set inherits) must still spread over the slots *)
let hash_bits (a : int array) =
  let h = ref (Array.length a) in
  for i = 0 to Array.length a - 1 do
    h := mix (!h + a.(i))
  done;
  !h land max_int

(* the same hash over the words of [a lor b], without building it; the
   longer operand's length, since both last words are nonzero *)
let hash_or (a : int array) (b : int array) =
  let n = max (Array.length a) (Array.length b) in
  let h = ref n in
  for i = 0 to n - 1 do
    let x = if i < Array.length a then a.(i) else 0 and y = if i < Array.length b then b.(i) else 0 in
    h := mix (!h + (x lor y))
  done;
  !h land max_int

type t = {
  mutable slots : int array;
      (** the interning table: open addressing over [hash_bits], each
          slot a [sid] or -1 *)
  mutable bits : int array array;  (** sid -> bits *)
  mutable nsets : int;
  unions : int Itbl.t;  (** packed [sid] pair -> union *)
  mutable singles : int array;  (** by id; [empty] = not built yet *)
}

let empty = 0

let count t = t.nsets

(* linear probing from slot [i]: the first slot whose set's words
   satisfy [same], or the first free one *)
let rec probe t same i =
  let s = t.slots.(i) in
  if s < 0 || same t.bits.(s) then i else probe t same ((i + 1) land (Array.length t.slots - 1))

(* store [sid] in the first free slot of its probe sequence *)
let place t sid =
  let i = probe t (fun _ -> false) (hash_bits t.bits.(sid) land (Array.length t.slots - 1)) in
  t.slots.(i) <- sid

let new_set t bits =
  let s = t.nsets in
  if s = Array.length t.bits then begin
    let bigger = Array.make (2 * s) [||] in
    Array.blit t.bits 0 bigger 0 s;
    t.bits <- bigger
  end;
  t.bits.(s) <- bits;
  t.nsets <- s + 1;
  (* at most half full *)
  if 2 * t.nsets > Array.length t.slots then begin
    let old = t.slots in
    t.slots <- Array.make (2 * Array.length old) (-1);
    Array.iter (fun s -> if s >= 0 then place t s) old
  end;
  place t s;
  s

let create () =
  let t =
    { slots = Array.make 2048 (-1); bits = Array.make 1024 [||]; nsets = 0; unions = Itbl.create 4096; singles = [||] }
  in
  ignore (new_set t [||] : int);
  t

(* the longer operand's length; both last words are nonzero, so the
   result has no trailing zero word either *)
let or_bits a b =
  let a, b = if Array.length a >= Array.length b then (a, b) else (b, a) in
  let out = Array.copy a in
  for i = 0 to Array.length b - 1 do
    out.(i) <- out.(i) lor b.(i)
  done;
  out

(* [c = a lor b], word by word *)
let is_or a b c =
  let n = Array.length c in
  n = max (Array.length a) (Array.length b)
  &&
  let rec go i =
    i = n
    || (let x = if i < Array.length a then a.(i) else 0 and y = if i < Array.length b then b.(i) else 0 in
        c.(i) = x lor y && go (i + 1))
  in
  go 0

(* [a ∪ b] interned: the union is built only when it is a new set *)
let intern_or t a b =
  let h = hash_or a b in
  let i = probe t (is_or a b) (h land (Array.length t.slots - 1)) in
  let s = t.slots.(i) in
  if s >= 0 then s else new_set t (or_bits a b)

let singleton t id =
  if id >= Array.length t.singles then begin
    let bigger = Array.make (max 64 (2 * (id + 1))) empty in
    Array.blit t.singles 0 bigger 0 (Array.length t.singles);
    t.singles <- bigger
  end;
  let s = t.singles.(id) in
  if s <> empty then s
  else begin
    let bits = Array.make ((id / word_bits) + 1) 0 in
    bits.(id / word_bits) <- 1 lsl (id mod word_bits);
    let s = intern_or t [||] bits in
    t.singles.(id) <- s;
    s
  end

let union t a b =
  if a = b || b = empty then a
  else if a = empty then b
  else begin
    (* sids stay below 2^31, so the unordered pair packs into one int *)
    let key = if a < b then (a lsl 31) lor b else (b lsl 31) lor a in
    match Itbl.find t.unions key with
    | s -> s
    | exception Not_found ->
        let s = intern_or t t.bits.(a) t.bits.(b) in
        Itbl.add t.unions key s;
        s
  end

let elements t s =
  let bits = t.bits.(s) in
  let acc = ref [] in
  for w = Array.length bits - 1 downto 0 do
    let x = bits.(w) in
    for b = word_bits - 1 downto 0 do
      if x land (1 lsl b) <> 0 then acc := ((w * word_bits) + b) :: !acc
    done
  done;
  !acc
