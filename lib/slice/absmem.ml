(** Abstract memory model for the dynamic slicer.

    Keys dynamic memory defs/uses by address ranges instead of bytes:
    a strong-update write of [(addr, len)] installs one range carrying
    its payload (splitting whatever it overlaps), and adjacent ranges
    with equal payloads coalesce, so the table size stays proportional
    to the number of distinct touched regions — not to the bytes
    touched. With hash-consed dependency sets as payloads (physical
    equality), a server writing a 4 KiB buffer in 512 8-byte stores of
    the same provenance collapses to a single range.

    Addresses and payloads are unboxed [int]s (the slicer's payloads are
    depset [sid]s, equal exactly when the sets are), held in three
    parallel arrays sorted by start and found by binary search: a read
    or an in-place write allocates nothing, and only a write that
    changes the number of ranges shifts the arrays' tails. *)

type t = {
  mutable los : int array;  (** range starts, increasing; disjoint ranges *)
  mutable lens : int array;
  mutable pays : int array;
  mutable n : int;  (** live ranges: indexes [0, n) of the arrays *)
}

let create () = { los = [||]; lens = [||]; pays = [||]; n = 0 }

let cardinal t = t.n

(* the index of the last range starting at or before [addr], or -1 *)
let last_le t addr =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get t.los mid <= addr then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(** Fold [f] over the payloads of every range overlapping
    [addr, addr+len), in address order. A payload carried by several
    ranges is passed once per range. *)
let fold t ~addr ~len f acc =
  let hi = addr + len in
  let i = last_le t addr in
  (* a range starting below [addr] overlaps only if it reaches past it *)
  let i = if i >= 0 && t.los.(i) + t.lens.(i) > addr then i else i + 1 in
  let acc = ref acc and i = ref i in
  while !i < t.n && Array.unsafe_get t.los !i < hi do
    acc := f !acc (Array.unsafe_get t.pays !i);
    incr i
  done;
  !acc

let move t i d =
  t.los.(i + d) <- t.los.(i);
  t.lens.(i + d) <- t.lens.(i);
  t.pays.(i + d) <- t.pays.(i)

(* Make the ranges [j, k) into [m] slots for the caller to fill, shifting
   the tail once. The tail is short where the traffic is (the stack sits
   above every other region), so it moves element by element rather
   than through three [Array.blit] calls into the runtime. *)
let reslot t j k m =
  let n' = t.n - (k - j) + m in
  if n' > Array.length t.los then begin
    let cap = max 16 (2 * n') in
    let grow a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.los <- grow t.los;
    t.lens <- grow t.lens;
    t.pays <- grow t.pays
  end;
  let d = j + m - k in
  if d > 0 then
    for i = t.n - 1 downto k do
      move t i d
    done
  else if d < 0 then
    for i = k to t.n - 1 do
      move t i d
    done;
  t.n <- n'

let set t i lo hi pay =
  t.los.(i) <- lo;
  t.lens.(i) <- hi - lo;
  t.pays.(i) <- pay

(** Strong update: [addr, addr+len) now carries exactly [pay].
    Overlapped ranges are split; equal-payload neighbours coalesce. *)
let write t ~addr ~len (pay : int) : unit =
  if len > 0 then begin
    let hi = addr + len in
    let i = last_le t addr in
    let covering = i >= 0 && t.los.(i) + t.lens.(i) >= hi in
    if covering && t.pays.(i) = pay then () (* already carries it *)
    else if covering && t.los.(i) = addr && t.lens.(i) = len
            && not (i > 0 && t.los.(i - 1) + t.lens.(i - 1) = addr && t.pays.(i - 1) = pay)
            && not (i + 1 < t.n && t.los.(i + 1) = hi && t.pays.(i + 1) = pay)
    then t.pays.(i) <- pay (* an exact hit that joins no neighbour *)
    else begin
      (* [j, k): the ranges the window overlaps *)
      let j = if i >= 0 && t.los.(i) + t.lens.(i) > addr then i else i + 1 in
      let k = ref j in
      while !k < t.n && t.los.(!k) < hi do
        incr k
      done;
      let k = !k in
      (* the new range's extent after absorbing an equal-payload left
         remainder or left neighbour, and likewise on the right *)
      let nlo = ref addr and nhi = ref hi and j' = ref j and k' = ref k in
      let left = ref false and right = ref false in
      if j < k && t.los.(j) < addr then begin
        if t.pays.(j) = pay then nlo := t.los.(j) else left := true
      end
      else if j > 0 && t.los.(j - 1) + t.lens.(j - 1) = addr && t.pays.(j - 1) = pay then begin
        nlo := t.los.(j - 1);
        j' := j - 1
      end;
      let last_hi = if j < k then t.los.(k - 1) + t.lens.(k - 1) else hi in
      if last_hi > hi then begin
        if t.pays.(k - 1) = pay then nhi := last_hi else right := true
      end
      else if k < t.n && t.los.(k) = hi && t.pays.(k) = pay then begin
        nhi := t.los.(k) + t.lens.(k);
        k' := k + 1
      end;
      (* read both remainders before the arrays shift *)
      let llo = if j < k then t.los.(j) else addr and lpay = if j < k then t.pays.(j) else pay in
      let rpay = if j < k then t.pays.(k - 1) else pay in
      let left = !left and right = !right in
      let m = 1 + Bool.to_int left + Bool.to_int right in
      reslot t !j' !k' m;
      if left then set t !j' llo addr lpay;
      let at = !j' + Bool.to_int left in
      set t at !nlo !nhi pay;
      if right then set t (at + 1) hi last_hi rpay
    end
  end
