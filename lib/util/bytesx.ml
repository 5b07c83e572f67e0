(** Little-endian byte-buffer writer and cursor reader.

    All multi-byte integers in the SELF object format and in the CRIU image
    format are little-endian, matching the x86-64 convention the paper's
    artifact targets. *)

exception Truncated of string
(** Raised by the reader when the input ends before a field is complete. *)

module W = struct
  type t = Buffer.t

  let create ?(size = 256) () : t = Buffer.create size
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let u16 b v =
    u8 b (v land 0xff);
    u8 b ((v lsr 8) land 0xff)

  let u32 b v =
    u16 b (v land 0xffff);
    u16 b ((v lsr 16) land 0xffff)

  let u64 b (v : int64) =
    u32 b (Int64.to_int (Int64.logand v 0xffffffffL));
    u32 b (Int64.to_int (Int64.logand (Int64.shift_right_logical v 32) 0xffffffffL))

  let int_as_u64 b v = u64 b (Int64.of_int v)
  let bytes b (s : bytes) = Buffer.add_bytes b s
  let string b s = Buffer.add_string b s

  (* Length-prefixed string: u32 length + raw bytes. *)
  let lstring b s =
    u32 b (String.length s);
    string b s

  let lbytes b s =
    u32 b (Bytes.length s);
    bytes b s

  let contents (b : t) = Buffer.contents b
  let to_bytes (b : t) = Buffer.to_bytes b
  let length (b : t) = Buffer.length b
end

module R = struct
  (* [lim] bounds the reader: no field may extend past it, so a reader
     over a sub-range never runs into the bytes after it *)
  type t = { data : string; mutable pos : int; lim : int }

  let of_sub data ~off ~len =
    if off < 0 || len < 0 || off > String.length data - len then invalid_arg "Bytesx.R.of_sub";
    { data; pos = off; lim = off + len }

  let of_string data = { data; pos = 0; lim = String.length data }
  let of_bytes data = of_string (Bytes.to_string data)
  let remaining r = r.lim - r.pos
  let pos r = r.pos
  let eof r = r.pos >= r.lim

  let check r n what =
    if remaining r < n then
      raise (Truncated (Printf.sprintf "%s: need %d bytes, have %d" what n (remaining r)))

  let u8 r =
    check r 1 "u8";
    let v = Char.code (String.unsafe_get r.data r.pos) in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    check r 2 "u16";
    let v = String.get_uint16_le r.data r.pos in
    r.pos <- r.pos + 2;
    v

  let u32 r =
    check r 4 "u32";
    let v = Int32.to_int (String.get_int32_le r.data r.pos) land 0xffff_ffff in
    r.pos <- r.pos + 4;
    v

  let u64 r =
    check r 8 "u64";
    let v = String.get_int64_le r.data r.pos in
    r.pos <- r.pos + 8;
    v

  let int_of_u64 r = Int64.to_int (u64 r)

  let take r n =
    check r n "take";
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let lstring r =
    let n = u32 r in
    take r n

  (* one copy, straight out of the input *)
  let lbytes r =
    let n = u32 r in
    check r n "take";
    let b = Bytes.sub (Bytes.unsafe_of_string r.data) r.pos n in
    r.pos <- r.pos + n;
    b
end

(* an 8-byte load with no bounds check, in the host's byte order *)
external get64u : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] word s i = if Sys.big_endian then bswap64 (get64u s i) else get64u s i

(** The one 64-bit checksum behind the image seal, the journal frames
    and the chaos digests, over [s.[off .. off+len-1]] ([len] defaults to
    the rest of [s]).

    The state starts from the length. Each 8-byte word from [off] (read
    little-endian, whatever the host) is xored in, multiplied by an odd
    constant and folded with an xorshift; the tail is taken byte-wise
    the same way, and a murmur3 finaliser avalanches the result. Every
    step is a bijection of the state for a fixed input, and a bijection
    of its input word for a fixed state, so two inputs of one length
    that differ only inside one 8-byte word (or one tail byte) always
    get different sums. The state lives in a local ref that ocamlopt
    keeps unboxed: hashing allocates nothing per word. *)
let checksum ?(off = 0) ?len (s : string) : int64 =
  let len = match len with Some n -> n | None -> String.length s - off in
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Bytesx.checksum";
  let h = ref (Int64.logxor 0xCBF29CE484222325L (Int64.of_int len)) in
  let words_end = off + (len land lnot 7) in
  let i = ref off in
  while !i < words_end do
    let x = Int64.mul (Int64.logxor !h (word s !i)) 0x9E3779B97F4A7C15L in
    h := Int64.logxor x (Int64.shift_right_logical x 32);
    i := !i + 8
  done;
  for j = words_end to off + len - 1 do
    let x =
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s j))))
        0xBF58476D1CE4E5B9L
    in
    h := Int64.logxor x (Int64.shift_right_logical x 32)
  done;
  let h = !h in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) 0xFF51AFD7ED558CCDL in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) 0xC4CEB9FE1A85EC53L in
  Int64.logxor h (Int64.shift_right_logical h 33)

(** The leaf sum of the page-granular image seal: {!checksum} of
    [s.[off .. off+len-1]] cut to a non-negative [int], so that a page
    record or an [int array] holds it unboxed and {!no_leaf} never
    collides with one. *)
let leaf ?off ?len (s : string) : int = Int64.to_int (checksum ?off ?len s) land max_int

(** No leaf sum: the bytes changed since their sum was taken, or it was
    never taken. *)
let no_leaf = -1

let hex_of_string (s : string) =
  let b = Buffer.create (String.length s * 2) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b
