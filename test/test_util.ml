(** Unit + property tests for the util substrate: byte codecs,
    s-expressions, tables, PRNG, stats. *)

(* ---------- Bytesx ---------- *)

let prop_u64_roundtrip =
  QCheck.Test.make ~name:"bytesx u64 roundtrip" ~count:500
    QCheck.(map Int64.of_int int)
    (fun v ->
      let b = Bytesx.W.create () in
      Bytesx.W.u64 b v;
      Bytesx.R.u64 (Bytesx.R.of_string (Bytesx.W.contents b)) = v)

let prop_lstring_roundtrip =
  QCheck.Test.make ~name:"bytesx lstring roundtrip" ~count:300 QCheck.string (fun s ->
      let b = Bytesx.W.create () in
      Bytesx.W.lstring b s;
      Bytesx.R.lstring (Bytesx.R.of_string (Bytesx.W.contents b)) = s)

let prop_mixed_fields =
  QCheck.Test.make ~name:"bytesx mixed field sequence" ~count:300
    QCheck.(triple small_nat string (map Int64.of_int int))
    (fun (a, s, v) ->
      let b = Bytesx.W.create () in
      Bytesx.W.u32 b a;
      Bytesx.W.lstring b s;
      Bytesx.W.u64 b v;
      Bytesx.W.u8 b 0xAB;
      let r = Bytesx.R.of_string (Bytesx.W.contents b) in
      Bytesx.R.u32 r = a land 0xffffffff
      && Bytesx.R.lstring r = s
      && Bytesx.R.u64 r = v
      && Bytesx.R.u8 r = 0xAB
      && Bytesx.R.eof r)

let test_truncated_raises () =
  let r = Bytesx.R.of_string "ab" in
  Alcotest.check_raises "u64 on 2 bytes"
    (Bytesx.Truncated "u8: need 1 bytes, have 0")
    (fun () ->
      ignore (Bytesx.R.u8 r);
      ignore (Bytesx.R.u8 r);
      ignore (Bytesx.R.u8 r))

(* a sub-range reader stops at the range's end, not the string's *)
let test_sub_reader_bounded () =
  let r = Bytesx.R.of_sub "xxabcdyy" ~off:2 ~len:4 in
  Alcotest.(check int) "remaining is the sub-range" 4 (Bytesx.R.remaining r);
  Alcotest.(check int) "u16 inside" (Char.code 'a' lor (Char.code 'b' lsl 8)) (Bytesx.R.u16 r);
  Alcotest.check_raises "u32 may not run into the bytes after the range"
    (Bytesx.Truncated "u32: need 4 bytes, have 2")
    (fun () -> ignore (Bytesx.R.u32 r));
  Alcotest.(check string) "take stops at the end" "cd" (Bytesx.R.take r 2);
  Alcotest.(check bool) "eof at the range's end" true (Bytesx.R.eof r);
  Alcotest.check_raises "range outside the string" (Invalid_argument "Bytesx.R.of_sub")
    (fun () -> ignore (Bytesx.R.of_sub "abc" ~off:2 ~len:2))

(* the known-answer inputs: lengths 0, 1, 7, 8, 9 and 4096 cover the
   empty input, a tail alone, whole words alone and words plus a tail *)
let page = String.init 4096 (fun i -> Char.chr ((i * 31) land 0xff))

(* Checksum known answers: the image seal and the journal frames are
   on-disk values, so the function may never drift *)
let test_checksum_vectors () =
  List.iter
    (fun (name, s, h) ->
      Alcotest.(check int64) (Printf.sprintf "checksum %s" name) h (Bytesx.checksum s))
    [
      ("\"\"", "", 0xefd01f60ba992926L);
      ("\"a\"", "a", 0x47ca0d3af47a141cL);
      ("\"abcdefg\"", "abcdefg", 0x63e757a65c37b036L);
      ("\"abcdefgh\"", "abcdefgh", 0x8ecf964df13e62f9L);
      ("\"abcdefghi\"", "abcdefghi", 0x11af41b91bd55e21L);
      ("page", page, 0xc792fc3492654032L);
    ];
  Alcotest.(check int64) "sub-range" (Bytesx.checksum "foobar")
    (Bytesx.checksum ~off:2 "__foobar");
  Alcotest.check_raises "range outside the string" (Invalid_argument "Bytesx.checksum")
    (fun () -> ignore (Bytesx.checksum ~off:4 ~len:3 "foobar"))

(* the plain formulation, kept as the reference: words assembled byte by
   byte, no unchecked loads, no sub-range *)
let checksum_reference (s : string) : int64 =
  let n = String.length s in
  let step h x k =
    let x = Int64.mul (Int64.logxor h x) k in
    Int64.logxor x (Int64.shift_right_logical x 32)
  in
  let byte i = Int64.of_int (Char.code s.[i]) in
  let word i =
    List.fold_left
      (fun w k -> Int64.logor w (Int64.shift_left (byte (i + k)) (8 * k)))
      0L
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let h = ref (Int64.logxor 0xCBF29CE484222325L (Int64.of_int n)) in
  for k = 0 to (n / 8) - 1 do
    h := step !h (word (8 * k)) 0x9E3779B97F4A7C15L
  done;
  for i = n / 8 * 8 to n - 1 do
    h := step !h (byte i) 0xBF58476D1CE4E5B9L
  done;
  let fold h = Int64.logxor h (Int64.shift_right_logical h 33) in
  fold (Int64.mul (fold (Int64.mul (fold !h) 0xFF51AFD7ED558CCDL)) 0xC4CEB9FE1A85EC53L)

let prop_checksum_matches_reference =
  QCheck.Test.make ~name:"checksum ~off ~len = reference on the sub-string" ~count:500
    QCheck.(triple string small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - off = 0 then 0 else b mod (n - off + 1) in
      Bytesx.checksum ~off ~len s = checksum_reference (String.sub s off len)
      && Bytesx.checksum s = checksum_reference s)

let flip_bit (s : string) (bit : int) : string =
  let b = Bytes.of_string s in
  Bytes.set b (bit / 8) (Char.chr (Char.code s.[bit / 8] lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

(* a change confined to one word or one tail byte is always caught: so
   every single-bit flip is, at every length up to five words *)
let test_checksum_single_bit_flips () =
  for n = 0 to 40 do
    let s = String.sub page 0 n in
    let h = Bytesx.checksum s in
    for bit = 0 to (8 * n) - 1 do
      if Bytesx.checksum (flip_bit s bit) = h then
        Alcotest.failf "flipping bit %d of a %d-byte payload went unseen" bit n
    done
  done

(* flipping bit 63 of two different words: a word-wise xor-then-multiply
   hash carries that difference unchanged through the multiply, so the
   second flip cancels the first; the xorshift after the multiply stops
   that *)
let test_checksum_bit63_pairs () =
  let s = String.sub page 0 64 in
  let h = Bytesx.checksum s in
  for i = 0 to 7 do
    for j = i + 1 to 7 do
      let t = flip_bit (flip_bit s ((64 * i) + 63)) ((64 * j) + 63) in
      if Bytesx.checksum t = h then Alcotest.failf "bit 63 of words %d and %d cancelled" i j
    done
  done

(* ---------- Sexpr ---------- *)

let gen_sexpr : Sexpr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let atom =
    map (fun s -> Sexpr.Atom s)
      (oneof
         [
           string_size ~gen:(char_range 'a' 'z') (int_range 1 8);
           return "with space";
           return "quo\"te";
           return "back\\slash";
           return "new\nline";
           map string_of_int int;
         ])
  in
  sized
    (fix (fun self n ->
         if n <= 0 then atom
         else
           frequency
             [
               (2, atom);
               (1, map (fun l -> Sexpr.List l) (list_size (int_range 0 4) (self (n / 2))));
             ]))

let prop_sexpr_roundtrip =
  QCheck.Test.make ~name:"sexpr print/parse roundtrip" ~count:500
    (QCheck.make ~print:Sexpr.to_string gen_sexpr)
    (fun sx -> Sexpr.of_string (Sexpr.to_string sx) = sx)

let test_sexpr_parse_comments () =
  let sx = Sexpr.of_string "; header\n(a ; inline\n b)" in
  Alcotest.(check bool) "parsed" true (sx = Sexpr.List [ Sexpr.Atom "a"; Sexpr.Atom "b" ])

let test_sexpr_get_field () =
  let sx = Sexpr.of_string "(rec (pid 42) (name web))" in
  Alcotest.(check int) "pid" 42 (Sexpr.as_int (Option.get (Sexpr.get_field "pid" sx)));
  Alcotest.(check string) "name" "web"
    (Sexpr.as_atom (Option.get (Sexpr.get_field "name" sx)));
  Alcotest.(check bool) "missing" true (Sexpr.get_field "nope" sx = None)

let test_sexpr_trailing_garbage () =
  Alcotest.check_raises "garbage" (Sexpr.Parse_error "trailing garbage") (fun () ->
      ignore (Sexpr.of_string "(a) b"))

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_i64 a) (Rng.next_i64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_seed_changes_stream () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different" true (Rng.next_i64 a <> Rng.next_i64 b)

(* ---------- Table ---------- *)

let test_table_render_alignment () =
  let t = Table.render ~headers:[ "name"; "value" ] [ [ "x"; "1" ]; [ "longer"; "22" ] ] in
  let lines = String.split_on_char '\n' t in
  let widths = List.map String.length (List.filter (fun l -> l <> "") lines) in
  match widths with
  | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "equal widths" w w') rest
  | [] -> Alcotest.fail "empty table"

(* Multi-byte UTF-8 text (Fig 6's [σ(ckpt)] header) pads by characters:
   every line, rules included, shows the same number of code points. *)
let test_table_render_utf8 () =
  let t =
    Table.render ~headers:[ "app"; "σ(ckpt)"; "ms" ]
      [ [ "ngx"; "0.125"; "µs" ]; [ "rkv"; "12.500"; "3" ] ]
  in
  let code_points l =
    String.fold_left (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1) 0 l
  in
  match List.filter (fun l -> l <> "") (String.split_on_char '\n' t) with
  | first :: rest ->
      List.iter
        (fun l -> Alcotest.(check int) ("display width of " ^ l) (code_points first) (code_points l))
        rest
  | [] -> Alcotest.fail "empty table"

let test_human_bytes () =
  Alcotest.(check string) "bytes" "512B" (Table.human_bytes 512);
  Alcotest.(check string) "kb" "2.5KB" (Table.human_bytes 2560);
  Alcotest.(check string) "mb" "2.00MB" (Table.human_bytes (2 * 1024 * 1024))

(* ---------- Stats ---------- *)

let test_stats_mean_stddev () =
  Alcotest.(check (float 1e-9)) "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "stddev" 1. (Stats.stddev [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "single" 0. (Stats.stddev [ 5. ]);
  Alcotest.(check (float 1e-9)) "empty mean" 0. (Stats.mean [])

let test_stats_percentile () =
  let xs = List.init 101 float_of_int in
  Alcotest.(check (float 1e-9)) "p50" 50. (Stats.percentile 50. xs);
  Alcotest.(check (float 1e-9)) "p0" 0. (Stats.percentile 0. xs);
  Alcotest.(check (float 1e-9)) "p99" 99. (Stats.percentile 99. xs);
  Alcotest.(check (float 1e-9)) "p100" 100. (Stats.percentile 100. xs)

(* pin the estimator itself: type-7 linear interpolation over the sorted
   sample, input order irrelevant, p clamped to [0,100], empty -> 0 *)
let test_stats_percentile_interp () =
  let xs = [ 40.; 10.; 30.; 20. ] in
  Alcotest.(check (float 1e-9)) "p50 interpolates" 25. (Stats.percentile 50. xs);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 17.5 (Stats.percentile 25. xs);
  Alcotest.(check (float 1e-9)) "p99 interpolates" 39.7 (Stats.percentile 99. xs);
  Alcotest.(check (float 1e-9)) "p<0 clamps" 10. (Stats.percentile (-5.) xs);
  Alcotest.(check (float 1e-9)) "p>100 clamps" 40. (Stats.percentile 200. xs);
  Alcotest.(check (float 1e-9)) "singleton" 7. (Stats.percentile 90. [ 7. ]);
  Alcotest.(check (float 1e-9)) "empty" 0. (Stats.percentile 50. [])

(* ---------- Itbl: the open-addressing int table vs Hashtbl ---------- *)

type itbl_op = Add of int * int | Find of int | Reset

(* keys that collide in their low bits (multiples of 2^32 and 2^54, the
   packed keys the slicer and the collector use), negative keys, the
   neighbours of the table's reserved empty marker [min_int], and enough
   distinct keys to force several doublings *)
let gen_itbl_ops : itbl_op list QCheck.Gen.t =
  let open QCheck.Gen in
  let key =
    oneof
      [
        int_range (-50) 50;
        map (fun k -> k lsl 32) (int_range (-40) 40);
        map (fun k -> k lsl 54) (int_range (-60) 60);
        oneofl [ max_int; min_int + 1; -1; 0 ];
        map (fun k -> if k = min_int then 0 else k) int;
      ]
  in
  list_size (int_range 0 600)
    (frequency
       [ (6, map2 (fun k v -> Add (k, v)) key small_nat); (4, map (fun k -> Find k) key); (1, return Reset) ])

let show_itbl_op = function
  | Add (k, v) -> Printf.sprintf "A(%d,%d)" k v
  | Find k -> Printf.sprintf "F%d" k
  | Reset -> "R"

(* After every op, [find] and [mem] agree with a [Hashtbl] driven with
   [replace]; at the end and after each reset, so does [fold] (as a
   sorted binding list). The reserved [min_int] is never found and
   cannot be added. *)
let prop_itbl_matches_hashtbl =
  QCheck.Test.make ~name:"itbl matches Hashtbl" ~count:300
    (QCheck.make ~print:(QCheck.Print.list show_itbl_op) gen_itbl_ops)
    (fun ops ->
      let t = Itbl.create 4 and h = Hashtbl.create 4 in
      let bindings () =
        (List.sort compare (Itbl.fold (fun k v acc -> (k, v) :: acc) t []),
         List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []))
      in
      let agree k =
        Itbl.mem t k = Hashtbl.mem h k
        && (match Itbl.find t k with v -> Hashtbl.find_opt h k = Some v | exception Not_found -> not (Hashtbl.mem h k))
      in
      List.for_all
        (fun op ->
          match op with
          | Add (k, v) ->
              Itbl.add t k v;
              Hashtbl.replace h k v;
              agree k
          | Find k -> agree k
          | Reset ->
              Itbl.reset t;
              Hashtbl.reset h;
              let a, b = bindings () in
              a = b && a = [])
        ops
      &&
      let a, b = bindings () in
      a = b
      && List.for_all (fun (k, _) -> agree k) a
      && (not (Itbl.mem t min_int))
      && match Itbl.add t min_int 0 with () -> false | exception Invalid_argument _ -> true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_u64_roundtrip;
    QCheck_alcotest.to_alcotest prop_lstring_roundtrip;
    QCheck_alcotest.to_alcotest prop_mixed_fields;
    Alcotest.test_case "truncated read raises" `Quick test_truncated_raises;
    Alcotest.test_case "sub-range reader is bounded" `Quick test_sub_reader_bounded;
    Alcotest.test_case "checksum known answers" `Quick test_checksum_vectors;
    QCheck_alcotest.to_alcotest prop_checksum_matches_reference;
    Alcotest.test_case "checksum catches every single-bit flip" `Quick
      test_checksum_single_bit_flips;
    Alcotest.test_case "checksum catches bit-63 pairs" `Quick test_checksum_bit63_pairs;
    QCheck_alcotest.to_alcotest prop_sexpr_roundtrip;
    Alcotest.test_case "sexpr comments" `Quick test_sexpr_parse_comments;
    Alcotest.test_case "sexpr get_field" `Quick test_sexpr_get_field;
    Alcotest.test_case "sexpr trailing garbage" `Quick test_sexpr_trailing_garbage;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_changes_stream;
    Alcotest.test_case "table alignment" `Quick test_table_render_alignment;
    Alcotest.test_case "human bytes" `Quick test_human_bytes;
    Alcotest.test_case "stats mean/stddev" `Quick test_stats_mean_stddev;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats percentile interpolation" `Quick
      test_stats_percentile_interp;
    Alcotest.test_case "table pads UTF-8 by characters" `Quick test_table_render_utf8;
    QCheck_alcotest.to_alcotest prop_itbl_matches_hashtbl;
  ]
