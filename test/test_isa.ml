(** Unit + property tests for the vx86 ISA: encode/decode roundtrip,
    lengths, int3 semantics, assembler layout. *)

let check = Alcotest.check
let int_t = Alcotest.int

(* -- generators -- *)

let gen_reg = QCheck.Gen.(map Reg.of_int (int_range 0 15))

let gen_cond =
  QCheck.Gen.(map Insn.cond_of_int (int_range 0 9))

let gen_insn : Insn.t QCheck.Gen.t =
  let open QCheck.Gen in
  let open Insn in
  let i32 = int_range (-0x8000_0000) 0x7fff_ffff in
  let sh = int_range 0 63 in
  oneof
    [
      return Nop;
      return Int3;
      return Hlt;
      return Ret;
      return Syscall;
      map2 (fun a b -> Mov_rr (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Mov_ri (a, b)) gen_reg (map Int64.of_int int);
      map3 (fun a b c -> Load (a, b, c)) gen_reg gen_reg i32;
      map3 (fun a b c -> Store (a, c, b)) gen_reg gen_reg i32;
      map3 (fun a b c -> Load8 (a, b, c)) gen_reg gen_reg i32;
      map3 (fun a b c -> Store8 (a, c, b)) gen_reg gen_reg i32;
      map2 (fun a b -> Add_rr (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Add_ri (a, b)) gen_reg i32;
      map2 (fun a b -> Sub_rr (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Sub_ri (a, b)) gen_reg i32;
      map2 (fun a b -> Imul_rr (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Idiv_rr (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Imod_rr (a, b)) gen_reg gen_reg;
      map2 (fun a b -> And_rr (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Or_rr (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Xor_rr (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Shl_ri (a, b)) gen_reg sh;
      map2 (fun a b -> Shr_ri (a, b)) gen_reg sh;
      map2 (fun a b -> Sar_ri (a, b)) gen_reg sh;
      map2 (fun a b -> Shl_rr (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Shr_rr (a, b)) gen_reg gen_reg;
      map (fun a -> Neg a) gen_reg;
      map (fun a -> Not a) gen_reg;
      map2 (fun a b -> Cmp_rr (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Cmp_ri (a, b)) gen_reg i32;
      map2 (fun a b -> Test_rr (a, b)) gen_reg gen_reg;
      map (fun d -> Jmp d) i32;
      map2 (fun c d -> Jcc (c, d)) gen_cond i32;
      map (fun d -> Call d) i32;
      map (fun r -> Call_r r) gen_reg;
      map (fun r -> Jmp_r r) gen_reg;
      map (fun r -> Push r) gen_reg;
      map (fun r -> Pop r) gen_reg;
      map2 (fun a b -> Lea (a, b)) gen_reg i32;
    ]

let arb_insn = QCheck.make ~print:Insn.to_string gen_insn

(* -- properties -- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:2000 arb_insn (fun i ->
      let b = Encode.to_bytes i in
      let i', len = Decode.decode_at b 0 in
      i' = i && len = Bytes.length b)

let prop_length =
  QCheck.Test.make ~name:"Insn.length matches encoding" ~count:2000 arb_insn
    (fun i -> Bytes.length (Encode.to_bytes i) = Insn.length i)

let prop_program_stream =
  QCheck.Test.make ~name:"instruction streams decode back"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) gen_insn))
    (fun insns ->
      let b = Encode.program insns in
      let decoded, bad = Decode.disassemble b in
      bad = None && List.map (fun (_, i, _) -> i) decoded = insns)

(* The shape scan agrees with the full decoder at any offset of
   arbitrary bytes: the same length, terminator and branch
   displacement, or the same exception. Half the inputs are a whole
   encoded instruction; the rest are short strings of bytes, biased
   toward real opcodes and small operand bytes so that invalid jcc
   conditions and truncations come up. *)
let prop_scan_matches_decode =
  let opcodes =
    List.map (fun i -> Bytes.get (Encode.to_bytes i) 0) Defuse.all_constructors
  in
  let gen =
    QCheck.Gen.(
      let byte = oneof [ char; map Char.chr (int_range 0 15) ] in
      pair
        (oneof
           [
             map Bytes.to_string (map Encode.to_bytes gen_insn);
             map2
               (fun op rest -> String.make 1 op ^ rest)
               (oneof [ char; oneofl opcodes ])
               (string_size ~gen:byte (int_range 0 11));
           ])
        (frequency [ (3, pure 0); (1, int_range 1 3) ]))
  in
  QCheck.Test.make ~name:"Decode.scan matches decode_at" ~count:20_000
    (QCheck.make ~print:(fun (s, pos) -> Printf.sprintf "%S at %d" s pos) gen)
    (fun (s, pos) ->
      let buf = Bytes.of_string s in
      let outcome f = match f () with v -> Ok v | exception e -> Error e in
      match (outcome (fun () -> Decode.decode_at buf pos), outcome (fun () -> Decode.scan buf pos)) with
      | Ok (insn, len), Ok shape ->
          let rel = match insn with Insn.Jmp r | Insn.Jcc (_, r) | Insn.Call r -> r | _ -> 0 in
          shape land 15 = len
          && (shape lsr 4) land 15 = Decode.term_code insn
          && shape asr 8 = rel
      | Error e, Error e' -> e = e'
      | _ -> false)

(* -- unit tests -- *)

(* A register's [to_int] is its index in [Reg.all], and [of_int] inverts
   it: the primitive [to_int] relies on the constructors' order. *)
let test_reg_representation () =
  check int_t "16 registers" 16 (List.length Reg.all);
  List.iteri
    (fun k r ->
      check int_t (Reg.name r ^ " index") k (Reg.to_int r);
      check Alcotest.bool (Reg.name r ^ " roundtrip") true (Reg.of_int (Reg.to_int r) = r))
    Reg.all

let test_int3_is_single_cc () =
  let b = Encode.to_bytes Insn.Int3 in
  check int_t "one byte" 1 (Bytes.length b);
  check int_t "0xCC" 0xCC (Char.code (Bytes.get b 0))

let test_nop_is_90 () =
  let b = Encode.to_bytes Insn.Nop in
  check int_t "0x90" 0x90 (Char.code (Bytes.get b 0))

let test_wiped_region_decodes_as_traps () =
  (* a region wiped with 0xCC must decode as int3 at EVERY offset —
     the property that stops jump-into-block-middle reuse *)
  let buf = Bytes.make 64 '\xCC' in
  for off = 0 to 63 do
    let insn, len = Decode.decode_at buf off in
    check Alcotest.bool "is int3" true (insn = Insn.Int3 && len = 1)
  done

let test_cond_negate_involutive () =
  List.iter
    (fun c ->
      let c = Insn.cond_of_int c in
      Alcotest.(check bool)
        "negate twice" true
        (Insn.cond_negate (Insn.cond_negate c) = c))
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

let test_asm_rel32_branch () =
  (* forward and backward jumps through the assembler+linker *)
  let items =
    [
      Asm.Label "a";
      Asm.Ins (Insn.Mov_ri (Reg.Rax, 1L));
      Asm.Jmp_sym "c";
      Asm.Label "b";
      Asm.Ins (Insn.Mov_ri (Reg.Rax, 2L));
      Asm.Label "c";
      Asm.Jmp_sym "b";
    ]
  in
  let obj = Asm.assemble ~name:"t" items in
  let self = Link.link_exec ~name:"t" ~entry:"a" ~libs:[] obj in
  let text =
    match Self.find_section self ".text" with Some s -> s.Self.sec_data | None -> assert false
  in
  let insns, bad = Decode.disassemble text in
  Alcotest.(check bool) "decodes" true (bad = None);
  (* mov(10) jmp(5) mov(10) jmp(5) *)
  match insns with
  | [ (_, Insn.Mov_ri _, _); (10, Insn.Jmp 10, _); (_, Insn.Mov_ri _, _); (25, Insn.Jmp (-15), _) ] ->
      ()
  | _ -> Alcotest.failf "unexpected layout: %d insns" (List.length insns)

let test_asm_duplicate_label_rejected () =
  Alcotest.check_raises "duplicate"
    (Asm.Asm_error "t: duplicate label x")
    (fun () ->
      ignore (Asm.assemble ~name:"t" [ Asm.Label "x"; Asm.Label "x" ]))

let test_asm_alignment_nop_fill () =
  let obj =
    Asm.assemble ~name:"t"
      [ Asm.Ins Insn.Ret; Asm.Align 16; Asm.Label "f"; Asm.Ins Insn.Ret ]
  in
  let text = List.assoc ".text" obj.Asm.o_sections in
  check int_t "aligned size" 17 (Bytes.length text);
  for i = 1 to 15 do
    check int_t "nop fill" 0x90 (Char.code (Bytes.get text i))
  done

let test_undefined_symbols () =
  let obj = Asm.assemble ~name:"t" [ Asm.Call_sym "write"; Asm.Ins Insn.Ret ] in
  Alcotest.(check (list string)) "externs" [ "write" ] (Asm.undefined_symbols obj)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_length;
    QCheck_alcotest.to_alcotest prop_program_stream;
    Alcotest.test_case "int3 is 1-byte 0xCC" `Quick test_int3_is_single_cc;
    Alcotest.test_case "nop is 0x90" `Quick test_nop_is_90;
    Alcotest.test_case "wiped region decodes as traps" `Quick test_wiped_region_decodes_as_traps;
    Alcotest.test_case "cond_negate involutive" `Quick test_cond_negate_involutive;
    Alcotest.test_case "assembler resolves rel32 branches" `Quick test_asm_rel32_branch;
    Alcotest.test_case "duplicate labels rejected" `Quick test_asm_duplicate_label_rejected;
    Alcotest.test_case "align pads code with nop" `Quick test_asm_alignment_nop_fill;
    Alcotest.test_case "undefined symbol listing" `Quick test_undefined_symbols;
    Alcotest.test_case "Reg.to_int is the index in Reg.all" `Quick test_reg_representation;
    QCheck_alcotest.to_alcotest prop_scan_matches_decode;
  ]
