(** Two-pass assembler: symbolic items to section bytes + symbols + relocs.

    The assembler never resolves a symbol itself — every symbolic reference
    becomes a relocation, and the linker ({!Dynacut_elf.Link}) resolves them
    once section layout is known. This mirrors how real toolchains split the
    work, and it is what lets DynaCut later re-do "global data relocations
    and PLT relocations" on an *injected* library (paper §3.3). *)

type reloc_kind =
  | Rel32 of int
      (** pc-relative 32-bit field; payload is the section offset of the
          *next* instruction (branch displacements are relative to it). *)
  | Abs64  (** absolute 64-bit address of the symbol. *)

type reloc = {
  r_section : string;
  r_offset : int;  (** offset of the 4- or 8-byte field within the section *)
  r_kind : reloc_kind;
  r_symbol : string;
  r_addend : int;
}

type symbol = {
  s_name : string;
  s_section : string;
  s_offset : int;
  s_global : bool;
  s_kind : [ `Func | `Object ];
}

type obj = {
  o_name : string;
  o_sections : (string * bytes) list;  (** in layout order *)
  o_symbols : symbol list;
  o_relocs : reloc list;
  o_bss_size : int;
}

(** Assembly items. A [*_sym] item references a symbol that may live in any
    section of any module; the linker resolves it. *)
type item =
  | Ins of Insn.t
  | Jmp_sym of string
  | Jcc_sym of Insn.cond * string
  | Call_sym of string
      (** direct call; if the symbol is extern, the linker routes it
          through a PLT stub *)
  | Lea_sym of Reg.t * string * int
      (** dst <- address of symbol + addend (rip-relative, PIC-safe) *)
  | Mov_sym_abs of Reg.t * string * int
      (** dst <- 64-bit absolute address (rejected in shared objects) *)
  | Label of string
  | Global of string
  | Byte of int
  | Word64 of int64
  | Str of string  (** raw bytes, no terminator *)
  | Strz of string  (** NUL-terminated string *)
  | Zeros of int
  | Addr64 of string * int  (** data word holding address of symbol+addend *)
  | Align of int
  | Section of string
  | Comment of string

exception Asm_error of string

let item_size = function
  | Ins i -> Insn.length i
  | Jmp_sym _ -> 5
  | Jcc_sym _ -> 6
  | Call_sym _ -> 5
  | Lea_sym _ -> 6
  | Mov_sym_abs _ -> 10
  | Label _ | Global _ | Section _ | Comment _ -> 0
  | Byte _ -> 1
  | Word64 _ -> 8
  | Str s -> String.length s
  | Strz s -> String.length s + 1
  | Zeros n -> n
  | Addr64 _ -> 8
  | Align _ -> -1 (* depends on position *)

(** Assemble [items] into an object named [name].

    Section order is the order of first appearance; items before any
    [Section] directive land in [".text"]. *)
let assemble ~name (items : item list) : obj =
  (* pass 1: offsets and symbols; the current section's offset cell is
     held in [off], so only a [Section] directive hashes a name *)
  let offsets : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let section_order = ref [] in
  let offset_of s =
    match Hashtbl.find_opt offsets s with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add offsets s r;
        section_order := s :: !section_order;
        r
  in
  let cur = ref ".text" in
  let off = ref (offset_of ".text") in
  let symbols = ref [] in
  let labels = Hashtbl.create 64 in
  let globals = Hashtbl.create 8 in
  let bump n = !off := !(!off) + n in
  List.iter
    (fun item ->
      match item with
      | Section s ->
          cur := s;
          off := offset_of s
      | Label l ->
          if Hashtbl.mem labels l then
            raise (Asm_error (Printf.sprintf "%s: duplicate label %s" name l));
          Hashtbl.add labels l ();
          symbols :=
            {
              s_name = l;
              s_section = !cur;
              s_offset = !(!off);
              s_global = false;
              s_kind = (if !cur = ".text" then `Func else `Object);
            }
            :: !symbols
      | Global g -> Hashtbl.replace globals g ()
      | Align n ->
          let o = !(!off) in
          let pad = (n - (o mod n)) mod n in
          bump pad
      | Comment _ -> ()
      | it -> bump (item_size it))
    items;
  (* pass 2: emit into the current section's buffer, held in [cur_buf] *)
  let buffers : (string, Bytesx.W.t) Hashtbl.t = Hashtbl.create 8 in
  let buf s =
    match Hashtbl.find_opt buffers s with
    | Some b -> b
    | None ->
        let b = Bytesx.W.create () in
        Hashtbl.add buffers s b;
        b
  in
  let relocs = ref [] in
  let cur = ref ".text" in
  let cur_buf = ref (buf ".text") in
  let add_reloc ~offset ~kind ~sym ~addend =
    relocs :=
      { r_section = !cur; r_offset = offset; r_kind = kind; r_symbol = sym; r_addend = addend }
      :: !relocs
  in
  List.iter
    (fun item ->
      let b = !cur_buf in
      let o = Bytesx.W.length b in
      match item with
      | Section s ->
          cur := s;
          cur_buf := buf s
      | Label _ | Global _ | Comment _ -> ()
      | Align n ->
          let pad = (n - (o mod n)) mod n in
          (* pad code sections with nop so linear disassembly stays valid *)
          let fill = if !cur = ".text" || !cur = ".plt" then 0x90 else 0x00 in
          for _ = 1 to pad do
            Bytesx.W.u8 b fill
          done
      | Ins i -> Encode.emit b i
      | Jmp_sym s ->
          add_reloc ~offset:(o + 1) ~kind:(Rel32 (o + 5)) ~sym:s ~addend:0;
          Encode.emit b (Insn.Jmp 0)
      | Jcc_sym (c, s) ->
          add_reloc ~offset:(o + 2) ~kind:(Rel32 (o + 6)) ~sym:s ~addend:0;
          Encode.emit b (Insn.Jcc (c, 0))
      | Call_sym s ->
          add_reloc ~offset:(o + 1) ~kind:(Rel32 (o + 5)) ~sym:s ~addend:0;
          Encode.emit b (Insn.Call 0)
      | Lea_sym (r, s, a) ->
          add_reloc ~offset:(o + 2) ~kind:(Rel32 (o + 6)) ~sym:s ~addend:a;
          Encode.emit b (Insn.Lea (r, 0))
      | Mov_sym_abs (r, s, a) ->
          add_reloc ~offset:(o + 2) ~kind:Abs64 ~sym:s ~addend:a;
          Encode.emit b (Insn.Mov_ri (r, 0L))
      | Byte v -> Bytesx.W.u8 b (v land 0xff)
      | Word64 v -> Bytesx.W.u64 b v
      | Str s -> Bytesx.W.string b s
      | Strz s ->
          Bytesx.W.string b s;
          Bytesx.W.u8 b 0
      | Zeros n ->
          for _ = 1 to n do
            Bytesx.W.u8 b 0
          done
      | Addr64 (s, a) ->
          add_reloc ~offset:o ~kind:Abs64 ~sym:s ~addend:a;
          Bytesx.W.u64 b 0L)
    items;
  let symbols =
    List.rev_map
      (fun s -> { s with s_global = Hashtbl.mem globals s.s_name })
      !symbols
  in
  let sections =
    List.rev_map (fun s -> (s, Bytesx.W.to_bytes (buf s))) !section_order
  in
  (* sanity: pass-1 sizes must match pass-2 emission *)
  List.iter
    (fun (s, b) ->
      let want = !(Hashtbl.find offsets s) in
      if Bytes.length b <> want then
        raise
          (Asm_error
             (Printf.sprintf "%s: section %s size mismatch pass1=%d pass2=%d" name s want
                (Bytes.length b))))
    sections;
  { o_name = name; o_sections = sections; o_symbols = symbols; o_relocs = List.rev !relocs; o_bss_size = 0 }

let find_symbol obj n = List.find_opt (fun s -> s.s_name = n) obj.o_symbols

(** All symbols referenced by relocations but not defined in the object —
    the linker must resolve these against dependencies (e.g. libc.so). *)
let undefined_symbols obj =
  let defined = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace defined s.s_name ()) obj.o_symbols;
  obj.o_relocs
  |> List.filter_map (fun r ->
         if Hashtbl.mem defined r.r_symbol then None else Some r.r_symbol)
  |> List.sort_uniq compare
