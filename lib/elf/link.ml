(** Linker: {!Asm.obj} objects to SELF executables and shared objects.

    - Section layout: each section of the object is placed at the next
      page-aligned module-relative offset in object order, so permissions
      can differ per VMA. Intra-module [Rel32] relocations are resolved
      here (rip-relative distances inside a module are position
      independent, which is what makes [Dyn] objects injectable anywhere).
    - Calls to symbols not defined in the object are routed through
      generated [.plt] stubs with one [.got] slot each; the GOT slot gets a
      dynamic relocation the loader (or DynaCut's injector) patches with
      the absolute address of the symbol in a needed library — eager
      binding, as the paper's GOT-patching description assumes.
    - [Abs64] relocations against local symbols are resolved statically in
      executables (fixed base) and become [`Local] dynamic relocations in
      shared objects — the "global data relocations" DynaCut re-applies
      when injecting its handler library (§3.3). *)

exception Link_error of string

let default_exec_base = 0x400000L

(* One PLT stub: lea r11, [rip+disp-to-got]; mov r11,[r11]; jmp r11 *)
let plt_stub_size = 6 + 7 + 2
let plt_entry_align = 16

type layout = { sec_offsets : (string * int) list; total : int }

let lay_out_sections (secs : (string * bytes) list) : layout =
  let off = ref 0 in
  let placed =
    List.map
      (fun (name, data) ->
        let o = !off in
        off := Self.page_align (o + max 1 (Bytes.length data));
        (name, o))
      secs
  in
  { sec_offsets = placed; total = !off }

let section_prot = function
  | ".text" | ".plt" -> Self.prot_rx
  | ".rodata" -> Self.prot_ro
  | _ -> Self.prot_rw

let sym_of_asm ~(lookup_off : string -> int -> int) (s : Asm.symbol) : Self.sym =
  {
    Self.sym_name = s.s_name;
    sym_off = lookup_off s.s_section s.s_offset;
    sym_size = 0;
    sym_kind = (match s.s_kind with `Func -> Self.Func | `Object -> Self.Object);
    sym_global = s.s_global;
  }

(** Common linking core. [libs] supplies resolvable extern symbols; extern
    *calls* become PLT entries; any other extern reference is an error. *)
let link ~(kind : Self.kind) ~name ~entry_symbol ?(base = default_exec_base)
    ?(libs : Self.t list = []) (obj : Asm.obj) : Self.t =
  let externs = Asm.undefined_symbols obj in
  let lib_of_sym =
    List.filter_map
      (fun e ->
        match
          List.find_opt
            (fun (l : Self.t) ->
              match Self.find_symbol l e with
              | Some s -> s.sym_global
              | None -> false)
            libs
        with
        | Some l -> Some (e, l.Self.name)
        | None -> None)
      externs
  in
  (match List.filter (fun e -> not (List.mem_assoc e lib_of_sym)) externs with
  | [] -> ()
  | missing ->
      raise
        (Link_error
           (Printf.sprintf "%s: undefined symbols: %s" name (String.concat ", " missing))));
  (* Build .plt and .got sections if needed *)
  let plt_needed = externs <> [] in
  let plt_map = List.mapi (fun i e -> (e, i * plt_entry_align)) externs in
  let got_map = List.mapi (fun i e -> (e, i * 8)) externs in
  let sections_raw =
    obj.o_sections
    @ (if plt_needed then
         [ (* nop-fill so linear disassembly over stub padding stays valid *)
           (".plt", Bytes.make (List.length externs * plt_entry_align) '\x90');
           (".got", Bytes.make (List.length externs * 8) '\000') ]
       else [])
  in
  let layout = lay_out_sections sections_raw in
  let sec_off s =
    match List.assoc_opt s layout.sec_offsets with
    | Some o -> o
    | None -> raise (Link_error (Printf.sprintf "%s: unknown section %s" name s))
  in
  (* mutable copies of section data for patching *)
  let data =
    List.map (fun (n, d) -> (n, Bytes.copy d)) sections_raw
  in
  let sec_data s = List.assoc s data in
  let write_i32 sec off v =
    Bytes.set_int32_le (sec_data sec) off (Int32.of_int v)
  in
  let write_i64 sec off (v : int64) = Bytes.set_int64_le (sec_data sec) off v in
  (* fill PLT stubs *)
  if plt_needed then begin
    let plt_base = sec_off ".plt" and got_base = sec_off ".got" in
    List.iter2
      (fun (_, stub_off) (_, slot) ->
        let got_slot = got_base + slot in
        let insns_at = plt_base + stub_off in
        let stub =
          Encode.program
            [
              Insn.Lea (Reg.R11, got_slot - (insns_at + 6));
              Insn.Load (Reg.R11, Reg.R11, 0);
              Insn.Jmp_r Reg.R11;
            ]
        in
        Bytes.blit stub 0 (sec_data ".plt") stub_off (Bytes.length stub))
      plt_map got_map
  end;
  (* symbol resolution: module-relative offset of any local symbol (the
     first definition of a repeated name wins) or else its PLT stub *)
  let targets = Hashtbl.create 256 in
  let define sym off = if not (Hashtbl.mem targets sym) then Hashtbl.add targets sym off in
  List.iter
    (fun (s : Asm.symbol) -> define s.s_name (sec_off s.s_section + s.s_offset))
    obj.o_symbols;
  List.iter (fun (e, stub_off) -> define e (sec_off ".plt" + stub_off)) plt_map;
  let resolve sym = Hashtbl.find_opt targets sym in
  (* apply relocations *)
  let dynrelocs = ref [] in
  List.iter
    (fun (r : Asm.reloc) ->
      let field_mod_off = sec_off r.r_section + r.r_offset in
      match (r.r_kind, resolve r.r_symbol) with
      | Asm.Rel32 next, Some target_off ->
          let next_mod_off = sec_off r.r_section + next in
          write_i32 r.r_section r.r_offset (target_off + r.r_addend - next_mod_off)
      | Asm.Rel32 _, None ->
          raise
            (Link_error
               (Printf.sprintf "%s: pc-relative reference to extern data %s" name r.r_symbol))
      | Asm.Abs64, Some target_off ->
          (match kind with
          | Self.Exec ->
              write_i64 r.r_section r.r_offset
                (Int64.add base (Int64.of_int (target_off + r.r_addend)))
          | Self.Dyn ->
              dynrelocs :=
                { Self.dr_off = field_mod_off; dr_target = `Local r.r_symbol; dr_addend = r.r_addend }
                :: !dynrelocs)
      | Asm.Abs64, None ->
          dynrelocs :=
            { Self.dr_off = field_mod_off; dr_target = `Extern r.r_symbol; dr_addend = r.r_addend }
            :: !dynrelocs)
    obj.o_relocs;
  (* GOT slots for extern calls *)
  List.iter
    (fun (e, slot) ->
      dynrelocs :=
        { Self.dr_off = sec_off ".got" + slot; dr_target = `Extern e; dr_addend = 0 }
        :: !dynrelocs)
    got_map;
  let symbols =
    List.map
      (fun (s : Asm.symbol) ->
        sym_of_asm ~lookup_off:(fun sec off -> sec_off sec + off) s)
      obj.o_symbols
  in
  let entry =
    match entry_symbol with
    | None -> 0
    | Some e -> (
        match resolve e with
        | Some off -> off
        | None -> raise (Link_error (Printf.sprintf "%s: entry symbol %s undefined" name e)))
  in
  let needed =
    lib_of_sym |> List.map snd |> List.sort_uniq compare
  in
  {
    Self.name;
    kind;
    entry;
    base = (match kind with Self.Exec -> base | Self.Dyn -> 0L);
    sections =
      List.map
        (fun (n, d) ->
          { Self.sec_name = n; sec_off = sec_off n; sec_data = d; sec_prot = section_prot n })
        data;
    symbols;
    dynrelocs = List.rev !dynrelocs;
    needed;
    plt = List.map (fun (e, o) -> (e, sec_off ".plt" + o)) plt_map;
    got = List.map (fun (e, o) -> (e, sec_off ".got" + o)) got_map;
  }

let link_exec ?(base = default_exec_base) ~name ~entry ~libs obj : Self.t =
  link ~kind:Self.Exec ~name ~entry_symbol:(Some entry) ~base ~libs obj

let link_shared ~name ?(libs = []) obj : Self.t =
  (* shared objects may reference libc functions through their GOT *)
  link ~kind:Self.Dyn ~name ~entry_symbol:None ~libs obj
