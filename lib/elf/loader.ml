(** Loader: maps a SELF executable and its needed libraries into a flat
    list of memory mappings with permissions, applying all dynamic
    relocations eagerly (GOT slots get the absolute addresses of their
    libc targets before the process starts — the binding model the
    paper's PLT analysis assumes).

    The loader is pure: it returns the mappings; the machine materializes
    them into an address space. This is also the TCB component the paper's
    threat model trusts (§2). *)

exception Load_error of string

type mapping = {
  map_vaddr : int64;
  map_data : bytes;  (** private copy, relocations already applied *)
  map_prot : Self.prot;
  map_module : string;
  map_section : string;
  map_file : string;  (** backing file path, for file-backed VMAs *)
  map_file_off : int;  (** section offset within the module image *)
}

type loaded_module = { lm_name : string; lm_base : int64; lm_self : Self.t }

type image = {
  img_entry : int64;
  img_modules : loaded_module list;
  img_mappings : mapping list;
}

(** Absolute address of a global symbol across all loaded modules. *)
let resolve_global (mods : loaded_module list) (sym : string) : int64 option =
  List.find_map
    (fun m ->
      match Self.find_symbol m.lm_self sym with
      | Some s when s.sym_global -> Some (Int64.add m.lm_base (Int64.of_int s.sym_off))
      | _ -> None)
    mods

(** Apply [self]'s dynamic relocations into fresh copies of its section
    data, given its own base and the full module list. Returns the patched
    per-section bytes. Exposed because DynaCut's injector re-runs exactly
    this step when inserting a library into a checkpoint image (§3.3). *)
let relocate (self : Self.t) ~(base : int64) ~(mods : loaded_module list) :
    (string * bytes) list =
  let datas =
    List.map (fun (s : Self.section) -> (s.sec_name, Bytes.copy s.sec_data)) self.sections
  in
  List.iter
    (fun (r : Self.dynreloc) ->
      let value =
        match r.dr_target with
        | `Local sym -> (
            match Self.find_symbol self sym with
            | Some s -> Int64.add base (Int64.of_int (s.sym_off + r.dr_addend))
            | None ->
                raise (Load_error (Printf.sprintf "%s: local reloc to unknown %s" self.name sym)))
        | `Extern sym -> (
            match resolve_global mods sym with
            | Some a -> Int64.add a (Int64.of_int r.dr_addend)
            | None ->
                raise (Load_error (Printf.sprintf "%s: unresolved symbol %s" self.name sym)))
      in
      match Self.section_containing self r.dr_off with
      | None ->
          raise
            (Load_error (Printf.sprintf "%s: reloc offset 0x%x outside sections" self.name r.dr_off))
      | Some sec ->
          Bytes.set_int64_le (List.assoc sec.sec_name datas) (r.dr_off - sec.sec_off) value)
    self.dynrelocs;
  datas

let map_module (m : loaded_module) ~(patched : (string * bytes) list) : mapping list =
  List.map
    (fun (s : Self.section) ->
      {
        map_vaddr = Int64.add m.lm_base (Int64.of_int s.sec_off);
        map_data = List.assoc s.sec_name patched;
        map_prot = s.sec_prot;
        map_module = m.lm_name;
        map_section = s.sec_name;
        map_file = m.lm_self.name;
        map_file_off = s.sec_off;
      })
    m.lm_self.sections

(** Load [exe] plus the transitive closure of its needed libraries (looked
    up by name in [libs]). *)
let load ~(libs : Self.t list) (exe : Self.t) : image =
  if exe.kind <> Self.Exec then raise (Load_error (exe.name ^ ": not an executable"));
  (* transitive closure of needed libs, in load order *)
  let rec close acc = function
    | [] -> List.rev acc
    | n :: rest ->
        if List.exists (fun (l : Self.t) -> l.name = n) acc then close acc rest
        else (
          match List.find_opt (fun (l : Self.t) -> l.name = n) libs with
          | None -> raise (Load_error ("needed library not found: " ^ n))
          | Some l -> close (l :: acc) (rest @ l.needed))
  in
  let needed = close [] exe.needed in
  let mods =
    { lm_name = exe.name; lm_base = exe.base; lm_self = exe }
    :: List.mapi
         (fun i (l : Self.t) ->
           {
             lm_name = l.name;
             (* libraries load from 0x7f00_0000_0000, 256 MiB apart *)
             lm_base =
               Int64.add 0x7f00_0000_0000L (Int64.mul (Int64.of_int i) 0x1000_0000L);
             lm_self = l;
           })
         needed
  in
  let mappings =
    List.concat_map
      (fun m ->
        let patched = relocate m.lm_self ~base:m.lm_base ~mods in
        map_module m ~patched)
      mods
  in
  {
    img_entry = Int64.add exe.base (Int64.of_int exe.entry);
    img_modules = mods;
    img_mappings = mappings;
  }
