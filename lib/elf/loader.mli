(** Loader: maps a SELF executable plus the transitive closure of its
    needed libraries, applying all dynamic relocations eagerly (GOT slots
    hold absolute libc addresses before the first instruction runs). *)

exception Load_error of string

type mapping = {
  map_vaddr : int64;
  map_data : bytes;  (** private copy, relocations applied *)
  map_prot : Self.prot;
  map_module : string;
  map_section : string;
  map_file : string;
  map_file_off : int;
}

type loaded_module = { lm_name : string; lm_base : int64; lm_self : Self.t }

type image = {
  img_entry : int64;
  img_modules : loaded_module list;
  img_mappings : mapping list;
}

val relocate :
  Self.t -> base:int64 -> mods:loaded_module list -> (string * bytes) list
(** Apply a module's dynamic relocations into fresh copies of its section
    data: [`Local sym] patches get base + st_value, [`Extern sym] get the
    symbol's absolute address in [mods]. Exposed because DynaCut's
    injector re-runs exactly this step (§3.3). *)

val map_module : loaded_module -> patched:(string * bytes) list -> mapping list

val load : libs:Self.t list -> Self.t -> image
(** Load an executable; [needed] libraries are looked up by name in
    [libs], transitively. *)
