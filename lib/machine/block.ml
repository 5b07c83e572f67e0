(** A decoded basic block: the instructions from an entry point through
    the first block-ending instruction, pre-decoded once into an array of
    slots so dispatch never touches the variable-length byte stream
    again — the DynamoRIO-style "basic block cache" unit.

    Blocks are immutable except for the [b_dead] tombstone and the two
    successor links. [b_dead] is how precise invalidation composes with
    direct linking: eviction cannot chase every inbound link, so a linked
    transition re-validates its target with one boolean load instead. *)

type slot = {
  s_insn : Insn.t;
  s_len : int;  (** encoded byte length *)
  mutable s_fx : Defuse.effect option;
      (** the instruction's def/use summary, filled by the first hooked
          execution: an untraced run never computes it *)
}

(** The slot's def/use summary, computed once per decoded slot. *)
let effect s =
  match s.s_fx with
  | Some e -> e
  | None ->
      let e = Defuse.effect s.s_insn in
      s.s_fx <- Some e;
      e

type t = {
  b_start : int64;  (** entry vaddr *)
  b_size : int;  (** encoded size in bytes *)
  b_slots : slot array;
  b_pages : int64 array;  (** page indexes the encoding spans (1 or 2) *)
  mutable b_dead : bool;  (** evicted; linked predecessors must re-dispatch *)
  mutable b_s1 : t option;  (** direct-linked successors, most recent *)
  mutable b_s2 : t option;  (** first, and one victim slot *)
}

(** Block length cap: bounds decode latency and keeps invalidation local
    (a block can span at most two pages at the 10-byte max insn size). *)
let max_slots = 128

(** Decode the dynamic basic block entered at [start], ending at (and
    including) the first block-ending instruction. Returns [None] when
    the entry byte is an [Int3], unmapped, or undecodable — those must
    take the interpreter's trap path so saved rips, trap counters and
    signal frames stay identical to an uncached run. A mid-block [Int3]
    or decode failure ends the block *before* the offending byte: the
    next dispatch falls back and the interpreter owns the trap. *)
let decode (mem : Mem.t) (start : int64) : t option =
  let slots = ref [] in
  let nslots = ref 0 in
  let pos = ref start in
  let stop = ref false in
  let valid = ref true in
  while not !stop do
    match
      (* an instruction that cannot cross the page end decodes straight
         from the page's bytes: one page lookup instead of one per byte *)
      let off = Int64.to_int !pos land (Mem.page_size - 1) in
      if off <= Mem.page_size - Decode.max_insn_len then
        Decode.decode_at (Mem.exec_page mem !pos).Mem.pg_data off
      else Decode.decode (fun i -> Mem.fetch8 mem (Int64.add !pos (Int64.of_int i)))
    with
    | exception Mem.Fault (_, _) ->
        if !nslots = 0 then valid := false;
        stop := true
    | exception Decode.Invalid_opcode _ ->
        if !nslots = 0 then valid := false;
        stop := true
    | Insn.Int3, _ ->
        if !nslots = 0 then valid := false;
        stop := true
    | insn, len ->
        slots := { s_insn = insn; s_len = len; s_fx = None } :: !slots;
        incr nslots;
        pos := Int64.add !pos (Int64.of_int len);
        if Insn.is_block_end insn || !nslots >= max_slots then stop := true
  done;
  if not !valid then None
  else begin
    let size = Int64.to_int (Int64.sub !pos start) in
    let first = Mem.page_index start in
    let last = Mem.page_index (Int64.add start (Int64.of_int (size - 1))) in
    let npages = Int64.to_int (Int64.sub last first) + 1 in
    Some
      {
        b_start = start;
        b_size = size;
        b_slots = Array.of_list (List.rev !slots);
        b_pages = Array.init npages (fun i -> Int64.add first (Int64.of_int i));
        b_dead = false;
        b_s1 = None;
        b_s2 = None;
      }
  end
