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
  mutable s_flat : Defuse.flat;
      (** the instruction's def/use summary, {!unsummarized} until the
          first traced execution fills it: an untraced run never
          computes it *)
}

let unsummarized = Defuse.flat (Defuse.effect Insn.Nop)

(** The slot's def/use summary, computed once per decoded slot. *)
let summary s =
  if s.s_flat != unsummarized then s.s_flat
  else begin
    let f = Defuse.flat (Defuse.effect s.s_insn) in
    s.s_flat <- f;
    f
  end

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

(* The bytes of an instruction that may cross a page end, copied one
   checked fetch at a time. *)
let fetch_buf = Bytes.create Decode.max_insn_len

(** The instruction at [addr], fetched with execute permission. Raises
    [Mem.Fault] when a byte it needs cannot be fetched and
    [Decode.Invalid_opcode] when the bytes do not decode. An
    instruction that cannot cross the page end decodes straight from
    the page's bytes. One that can is copied first: its opcode byte,
    then the rest of the length the opcode gives, up to the first byte
    that faults, and it faults only if the decoder needs that byte. No
    byte past the instruction is fetched, so no page it does not reach
    is made. *)
let fetch_insn (mem : Mem.t) (addr : int64) =
  let off = Int64.to_int addr land (Mem.page_size - 1) in
  if off <= Mem.page_size - Decode.max_insn_len then
    Decode.decode_in (Mem.exec_page mem addr).Mem.pg_data off Mem.page_size
  else begin
    let op = Mem.fetch8 mem addr in
    Bytes.set fetch_buf 0 (Char.chr op);
    let len = max 1 (Decode.opcode_length op) in
    let n = ref 1 and fault = ref Not_found in
    (try
       while !n < len do
         Bytes.set fetch_buf !n (Char.chr (Mem.fetch8 mem (Int64.add addr (Int64.of_int !n))));
         incr n
       done
     with Mem.Fault _ as e -> fault := e);
    match Decode.decode_in fetch_buf 0 !n with
    | insn -> insn
    | exception Decode.Truncated_insn -> raise !fault
  end

let no_slot = { s_insn = Insn.Nop; s_len = 1; s_flat = unsummarized }

(** A buffer for the slots of the block being decoded, one per
    dispatcher: {!decode} copies them out and clears what it used. *)
let scratch () = Array.make max_slots no_slot

(** Decode the dynamic basic block entered at [start], ending at (and
    including) the first block-ending instruction. Returns [None] when
    the entry byte is an [Int3], unmapped, or undecodable — those must
    take the interpreter's trap path so saved rips, trap counters and
    signal frames stay identical to an uncached run. A mid-block [Int3]
    or decode failure ends the block *before* the offending byte: the
    next dispatch falls back and the interpreter owns the trap. The
    block spans at most two pages; an instruction inside one of them
    decodes from that page's bytes at an [int] offset, so a slot costs
    its instruction and its record. [scratch] holds the slots until
    they are copied out. *)
let decode scratch (mem : Mem.t) (start : int64) : t option =
  let base = Int64.to_int start land (Mem.page_size - 1) in
  let page0 = ref Mem.no_page and page1 = ref Mem.no_page in
  let n = ref 0 and size = ref 0 and stop = ref false in
  while not !stop do
    let off = base + !size in
    match
      if off <= Mem.page_size - Decode.max_insn_len then begin
        if !page0 == Mem.no_page then page0 := Mem.exec_page mem start;
        Decode.decode_in !page0.Mem.pg_data off Mem.page_size
      end
      else if off >= Mem.page_size && off <= (2 * Mem.page_size) - Decode.max_insn_len then begin
        if !page1 == Mem.no_page then
          page1 := Mem.exec_page mem (Int64.add start (Int64.of_int !size));
        Decode.decode_in !page1.Mem.pg_data (off - Mem.page_size) Mem.page_size
      end
      else fetch_insn mem (Int64.add start (Int64.of_int !size))
    with
    | exception (Mem.Fault _ | Decode.Invalid_opcode _) -> stop := true
    | Insn.Int3 -> stop := true
    | insn ->
        let len = Insn.length insn in
        scratch.(!n) <- { s_insn = insn; s_len = len; s_flat = unsummarized };
        incr n;
        size := !size + len;
        if Insn.is_block_end insn || !n >= max_slots then stop := true
  done;
  if !n = 0 then None
  else begin
    let slots = Array.sub scratch 0 !n in
    Array.fill scratch 0 !n no_slot;
    let size = !size in
    let first = Mem.page_index start in
    let last = Mem.page_index (Int64.add start (Int64.of_int (size - 1))) in
    let npages = Int64.to_int (Int64.sub last first) + 1 in
    Some
      {
        b_start = start;
        b_size = size;
        b_slots = slots;
        b_pages = Array.init npages (fun i -> Int64.add first (Int64.of_int i));
        b_dead = false;
        b_s1 = None;
        b_s2 = None;
      }
  end
