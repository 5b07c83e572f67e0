(** Static basic-block recovery over SELF executable sections.

    The paper obtains "the number of total basic blocks of each binary ...
    using Angr" (§4.2, Figure 9). This module is our Angr stand-in: a
    recursive-descent/linear-sweep hybrid that decodes [.text] and [.plt],
    collects branch targets and fall-through edges, and splits blocks at
    every join point. *)

type block = {
  bb_off : int;  (** module-relative start *)
  bb_size : int;
  bb_insns : int;
  bb_term : [ `Jmp | `Jcc | `Call | `Ret | `Ind | `Syscall | `Trap | `Fall ];
}

type t = {
  cfg_module : string;
  cfg_blocks : block array;  (** sorted by offset *)
  cfg_edges : (int * int) list;
      (** intra-module (from-insn offset, target offset), sorted *)
}

(* Block terminators by {!Decode.term_code}. *)
let terms = [| `Fall; `Jmp; `Jcc; `Call; `Ret; `Ind; `Syscall; `Trap |]

(** Decode one executable section into basic blocks and edges, both
    sorted. [extra_leaders] are module-relative offsets known to be
    entry points from outside the section's own branches — function
    symbols and PLT stubs. *)
let blocks_of_section ~extra_leaders (sec : Self.section) :
    block list * (int * int) list =
  let data = sec.sec_data in
  let size = Bytes.length data and base = sec.sec_off in
  (* pass 1: scan linearly up to the first undecodable byte; note each
     instruction's length and terminator code (packed in one byte as
     [len lor (code lsl 4)], in order), the leader bitmap and the edges.
     {!Decode.scan} reads only the shape, so no [Insn.t] is built *)
  let insns = Bytes.create size in
  let n = ref 0 in
  let leader = Bytes.make size '\000' in
  let mark o = if o >= 0 && o < size then Bytes.unsafe_set leader o '\001' in
  mark 0;
  List.iter (fun off -> mark (off - base)) extra_leaders;
  (* consed newest first; each instruction's edges in target order *)
  let edges = ref [] in
  let pos = ref 0 in
  (try
     while !pos < size do
       let off = !pos in
       let shape = Decode.scan data off in
       let next = off + (shape land 15) in
       (match (shape lsr 4) land 15 with
       | 0 -> ()
       | 1 (* jmp *) ->
           let target = next + (shape asr 8) in
           mark target;
           edges := (base + off, base + target) :: !edges;
           mark next
       | 2 | 3 (* jcc, call *) ->
           let target = next + (shape asr 8) in
           mark target;
           mark next;
           let lo = min target next and hi = max target next in
           edges := (base + off, base + hi) :: (base + off, base + lo) :: !edges
       | _ -> mark next);
       Bytes.unsafe_set insns !n (Char.unsafe_chr (shape land 0xff));
       incr n;
       pos := next
     done
   with Decode.Invalid_opcode _ | Decode.Truncated_insn -> ());
  (* pass 2: walk the instructions in order, cutting at leaders and
     terminators *)
  let blocks = ref [] in
  let start = ref (-1) and count = ref 0 in
  let close stop term =
    if !start >= 0 then begin
      blocks :=
        { bb_off = base + !start; bb_size = stop - !start; bb_insns = !count; bb_term = term }
        :: !blocks;
      start := -1;
      count := 0
    end
  in
  let pos = ref 0 in
  for k = 0 to !n - 1 do
    let off = !pos in
    if !start < 0 then start := off
    else if Bytes.unsafe_get leader off <> '\000' then begin
      close off `Fall;
      start := off
    end;
    incr count;
    let v = Char.code (Bytes.unsafe_get insns k) in
    pos := off + (v land 15);
    if v lsr 4 <> 0 then close !pos terms.(v lsr 4)
  done;
  (* decoding stopped short at data padding: the open block ends there *)
  close !pos (if !pos < size then `Trap else `Fall);
  (List.rev !blocks, List.rev !edges)

(** Recover all blocks of a module's executable sections. Sections are
    disjoint, so walking them by offset keeps blocks and edges sorted. *)
let of_self (self : Self.t) : t =
  let exec_secs =
    List.filter (fun (s : Self.section) -> s.sec_prot.Self.p_x) self.sections
    |> List.sort (fun (a : Self.section) b -> Int.compare a.sec_off b.sec_off)
  in
  let extra_leaders =
    List.map (fun (s : Self.sym) -> s.Self.sym_off) self.symbols
    @ List.map snd self.plt
  in
  let all = List.map (blocks_of_section ~extra_leaders) exec_secs in
  {
    cfg_module = self.name;
    cfg_blocks = Array.of_list (List.concat_map fst all);
    cfg_edges = List.concat_map snd all;
  }

let block_count t = Array.length t.cfg_blocks

(** Filter out empty padding blocks (all-nop alignment runs). *)
let real_blocks t =
  Array.fold_right (fun b acc -> if b.bb_size > 0 then b :: acc else acc) t.cfg_blocks []

(* The last block starting at or before [off], by binary search. *)
let last_from t off =
  let a = t.cfg_blocks in
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid).bb_off <= off then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then None else Some a.(!lo - 1)

let block_at t off =
  match last_from t off with Some b when b.bb_off = off -> Some b | _ -> None

let block_containing t off =
  match last_from t off with
  | Some b when off < b.bb_off + b.bb_size -> Some b
  | _ -> None
