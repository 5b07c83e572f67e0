(** The dynamic slicer's dataflow state: per traced process, the
    dependency set ({!Depset} [sid]) of every register, of the flags,
    of each control-stack level and of abstract memory ({!Absmem}),
    plus the interning of dynamic basic blocks into the dense ids the
    sets range over.

    The state is written by the machine, which applies the slicer's
    per-instruction step to it in its traced slot loop
    ([Cpu.exec_block]) and in the interpreter, and read back by
    [Slicer], which anchors wanted outputs and reports the slice. It
    sits below the machine so that the step can reach it with plain
    field accesses and direct calls. Every field is an [int], an [int]
    array or a [bool]: storing a set is a plain write, comparing two is
    one [int] compare. *)

type pstate = {
  regdep : int array;  (** 16 GPRs *)
  mutable flagdep : int;  (** zf/sf/cf/of as one pseudo-location *)
  mutable ctrl : int array;  (** control stack; index = call depth *)
  mutable depth : int;
  mem : Absmem.t;  (** payloads are sets *)
  mutable cur : int;  (** {cur block} as a singleton (empty off-module) *)
  mutable cur_id : int;  (** dense id of [cur], or -1 off-module *)
  mutable cur_vaddr : int;  (** vaddr the current dynamic block began at *)
  mutable base : int;
      (** [cur ∪ ctrl_top], the part every def of the block carries:
          only a block's last instruction changes control, so it is
          computed once, at block entry *)
  mutable expect_new : bool;  (** next insn starts a new dynamic block *)
}

type t = {
  ds : Depset.t;
  mutable module_map : (string * int64 * int64) list;
      (** traced modules: name, start, end; a block's key names its
          module by position here *)
  (* block interning: packed (module idx, offset) key <-> dense id *)
  ids : int Itbl.t;
  mutable rev : int array;  (** dense id -> packed key *)
  mutable nblocks : int;
  mutable ext : int array;
      (** by dense id, grown with [rev]: the longest extent (in bytes,
          through the start of the last instruction executed) seen per
          block. Dynamic blocks are maximal fall-through runs, so one
          can span several static CFG blocks. *)
  mutable insns : int;  (** instructions stepped *)
  mutable last_pid : int;  (** the pid [last] belongs to; -1 for none *)
  mutable last : pstate;
      (** the state of the traced process the step ran for last, so a
          block of the same process finds it with one compare *)
}

let fresh_pstate () : pstate =
  {
    regdep = Array.make 16 Depset.empty;
    flagdep = Depset.empty;
    ctrl = Array.make 16 Depset.empty;
    depth = 0;
    mem = Absmem.create ();
    cur = Depset.empty;
    cur_id = -1;
    cur_vaddr = 0;
    base = Depset.empty;
    expect_new = true;
  }

let create module_map =
  {
    ds = Depset.create ();
    module_map;
    ids = Itbl.create 256;
    rev = Array.make 256 0;
    nblocks = 0;
    ext = Array.make 256 0;
    insns = 0;
    last_pid = -1;
    last = fresh_pstate ();
  }

(** Is [addr, addr+len) modelled? Memory is modelled at [int]
    addresses, where [Int64.to_int] is exact: the low and the top 2^62
    bytes of the address space, which hold code, heap, stack, mmap and
    high-half pages. An access elsewhere is not modelled: a load there
    reads nothing known and a store is dropped, a gap in the slice like
    any untraced path, which the verifier's counterexample loop
    repays. *)
let modelled (addr : int64) len =
  let a = Int64.to_int addr in
  Int64.equal (Int64.of_int a) addr && a <= max_int - len

(* ---------- block identities ---------- *)

(* a block key packs (module idx, offset); modules stay below 4 GiB *)
let pack mid off = (mid lsl 32) lor off

let rec locate_in (addr : int64) i = function
  | [] -> -1
  | (_, base, end_) :: _ when addr >= base && addr < end_ ->
      pack i (Int64.to_int (Int64.sub addr base))
  | _ :: rest -> locate_in addr (i + 1) rest

let intern_block t key : int =
  match Itbl.find t.ids key with
  | id -> id
  | exception Not_found ->
      let id = t.nblocks in
      if id >= Array.length t.rev then begin
        let n = max 64 (2 * Array.length t.rev) in
        let grow a =
          let bigger = Array.make n 0 in
          Array.blit a 0 bigger 0 (Array.length a);
          bigger
        in
        t.rev <- grow t.rev;
        t.ext <- grow t.ext
      end;
      t.rev.(id) <- key;
      t.nblocks <- id + 1;
      Itbl.add t.ids key id;
      id

(** Start a new dynamic block of [st] at [rip]: the block in the
    current control context. A block outside every traced module
    (anonymous memory; drcov skips it too) contributes no id. *)
let enter t st (rip : int64) =
  let key = locate_in rip 0 t.module_map in
  if key >= 0 then begin
    let id = intern_block t key in
    st.cur <- Depset.singleton t.ds id;
    st.cur_id <- id
  end
  else begin
    st.cur <- Depset.empty;
    st.cur_id <- -1
  end;
  st.cur_vaddr <- Int64.to_int rip;
  st.base <- Depset.union t.ds st.cur st.ctrl.(st.depth);
  st.expect_new <- false
