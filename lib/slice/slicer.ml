(** Dynamic dataflow slicing tracer — the third block-identification
    mode, alongside the drcov collector's coverage diff.

    Runs as a chained [Machine.on_insn] / [Machine.on_syscall] hook
    pair over a traced process tree and computes, per storage location
    (register, flags, abstract memory range), the *dependency set* of
    dynamic basic blocks whose execution contributed to the location's
    current value — the forward-propagation formulation of dynamic
    slicing, which never retains the trace itself. Whenever the guest
    emits a wanted output (a socket write whose payload satisfies the
    [wanted_out] predicate), the dependency sets reachable from that
    output — argument registers, the written buffer's abstract memory,
    the control context — are folded into the slice. Every covered
    block outside the final slice ran without ever contributing to a
    wanted output: the [Sliced_away] cut-candidate class.

    Control dependence uses a per-call-depth control stack: conditional
    and indirect transfers union their decision's dependencies into the
    current level (later blocks at that level depend on every decision
    taken there so far — conservative), calls push the caller's context
    plus the call site, returns pop. Depsets are hash-consed bitsets
    over dense block ids with memoized pairwise unions ({!Depset}), so
    per-instruction cost is a few integer-keyed table lookups.

    Determinism: everything replays bit-for-bit from the machine's
    virtual clock and seed, so a slice can be recomputed on demand from
    a twin run instead of storing traces, and a verifier counterexample
    (a wrongly sliced block that trapped post-cut) re-joins the slice
    reproducibly via {!add_counterexample}. *)

(* ---------- state ---------- *)

(* A dependency set is held as its {!Depset} [sid], a plain [int]: the
   per-process state is [int]s and [int] arrays, so storing a set is a
   plain write with no GC barrier, and comparing two is one [int]
   compare. *)
type set = int

type pstate = {
  regdep : set array;  (** 16 GPRs *)
  mutable flagdep : set;  (** zf/sf/cf/of as one pseudo-location *)
  mutable ctrl : set array;  (** control stack; index = call depth *)
  mutable depth : int;
  mem : Absmem.t;  (** payloads are sets *)
  mutable cur : set;  (** {cur block} as a singleton (empty off-module) *)
  mutable cur_id : int;  (** dense id of [cur], or -1 off-module *)
  mutable cur_vaddr : int;  (** vaddr the current dynamic block began at *)
  mutable base : set;
      (** [cur ∪ ctrl_top], the part every def of the block carries:
          only a block's last instruction changes control, so it is
          computed once, at block entry *)
  mutable expect_new : bool;  (** next insn starts a new dynamic block *)
}

type stats = {
  st_insns : int;  (** instructions traced *)
  st_blocks_seen : int;  (** distinct dynamic blocks interned *)
  st_slice_blocks : int;  (** blocks in the slice (incl. counterexamples) *)
  st_anchors : int;  (** wanted outputs anchored *)
  st_sets : int;  (** hash-consed depsets interned *)
  st_mem_ranges : int;  (** live abstract-memory ranges, all procs *)
  st_counterexamples : int;
  st_sampled_off : int;  (** sampling decisions that disabled tracing *)
}

type t = {
  machine : Machine.t;
  roots : (int, unit) Hashtbl.t;
  mutable module_map : (string * int64 * int64) list;
  (* block interning: packed (module idx, offset) key <-> dense id *)
  ids : int Itbl.t;
  mutable rev : int array;  (** dense id -> packed key *)
  mutable nblocks : int;
  (* dynamic blocks are maximal fall-through runs, so one can span
     several static CFG blocks; [ext] records the longest extent (in
     bytes, through the start of the last instruction executed) seen
     per block id, and {!slice} reports spans so callers can match
     static blocks by overlap rather than start-point membership *)
  mutable ext : int array;  (** by dense id, grown with [rev] *)
  ds : Depset.t;
  union_f : set -> set -> set;  (** [union_in ds], built once for {!Absmem.fold} *)
  procs : (int, pstate) Hashtbl.t;
  (* the process the hook last traced and its state: skips the [traced]
     and [pstate_of] lookups while the same [Proc.t] keeps running *)
  mutable last : (Proc.t * pstate) option;
  wanted_out : string -> bool;
  mutable slice_deps : set;
  mutable anchors : int;
  mutable insns : int;
  mutable counterexamples : (string * int) list;
  (* sampled-tracing mode: a fresh seeded decision per accepted
     connection; gaps under-approximate the slice and are repaid by the
     verifier counterexample loop *)
  sample : (Rng.t * float) option;
  mutable tracing : bool;
  mutable sampled_off : int;
  prev_insn : Machine.insn_hook option;
  prev_syscall : Machine.syscall_hook option;
  obs_anchors : Obs.counter;
}

(* Most unions have an empty or equal operand; those are decided here,
   before the call into {!Depset} and its memo. *)
let[@inline] union_in ds a b =
  if a = b || b = Depset.empty then a
  else if a = Depset.empty then b
  else Depset.union ds a b

let[@inline] union t a b = union_in t.ds a b

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

(* ---------- per-process state ---------- *)

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

let pstate_of t (p : Proc.t) : pstate =
  match Hashtbl.find_opt t.procs p.Proc.pid with
  | Some st -> st
  | None ->
      let st = fresh_pstate () in
      Hashtbl.add t.procs p.Proc.pid st;
      st

let traced t (p : Proc.t) =
  Hashtbl.mem t.roots p.Proc.pid
  ||
  (* follow forks: children of traced processes are traced too *)
  if Hashtbl.mem t.roots p.Proc.parent then begin
    Hashtbl.replace t.roots p.Proc.pid ();
    List.iter
      (fun (n, lo, hi) ->
        if not (List.exists (fun (n', _, _) -> n' = n) t.module_map) then
          t.module_map <- t.module_map @ [ (n, lo, hi) ])
      (Collector.modules_of_proc p);
    true
  end
  else false

let ctrl_top st = st.ctrl.(st.depth)

let push_ctrl st (s : set) =
  let d = st.depth + 1 in
  if d >= Array.length st.ctrl then begin
    let bigger = Array.make (2 * Array.length st.ctrl) Depset.empty in
    Array.blit st.ctrl 0 bigger 0 (Array.length st.ctrl);
    st.ctrl <- bigger
  end;
  st.ctrl.(d) <- s;
  st.depth <- d

(* ---------- the per-instruction hook ---------- *)

(* Folds over the [Defuse] lists, written as top-level recursions so the
   hook's common path builds no closures. Each fold unions in list order:
   the order fixes which intermediate sets get interned, and so every
   [sid]. *)

let rec union_regs t regdep acc = function
  | [] -> acc
  | r :: rest -> union_regs t regdep (union t acc regdep.(Reg.to_int r)) rest

(* Memory is modelled at [int] addresses, where [Int64.to_int] is exact:
   the low and the top 2^62 bytes of the address space, which hold
   code, heap, stack, mmap and high-half pages. An access elsewhere is
   not modelled: a load there reads nothing known and a store is
   dropped, a gap in the slice like any untraced path, which the
   verifier's counterexample loop repays. *)
let[@inline] modelled (addr : int64) len =
  let a = Int64.to_int addr in
  Int64.equal (Int64.of_int a) addr && a <= max_int - len

let[@inline] ea file (a : Defuse.access) =
  Int64.add (Proc.get64u file (Reg.to_int a.Defuse.a_base lsl 3)) (Int64.of_int a.Defuse.a_disp)

let rec union_loads t mem file acc = function
  | [] -> acc
  | (a : Defuse.access) :: rest ->
      let addr = ea file a and len = a.Defuse.a_len in
      let acc =
        if modelled addr len then Absmem.fold mem ~addr:(Int64.to_int addr) ~len t.union_f acc
        else acc
      in
      union_loads t mem file acc rest

let rec def_regs regdep u = function
  | [] -> ()
  | r :: rest ->
      regdep.(Reg.to_int r) <- u;
      def_regs regdep u rest

let rec store_all mem file u = function
  | [] -> ()
  | (a : Defuse.access) :: rest ->
      let addr = ea file a and len = a.Defuse.a_len in
      if modelled addr len then Absmem.write mem ~addr:(Int64.to_int addr) ~len u;
      store_all mem file u rest

let enter_block t st rip =
  let key = locate_in rip 0 t.module_map in
  if key >= 0 then begin
    let id = intern_block t key in
    st.cur <- Depset.singleton t.ds id;
    st.cur_id <- id
  end
  else begin
    st.cur <- Depset.empty (* anonymous memory; drcov skips it too *);
    st.cur_id <- -1
  end;
  st.cur_vaddr <- Int64.to_int rip;
  st.base <- union t st.cur (ctrl_top st);
  st.expect_new <- false

let step t st (p : Proc.t) (e : Defuse.effect) =
  t.insns <- t.insns + 1;
  let file = p.Proc.regs.Proc.file in
  if st.expect_new then enter_block t st (Proc.get64u file Proc.rip_off);
  if st.cur_id >= 0 then begin
    let rel = Int64.to_int (Proc.get64u file Proc.rip_off) - st.cur_vaddr + 1 in
    if rel > t.ext.(st.cur_id) then t.ext.(st.cur_id) <- rel
  end;
  (* the value every def carries: its data sources, the control
     context that let this instruction run, and the block computing it *)
  let u = union_regs t st.regdep st.base e.Defuse.uses in
  let u = if e.Defuse.uses_flags then union t u st.flagdep else u in
  let u = union_loads t st.mem file u e.Defuse.loads in
  def_regs st.regdep u e.Defuse.defs;
  if e.Defuse.defs_flags then st.flagdep <- u;
  store_all st.mem file u e.Defuse.stores;
  (match e.Defuse.control with
  | Defuse.Straight | Defuse.Jump | Defuse.Stop | Defuse.Sys -> ()
  | Defuse.Cond_jump ->
      (* blocks after a decision depend on every decision taken at
         this level so far — union, never overwrite *)
      st.ctrl.(st.depth) <-
        union t (ctrl_top st) (union t st.flagdep st.cur)
  | Defuse.Indirect_jump r ->
      st.ctrl.(st.depth) <-
        union t (ctrl_top st) (union t st.regdep.(Reg.to_int r) st.cur)
  | Defuse.Call_push -> push_ctrl st (union t (ctrl_top st) st.cur)
  | Defuse.Indirect_call r ->
      push_ctrl st
        (union t (ctrl_top st) (union t st.regdep.(Reg.to_int r) st.cur))
  | Defuse.Return -> st.depth <- max 0 (st.depth - 1));
  (* every control class but [Straight] ends the dynamic block *)
  match e.Defuse.control with Defuse.Straight -> () | _ -> st.expect_new <- true

let on_insn t (p : Proc.t) (e : Defuse.effect) =
  if t.tracing then
    match t.last with
    | Some (q, st) when q == p -> step t st p e
    | _ ->
        if traced t p then begin
          let st = pstate_of t p in
          t.last <- Some (p, st);
          step t st p e
        end

(* ---------- the syscall hook: anchors + input modelling ---------- *)

let anchor_regs = [ Reg.Rdi; Reg.Rsi; Reg.Rdx ]

let anchor t (st : pstate) ~(buf : int64) ~(len : int) =
  let d = union_regs t st.regdep (union t st.cur (ctrl_top st)) anchor_regs in
  let d =
    if len > 0 && modelled buf len then
      Absmem.fold st.mem ~addr:(Int64.to_int buf) ~len t.union_f d
    else d
  in
  t.slice_deps <- union t t.slice_deps d;
  t.anchors <- t.anchors + 1;
  Obs.incr t.obs_anchors

let buf_cap = 65_536

let on_syscall t (p : Proc.t) (nr : int) =
  if traced t p then begin
    (* sampled mode: one fresh seeded decision per accept attempt *)
    (match t.sample with
    | Some (rng, p_on) when nr = Abi.sys_accept ->
        let on = Rng.float rng < p_on in
        if t.tracing && not on then t.sampled_off <- t.sampled_off + 1;
        t.tracing <- on
    | _ -> ());
    (* a new connection is a fresh control context: without this reset,
       the accept loop's check of the previous handler's return value
       unions that whole request's dependency set (miss/error arms
       included) into the loop-depth control cell forever, and every
       later anchor inherits it — the slice would converge to the
       coverage. Data still flows across connections through memory;
       only stale control dependence is dropped. *)
    (if nr = Abi.sys_accept && t.tracing then
       match Hashtbl.find_opt t.procs p.Proc.pid with
       | Some st ->
           for i = 0 to st.depth do
             st.ctrl.(i) <- Depset.empty
           done;
           st.flagdep <- Depset.empty
       | None -> ());
    if t.tracing then begin
      let st = pstate_of t p in
      let regs = p.Proc.regs in
      let a1 = Proc.get regs Reg.Rdi
      and a2 = Proc.get regs Reg.Rsi
      and a3 = Proc.get regs Reg.Rdx in
      let is_sock fd =
        match Hashtbl.find_opt p.Proc.fds (Int64.to_int fd) with
        | Some (Proc.Fd_sock _) -> true
        | _ -> false
      in
      if (nr = Abi.sys_write || nr = Abi.sys_send) && is_sock a1 then begin
        let len = min (max 0 (Int64.to_int a3)) buf_cap in
        let payload =
          match Mem.read_bytes p.Proc.mem a2 len with
          | b -> Bytes.to_string b
          | exception Mem.Fault _ -> ""
        in
        if t.wanted_out payload then anchor t st ~buf:a2 ~len
      end
      else if nr = Abi.sys_read || nr = Abi.sys_recv then begin
        (* bytes arriving from outside the program: defined here, by
           the receiving block in its control context *)
        let len = min (max 0 (Int64.to_int a3)) buf_cap in
        if len > 0 && modelled a2 len then
          Absmem.write st.mem ~addr:(Int64.to_int a2) ~len (union t st.cur (ctrl_top st))
      end
    end
  end

(* ---------- lifecycle ---------- *)

(** Start slicing [pid] (and its future children) on [machine], chained
    after any hooks already installed. [wanted_out] decides which
    socket-write payloads count as wanted-feature outputs (the slice
    anchors). [sample] (rng, probability) enables sampled tracing: each
    accept attempt re-decides whether tracing is on. *)
let attach (machine : Machine.t) ~pid ?sample ~(wanted_out : string -> bool)
    () : t =
  Fault.site "slice.trace";
  let p = Machine.proc_exn machine pid in
  let ds = Depset.create () in
  let t =
    {
      machine;
      roots = Hashtbl.create 4;
      module_map = Collector.modules_of_proc p;
      ids = Itbl.create 256;
      rev = Array.make 256 0;
      nblocks = 0;
      ext = Array.make 256 0;
      ds;
      union_f = union_in ds;
      procs = Hashtbl.create 4;
      last = None;
      wanted_out;
      slice_deps = Depset.empty;
      anchors = 0;
      insns = 0;
      counterexamples = [];
      sample;
      tracing = true;
      sampled_off = 0;
      prev_insn = machine.Machine.on_insn;
      prev_syscall = machine.Machine.on_syscall;
      obs_anchors = Obs.counter "slice.anchors";
    }
  in
  Hashtbl.replace t.roots pid ();
  machine.Machine.on_insn <-
    Some
      (match t.prev_insn with
      | None -> fun p _ e -> on_insn t p e
      | Some h ->
          fun p insn e ->
            h p insn e;
            on_insn t p e);
  machine.Machine.on_syscall <-
    Some
      (fun p nr ->
        (match t.prev_syscall with Some h -> h p nr | None -> ());
        on_syscall t p nr);
  t

(** Stop slicing: restore the chained hooks. The computed state stays
    readable ({!slice}, {!stats}). *)
let detach t =
  t.machine.Machine.on_insn <- t.prev_insn;
  t.machine.Machine.on_syscall <- t.prev_syscall

(** A verifier false positive: a block we sliced away trapped post-cut,
    so it does affect the wanted feature. Re-joins the slice (and every
    future {!slice} computation) and journals the event. *)
let add_counterexample t ~(module_ : string) ~(off : int) =
  if not (List.mem (module_, off) t.counterexamples) then begin
    t.counterexamples <- t.counterexamples @ [ (module_, off) ];
    Obs.incr (Obs.counter "slice.counterexamples");
    Obs.event ~kind:"slice"
      (Printf.sprintf "counterexample %s+0x%x re-joins slice" module_ off)
  end

let counterexamples t = t.counterexamples

(** The slice: every (module name, offset, extent) span whose dynamic
    block contributed to a wanted output, plus the verifier
    counterexamples (extent 1). A dynamic block is a maximal
    fall-through run, so its span can cross several static CFG blocks;
    match static blocks against the slice by range overlap. *)
let slice t : (string * int * int) list =
  Fault.site "slice.compute";
  Obs.with_span "slice.compute" @@ fun () ->
  let name mid =
    match List.nth_opt t.module_map mid with
    | Some (n, _, _) -> n
    | None -> Printf.sprintf "module%d" mid
  in
  let of_id id =
    let key = t.rev.(id) in
    (name (key lsr 32), key land 0xffff_ffff, t.ext.(id))
  in
  let from_deps = List.map of_id (Depset.elements t.ds t.slice_deps) in
  List.fold_left
    (fun acc (m, off) ->
      if List.exists (fun (m', o', _) -> m' = m && o' = off) acc then acc
      else acc @ [ (m, off, 1) ])
    from_deps t.counterexamples

let stats t : stats =
  {
    st_insns = t.insns;
    st_blocks_seen = t.nblocks;
    st_slice_blocks = List.length (slice t);
    st_anchors = t.anchors;
    st_sets = Depset.count t.ds;
    st_mem_ranges =
      Hashtbl.fold (fun _ st acc -> acc + Absmem.cardinal st.mem) t.procs 0;
    st_counterexamples = List.length t.counterexamples;
    st_sampled_off = t.sampled_off;
  }

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "slicer: %d insns, %d blocks seen, %d in slice (%d anchors, %d \
     counterexamples), %d depsets, %d mem ranges%s"
    s.st_insns s.st_blocks_seen s.st_slice_blocks s.st_anchors
    s.st_counterexamples s.st_sets s.st_mem_ranges
    (if s.st_sampled_off > 0 then
       Printf.sprintf ", %d sampled off" s.st_sampled_off
     else "")
