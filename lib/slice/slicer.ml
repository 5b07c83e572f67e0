(** Dynamic dataflow slicing tracer — the third block-identification
    mode, alongside the drcov collector's coverage diff.

    The machine applies its per-instruction step to the {!Flow} state
    ([Machine.slicer]: the traced slot loop of the code cache, and the
    interpreter), and a chained [Machine.on_syscall] hook anchors
    outputs and models input, over a traced process tree. Together
    they compute, per storage location
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
  flow : Flow.t;  (** the state the machine's step writes *)
  roots : (int, unit) Hashtbl.t;
  procs : (int, Flow.pstate) Hashtbl.t;
  wanted_out : string -> bool;
  mutable slice_deps : int;  (** a {!Depset} [sid] *)
  mutable anchors : int;
  mutable counterexamples : (string * int) list;
  (* sampled-tracing mode: a fresh seeded decision per accepted
     connection; gaps under-approximate the slice and are repaid by the
     verifier counterexample loop *)
  sample : (Rng.t * float) option;
  mutable tracing : bool;
  mutable sampled_off : int;
  prev_syscall : Machine.syscall_hook option;
  obs_anchors : Obs.counter;
}

let union t a b = Depset.union t.flow.Flow.ds a b

(* ---------- per-process state ---------- *)

let pstate_of t (p : Proc.t) : Flow.pstate =
  match Hashtbl.find_opt t.procs p.Proc.pid with
  | Some st -> st
  | None ->
      let st = Flow.fresh_pstate () in
      Hashtbl.add t.procs p.Proc.pid st;
      st

let traced t (p : Proc.t) =
  Hashtbl.mem t.roots p.Proc.pid
  ||
  (* follow forks: children of traced processes are traced too *)
  if Hashtbl.mem t.roots p.Proc.parent then begin
    Hashtbl.replace t.roots p.Proc.pid ();
    let fl = t.flow in
    List.iter
      (fun (n, lo, hi) ->
        if not (List.exists (fun (n', _, _) -> n' = n) fl.Flow.module_map) then
          fl.Flow.module_map <- fl.Flow.module_map @ [ (n, lo, hi) ])
      (Collector.modules_of_proc p);
    true
  end
  else false

(* The machine's [sl_select]: while tracing is on, a traced process's
   state becomes the flow's [last], which the step then runs on. *)
let select t (p : Proc.t) =
  t.tracing && traced t p
  && begin
       t.flow.Flow.last <- pstate_of t p;
       t.flow.Flow.last_pid <- p.Proc.pid;
       true
     end

let ctrl_top (st : Flow.pstate) = st.Flow.ctrl.(st.Flow.depth)

(* ---------- the syscall hook: anchors + input modelling ---------- *)

let anchor_regs = [ Reg.Rdi; Reg.Rsi; Reg.Rdx ]

let anchor t (st : Flow.pstate) ~(buf : int64) ~(len : int) =
  let d =
    List.fold_left
      (fun acc r -> union t acc st.Flow.regdep.(Reg.to_int r))
      (union t st.Flow.cur (ctrl_top st))
      anchor_regs
  in
  let d =
    if len > 0 && Flow.modelled buf len then
      Absmem.fold st.Flow.mem ~addr:(Int64.to_int buf) ~len (union t) d
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
        t.tracing <- on;
        (* no process is the step's [last] while tracing is off *)
        if not on then t.flow.Flow.last_pid <- -1
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
           for i = 0 to st.Flow.depth do
             st.Flow.ctrl.(i) <- Depset.empty
           done;
           st.Flow.flagdep <- Depset.empty
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
        if len > 0 && Flow.modelled a2 len then
          Absmem.write st.Flow.mem ~addr:(Int64.to_int a2) ~len
            (union t st.Flow.cur (ctrl_top st))
      end
    end
  end

(* ---------- lifecycle ---------- *)

(** Start slicing [pid] (and its future children) on [machine]: the
    machine runs the step ({!Machine.slicer}), and the syscall hook is
    chained after any already installed. [wanted_out] decides which
    socket-write payloads count as wanted-feature outputs (the slice
    anchors). [sample] (rng, probability) enables sampled tracing: each
    accept attempt re-decides whether tracing is on. One slicer per
    machine at a time. *)
let attach (machine : Machine.t) ~pid ?sample ~(wanted_out : string -> bool) () : t =
  if machine.Machine.slicer <> None then invalid_arg "Slicer.attach: a slicer is attached";
  Fault.site Slice_trace;
  let p = Machine.proc_exn machine pid in
  let t =
    {
      machine;
      flow = Flow.create (Collector.modules_of_proc p);
      roots = Hashtbl.create 4;
      procs = Hashtbl.create 4;
      wanted_out;
      slice_deps = Depset.empty;
      anchors = 0;
      counterexamples = [];
      sample;
      tracing = true;
      sampled_off = 0;
      prev_syscall = machine.Machine.on_syscall;
      obs_anchors = Obs.counter "slice.anchors";
    }
  in
  Hashtbl.replace t.roots pid ();
  machine.Machine.slicer <- Some { Machine.sl_flow = t.flow; sl_select = select t };
  machine.Machine.on_syscall <-
    Some
      (fun p nr ->
        (match t.prev_syscall with Some h -> h p nr | None -> ());
        on_syscall t p nr);
  t

(** Stop slicing: the machine stops stepping, and the chained syscall
    hook is restored. The computed state stays readable ({!slice},
    {!stats}). *)
let detach t =
  t.machine.Machine.slicer <- None;
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

(* A dense block id as (module name, offset, extent). *)
let span t id =
  let fl = t.flow in
  let key = fl.Flow.rev.(id) in
  let mid = key lsr 32 in
  let name =
    match List.nth_opt fl.Flow.module_map mid with
    | Some (n, _, _) -> n
    | None -> Printf.sprintf "module%d" mid
  in
  (name, key land 0xffff_ffff, fl.Flow.ext.(id))

(** Every dynamic block seen, as (module name, offset, extent), in the
    order first seen. *)
let blocks t = List.init t.flow.Flow.nblocks (span t)

(** The slice: every (module name, offset, extent) span whose dynamic
    block contributed to a wanted output, plus the verifier
    counterexamples (extent 1). A dynamic block is a maximal
    fall-through run, so its span can cross several static CFG blocks;
    match static blocks against the slice by range overlap. *)
let slice t : (string * int * int) list =
  Fault.site Slice_compute;
  Obs.with_span "slice.compute" @@ fun () ->
  let from_deps = List.map (span t) (Depset.elements t.flow.Flow.ds t.slice_deps) in
  List.fold_left
    (fun acc (m, off) ->
      if List.exists (fun (m', o', _) -> m' = m && o' = off) acc then acc
      else acc @ [ (m, off, 1) ])
    from_deps t.counterexamples

let stats t : stats =
  {
    st_insns = t.flow.Flow.insns;
    st_blocks_seen = t.flow.Flow.nblocks;
    st_slice_blocks = List.length (slice t);
    st_anchors = t.anchors;
    st_sets = Depset.count t.flow.Flow.ds;
    st_mem_ranges =
      Hashtbl.fold (fun _ (st : Flow.pstate) acc -> acc + Absmem.cardinal st.Flow.mem) t.procs 0;
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
