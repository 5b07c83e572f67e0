(** Decoded-block code cache tests. Every machine runs on its cache,
    sliced ones included; the interpreter runs only the steps the
    cache declines (int3, fault, an injected ["bbcache.dispatch"]
    fault, a degraded dispatcher). The reference is the same machine
    with its dispatcher degraded from the start ({!Dispatch.degrade}),
    which keeps every step on the interpreter. Covered: a
    generated-program differential oracle (registers, every page,
    drcov, the observability dump and what an attached slicer computed
    in the cache's traced slot loop, shrunk to a minimal program on
    failure), the same comparison on the apps, the clock and step
    count every callback out of the machine sees (the cache charges
    them once per dispatch chain), nudge-precise invalidation across all three
    rewrite strategies, self-modifying-page eviction,
    cache coldness after per-worker [Dynacut.recover], the slicer on the cache
    against the interpreter on ltpd and rkv, two-run determinism of
    the dump, and collection of a dropped machine. *)

let get = "GET /index.html HTTP/1.0\r\n\r\n"

let lpolicy = { Dynacut.method_ = `First_byte; on_trap = `Redirect "ltpd_403" }

(* the interpreter reference: a dispatcher degraded from the start *)
let interpret = Test_machine_edges.interpret

let stats (m : Machine.t) = Dispatch.stats m.Machine.dispatcher

(* The dump with every [bbcache.*] line dropped, blank lines dropped and
   separators trimmed (a dropped line can leave its section empty or
   move the comma of its neighbour). *)
let without_bbcache dump =
  String.split_on_char '\n' dump
  |> List.filter (fun l ->
         l <> "" && not (Workload.contains ~sub:"\"bbcache." l))
  |> List.map (fun l ->
         let n = String.length l in
         if n > 0 && l.[n - 1] = ',' then String.sub l 0 (n - 1) else l)
  |> String.concat "\n"

(* What the callbacks out of a machine see of its clock, one
   [obs_width]-byte record per call: the callback ('t' trace, 's'
   syscall), then the clock and ["machine.steps"] as 8-byte integers.
   The string [watch_clock] returns appends each [Obs] event ('e', its
   timestamp, its sequence number). The trace hook is watched only
   when asked, and an installed hook still runs after its record. *)
let obs_width = 17

let watch_clock ?(trace = true) (m : Machine.t) =
  let seen = Buffer.create 4096 in
  let add kind clock n =
    Buffer.add_char seen kind;
    Buffer.add_int64_le seen clock;
    Buffer.add_int64_le seen (Int64.of_int n)
  in
  let record kind = add kind m.Machine.clock (Obs.counter_value m.Machine.obs_steps) in
  if trace then begin
    let prev = m.Machine.trace in
    m.Machine.trace <-
      Some
        (fun q start size ->
          record 't';
          Option.iter (fun h -> h q start size) prev)
  end;
  let prev_sys = m.Machine.on_syscall in
  m.Machine.on_syscall <-
    Some
      (fun q nr ->
        record 's';
        Option.iter (fun h -> h q nr) prev_sys);
  fun () ->
    List.iter (fun (e : Obs.event) -> add 'e' e.Obs.ev_clock e.Obs.ev_seq) (Obs.events ());
    Buffer.contents seen

(* The first record where two watches differ, described; [None] when
   they are equal. *)
let clock_difference reference cached =
  if reference = cached then None
  else
    let w = obs_width in
    let count s = String.length s / w in
    let record s k = String.sub s (k * w) w in
    let rec first k =
      if k < min (count reference) (count cached) && record reference k = record cached k then
        first (k + 1)
      else k
    in
    let k = first 0 in
    let show s =
      if k >= count s then "nothing"
      else
        Printf.sprintf "'%c' clock=%Ld steps=%Ld" s.[k * w]
          (String.get_int64_le s ((k * w) + 1))
          (String.get_int64_le s ((k * w) + 9))
    in
    Some
      (Printf.sprintf "record %d of %d/%d: reference %s, cached %s" k (count reference)
         (count cached) (show reference) (show cached))

(* ---------- generated programs: cached = interpreted ---------- *)

(* Layout of a generated process: page A (r-x, immutable, so [flip]
   can hit it) holds the signal restorer, three signal handlers and
   the subroutines; pages B (rwx, two pages, so blocks can
   straddle a page boundary) hold the main program, which stores into
   its own code; one rw data page follows. A file-backed page the
   program never touches holds zeros, while its file holds non-zero
   bytes: a dump must keep it, since a restore fills a file-backed page
   the image lacks from the file. *)
let page_a = 0x40_0000L
let page_b = 0x40_1000L
let data_base = 0x60_0000L
let zeroed_base = 0x70_0000L
let zeroed_file = "gen.rodata"

(* Registers: random operations read and write [pool]; r11 and r13 are
   scratch, r12 counts loops, r14 and r15 hold page B and the data
   page. *)
let pool = Reg.[ Rax; Rcx; Rdx; Rbx; Rsi; Rdi; R8; R9; R10 ]

type sys = Getpid | Gettime | Rand of int | Write of int | Sleep of int | Mprotect | Kill_self

type item =
  | Op of Insn.t  (** straight-line *)
  | Push_pop of Reg.t * Reg.t
  | If of Insn.cond * Reg.t * Reg.t * item list  (** cmp; jcc over the body *)
  | Loop of int * item list  (** r12 counts down *)
  | Call of int  (** direct call to subroutine k *)
  | Call_ind of int  (** call through r11 *)
  | Jump  (** jmp over a hlt *)
  | Jump_ind  (** lea r11; jmp r11, over a hlt *)
  | Trap  (** int3; the SIGTRAP handler resumes after it *)
  | Smc_imm of Reg.t  (** store the reg into the next insn's immediate *)
  | Smc_trap  (** store8 an int3 over the next nop *)
  | Sys of sys

type prog = {
  fork : bool;
  init : (Reg.t * int64) list;
  subs : item list list;  (** each ends in ret *)
  main : item list;
  halt : bool;  (** end in hlt rather than exit *)
  flips : int list;  (** cycles run before each [flip] *)
}

(* ----- lowering: items to instructions at known addresses ----- *)

let len = Insn.length
let size insns = List.fold_left (fun n i -> n + len i) 0 insns
let restorer = page_a
let restorer_code = Insn.[ Mov_ri (Reg.Rax, Int64.of_int Abi.sys_sigreturn); Syscall ]

(* a handler resumes [skip] bytes after the interrupted instruction (int3
   1, idiv/imod 2, load/store 7) by rewriting the frame's saved rip *)
let handler skip =
  Insn.
    [
      Load (Reg.R13, Reg.Rsi, Abi.frame_off_rip);
      Add_ri (Reg.R13, skip);
      Store (Reg.Rsi, Abi.frame_off_rip, Reg.R13);
      Ret;
    ]

let handlers = [ (Abi.sigtrap, 1); (Abi.sigfpe, 2); (Abi.sigsegv, 7) ]

(* address of handler k and of subroutine k on page A *)
let handler_addr k =
  Int64.add restorer (Int64.of_int (size restorer_code + (k * size (handler 1))))

let subs_base = handler_addr (List.length handlers)

let mov_i r v = Insn.Mov_ri (r, Int64.of_int v)

let syscall nr args = List.map (fun (r, v) -> mov_i r v) args @ Insn.[ mov_i Reg.Rax nr; Syscall ]

(* Lower [items] placed at [at]; [sub k] is subroutine k's address (a
   call to a subroutine the shrinker dropped lowers to nothing). *)
let rec lower ~sub at items =
  let code, _ =
    List.fold_left
      (fun (acc, a) it ->
        let c = lower_item ~sub a it in
        (acc @ c, Int64.add a (Int64.of_int (size c))))
      ([], at) items
  in
  code

and lower_item ~sub a it =
  let rel target from = Int64.to_int (Int64.sub target from) in
  match it with
  | Op i -> [ i ]
  | Push_pop (r, r') -> Insn.[ Push r; Pop r' ]
  | If (c, x, y, body) ->
      let cmp = Insn.Cmp_rr (x, y) in
      let body = lower ~sub (Int64.of_int (Int64.to_int a + len cmp + 6)) body in
      (cmp :: Insn.Jcc (Insn.cond_negate c, size body) :: body)
  | Loop (n, body) ->
      let start = Int64.add a 10L in
      let body = lower ~sub start body in
      let tail_at = Int64.add start (Int64.of_int (size body)) in
      let jcc_next = Int64.add tail_at (Int64.of_int (6 + 6 + 6)) in
      (mov_i Reg.R12 n :: body)
      @ Insn.[ Sub_ri (Reg.R12, 1); Cmp_ri (Reg.R12, 0); Jcc (Insn.Ne, rel start jcc_next) ]
  | Call k -> (
      match sub k with Some t -> [ Insn.Call (rel t (Int64.add a 5L)) ] | None -> [])
  | Call_ind k -> (
      match sub k with Some t -> Insn.[ Mov_ri (Reg.R11, t); Call_r Reg.R11 ] | None -> [])
  | Jump -> Insn.[ Jmp 1; Hlt ]
  | Jump_ind -> Insn.[ Lea (Reg.R11, 3); Jmp_r Reg.R11; Hlt ]
  | Trap -> [ Insn.Int3 ]
  | Smc_imm r ->
      (* the mov's immediate sits 2 bytes into it, right after the store *)
      let imm = Int64.add a 9L in
      Insn.[ Store (Reg.R14, rel imm page_b, r); Mov_ri (Reg.Rax, 0L) ]
  | Smc_trap ->
      let nop = Int64.add a 17L in
      Insn.[ mov_i Reg.R13 0xCC; Store8 (Reg.R14, rel nop page_b, Reg.R13); Nop ]
  | Sys s -> (
      let open Abi in
      match s with
      | Getpid -> syscall sys_getpid []
      | Gettime -> syscall sys_gettime []
      | Rand n -> syscall sys_rand [ (Reg.Rdi, n) ]
      | Write n ->
          Insn.Mov_rr (Reg.Rsi, Reg.R15) :: syscall sys_write [ (Reg.Rdi, 1); (Reg.Rdx, n) ]
      | Sleep n -> syscall sys_nanosleep [ (Reg.Rdi, n) ]
      | Mprotect ->
          (* rwx -> rwx: no change, but every block on the pages goes *)
          Insn.Mov_rr (Reg.Rdi, Reg.R14)
          :: syscall sys_mprotect [ (Reg.Rsi, 2 * Mem.page_size); (Reg.Rdx, 7) ]
      | Kill_self ->
          syscall sys_getpid []
          @ (Insn.Mov_rr (Reg.Rdi, Reg.Rax) :: syscall sys_kill [ (Reg.Rsi, sigtrap) ]))

(* Page A's and pages B's instructions. Unless [handled], the prologue
   installs no signal handler, so a trap or fault kills the process. *)
let lower_prog ?(handled = true) p =
  let sub_code =
    let _, subs =
      List.fold_left
        (fun (a, acc) body ->
          let c = lower ~sub:(fun _ -> None) a body @ [ Insn.Ret ] in
          (Int64.add a (Int64.of_int (size c)), acc @ [ (a, c) ]))
        (subs_base, []) p.subs
    in
    subs
  in
  let sub k = Option.map fst (List.nth_opt sub_code k) in
  let a_code =
    restorer_code
    @ List.concat_map (fun (_, skip) -> handler skip) handlers
    @ List.concat_map snd sub_code
  in
  let prologue =
    Insn.[ Mov_ri (Reg.R15, data_base); Mov_ri (Reg.R14, page_b) ]
    @ List.concat
        (List.mapi
           (fun k (signum, _) ->
             if not handled then []
             else
               Insn.Mov_ri (Reg.Rsi, handler_addr k)
               :: Insn.Mov_ri (Reg.Rdx, restorer)
               :: syscall Abi.sys_sigaction [ (Reg.Rdi, signum) ])
           handlers)
    @ List.map (fun (r, v) -> Insn.Mov_ri (r, v)) p.init
    @ if p.fork then syscall Abi.sys_fork [] else []
  in
  let body = lower ~sub (Int64.add page_b (Int64.of_int (size prologue))) p.main in
  let epilogue =
    if p.halt then [ Insn.Hlt ] else Insn.Mov_rr (Reg.Rdi, Reg.Rbx) :: syscall Abi.sys_exit []
  in
  (a_code, prologue @ body @ epilogue)

let listing p =
  let a, b = lower_prog p in
  let show base code =
    let lines, _ =
      List.fold_left
        (fun (acc, at) i ->
          (Printf.sprintf "  %Lx: %s" at (Insn.to_string i) :: acc, Int64.add at (Int64.of_int (len i))))
        ([], base) code
    in
    String.concat "\n" (List.rev lines)
  in
  Printf.sprintf "fork=%b flips=[%s]\npage A:\n%s\npages B:\n%s" p.fork
    (String.concat ";" (List.map string_of_int p.flips))
    (show page_a a) (show page_b b)

(* ----- the generator and its shrinker ----- *)

let gen_prog : prog QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = oneofl pool in
  let imm = oneof [ int_range (-8) 8; int_range (-100_000) 100_000 ] in
  let imm64 = oneof [ map Int64.of_int (int_range (-5) 5); int64 ] in
  (* one access in ten lands just past its page: SIGSEGV, resumed *)
  let data_off = frequency [ (9, map (fun k -> k * 8) (int_range 0 511)); (1, pure 4096) ] in
  let byte_off = frequency [ (9, int_range 0 4095); (1, pure 4096) ] in
  let code_off = map (fun k -> k * 8) (int_range 0 1023) in
  let rr f = map2 f reg reg and ri f = map2 f reg imm in
  let shift f = map2 f reg (int_range 0 63) in
  let straight =
    Insn.(
      oneof
        [
          pure Nop;
          rr (fun d s -> Mov_rr (d, s));
          map2 (fun d v -> Mov_ri (d, v)) reg imm64;
          map2 (fun d o -> Load (d, Reg.R15, o)) reg data_off;
          map2 (fun d o -> Load (d, Reg.R14, o)) reg code_off;
          map2 (fun o s -> Store (Reg.R15, o, s)) data_off reg;
          map2 (fun d o -> Load8 (d, Reg.R15, o)) reg byte_off;
          map2 (fun o s -> Store8 (Reg.R15, o, s)) byte_off reg;
          rr (fun d s -> Add_rr (d, s));
          ri (fun d v -> Add_ri (d, v));
          rr (fun d s -> Sub_rr (d, s));
          ri (fun d v -> Sub_ri (d, v));
          rr (fun d s -> Imul_rr (d, s));
          rr (fun d s -> Idiv_rr (d, s));
          rr (fun d s -> Imod_rr (d, s));
          rr (fun d s -> And_rr (d, s));
          rr (fun d s -> Or_rr (d, s));
          rr (fun d s -> Xor_rr (d, s));
          shift (fun d n -> Shl_ri (d, n));
          shift (fun d n -> Shr_ri (d, n));
          shift (fun d n -> Sar_ri (d, n));
          rr (fun d s -> Shl_rr (d, s));
          rr (fun d s -> Shr_rr (d, s));
          map (fun d -> Neg d) reg;
          map (fun d -> Not d) reg;
          rr (fun a b -> Cmp_rr (a, b));
          ri (fun a v -> Cmp_ri (a, v));
          rr (fun a b -> Test_rr (a, b));
          ri (fun d o -> Lea (d, o));
        ])
  in
  let sys =
    oneof
      [
        pure Getpid;
        pure Gettime;
        map (fun n -> Rand n) (int_range 1 1000);
        map (fun n -> Write n) (int_range 0 64);
        map (fun n -> Sleep n) (int_range 1 500);
        pure Mprotect;
        pure Kill_self;
      ]
  in
  let cond = oneofl Insn.[ Eq; Ne; Lt; Le; Gt; Ge; Ult; Ule; Ugt; Uge ] in
  let leaf ~nsubs =
    frequency
      ([
         (16, map (fun i -> Op i) straight);
         (1, rr (fun a b -> Push_pop (a, b)));
         (1, pure Trap);
         (1, map (fun r -> Smc_imm r) reg);
         (1, pure Smc_trap);
         (1, pure Jump);
         (1, pure Jump_ind);
         (2, map (fun s -> Sys s) sys);
       ]
      @
      if nsubs = 0 then []
      else
        [
          (1, map (fun k -> Call k) (int_range 0 (nsubs - 1)));
          (1, map (fun k -> Call_ind k) (int_range 0 (nsubs - 1)));
        ])
  in
  (* bodies nest at most twice; a loop body holds no loop, since both
     would count in r12 *)
  let rec items ~nsubs ~loops depth =
    list_size (int_range 0 (if depth = 2 then 24 else 5)) (item ~nsubs ~loops depth)
  and item ~nsubs ~loops depth =
    if depth = 0 then leaf ~nsubs
    else
      frequency
        ([
           (10, leaf ~nsubs);
           ( 1,
             map2
               (fun (c, a) (b, body) -> If (c, a, b, body))
               (pair cond reg)
               (pair reg (items ~nsubs ~loops (depth - 1))) );
         ]
        @
        if loops then
          [
            ( 1,
              map2
                (fun n body -> Loop (n, body))
                (int_range 1 40)
                (items ~nsubs ~loops:false (depth - 1)) );
          ]
        else [])
  in
  let* subs = list_size (int_range 0 3) (items ~nsubs:0 ~loops:false 1) in
  let nsubs = List.length subs in
  let* main = items ~nsubs ~loops:true 2 in
  let* fork = bool in
  let* halt = frequencyl [ (4, false); (1, true) ] in
  let* init = list_size (int_range 0 4) (pair reg imm64) in
  let+ flips = list_size (int_range 0 3) (int_range 5 800) in
  { fork; init; subs; main; halt; flips }

(* Shrink toward a minimal failing program: drop any run of items at any
   nesting depth, subroutines, initial registers, bit flips and the
   fork. *)
let shrink_prog p =
  let open QCheck in
  let rec shrink_item = function
    | If (c, a, b, body) -> Iter.map (fun body -> If (c, a, b, body)) (shrink_items body)
    | Loop (n, body) -> Iter.map (fun body -> Loop (n, body)) (shrink_items body)
    | _ -> Iter.empty
  and shrink_items l = Shrink.list ~shrink:shrink_item l in
  Iter.(
    map (fun main -> { p with main }) (shrink_items p.main)
    <+> map (fun subs -> { p with subs }) (Shrink.list_spine p.subs)
    <+> map (fun init -> { p with init }) (Shrink.list_spine p.init)
    <+> map (fun flips -> { p with flips }) (Shrink.list_spine p.flips)
    <+> if p.fork then return { p with fork = false } else empty)

(* ----- running one program ----- *)

let prot_bits (pr : Self.prot) =
  (if pr.Self.p_r then 4 else 0) lor (if pr.Self.p_w then 2 else 0) lor if pr.Self.p_x then 1 else 0

(* Everything guest-visible, per process: state, retired count, every
   register and flag, console, and every resident page with its
   protection. *)
let proc_state (p : Proc.t) =
  let regs = p.Proc.regs in
  let pages =
    Hashtbl.fold (fun idx pg acc -> (idx, prot_bits pg.Mem.pg_prot, Bytes.to_string pg.Mem.pg_data) :: acc)
      p.Proc.mem.Mem.pages []
    |> List.sort compare
  in
  ( (p.Proc.pid, Proc.state_to_string p.Proc.state, p.Proc.retired, Proc.peek_stdout p),
    (List.map (Proc.gpr regs) Reg.all, Proc.rip regs, Proc.pack_flags regs),
    pages )

(* Every page of every VMA of [p] as the guest reads it, with its
   protection: an untouched page reads zero with its VMA's protection,
   so it equals a resident zero page; a given-up page reads as none.
   Zero pages are listed without their bytes. *)
let guest_pages (p : Proc.t) =
  let mem = p.Proc.mem in
  List.concat_map
    (fun (v : Mem.vma) ->
      List.init (v.Mem.va_len / Mem.page_size) (fun k ->
          let idx = Int64.add (Mem.page_index v.Mem.va_start) (Int64.of_int k) in
          match Hashtbl.find_opt mem.Mem.pages idx with
          | None -> (idx, prot_bits v.Mem.va_prot, "")
          | Some pg when pg == Mem.no_page -> (idx, -1, "")
          | Some pg ->
              let zero = Bytes.for_all (fun c -> c = '\x00') pg.Mem.pg_data in
              (idx, prot_bits pg.Mem.pg_prot, if zero then "" else Bytes.to_string pg.Mem.pg_data)))
    mem.Mem.vmas
  |> List.sort compare

(* The indexes of [mem]'s resident pages. *)
let resident (mem : Mem.t) =
  Hashtbl.fold (fun idx pg acc -> if pg == Mem.no_page then acc else idx :: acc) mem.Mem.pages []
  |> List.sort compare

type outcome = {
  o_clock : int64;
  o_states : string list;  (** every process's final state *)
  o_procs : string;  (** [proc_state] of every process, marshalled *)
  o_drcov : string;
  o_dump : string;
  o_flipped : (int * int64) option list;
  o_slice : string;  (** {!slicer_outcome}; empty unsliced *)
}

(* What a slicer computed, for comparison: its slice, every dynamic
   block it saw with the block's extent, and its stats. *)
let slicer_outcome sl = Marshal.to_string (Slicer.slice sl, Slicer.blocks sl, Slicer.stats sl) []

(* Slice the generated program's tree (pid 100), every socket write
   wanted. *)
let attach_slicer (m : Machine.t) = Slicer.attach m ~pid:100 ~wanted_out:(fun _ -> true) ()

(* The dump minus the slicer's own series: a sliced run and an unsliced
   one must agree on the rest. *)
let without_slice dump =
  String.split_on_char '\n' dump
  |> List.filter (fun l -> not (Workload.contains ~sub:"\"slice." l))
  |> String.concat "\n"

(* Load [p] into a fresh process (pid 100) of [m]. *)
let install_prog ?handled (m : Machine.t) p =
  let a_code, b_code = lower_prog ?handled p in
  let mem = Mem.create () in
  let map vaddr pages prot name =
    ignore (Mem.map mem ~vaddr ~len:(pages * Mem.page_size) ~prot ~name ())
  in
  map page_a 1 (Self.prot_of_int 5) "gen:.text";
  map page_b 2 (Self.prot_of_int 7) "gen:.smc";
  map data_base 1 Self.prot_rw "gen:.data";
  Vfs.add_self m.Machine.fs zeroed_file
    {
      Self.name = zeroed_file;
      kind = Self.Dyn;
      entry = 0;
      base = 0L;
      sections =
        [ { Self.sec_name = ".rodata"; sec_off = 0; sec_data = Bytes.make Mem.page_size '\x5a';
            sec_prot = Self.prot_of_int 4 } ];
      symbols = [];
      dynrelocs = [];
      needed = [];
      plt = [];
      got = [];
    };
  ignore
    (Mem.map mem ~vaddr:zeroed_base ~len:Mem.page_size ~prot:(Self.prot_of_int 4)
       ~file:(Some (zeroed_file, 0)) ~name:"gen:.rodata" ());
  Mem.poke_bytes mem zeroed_base (Bytes.make Mem.page_size '\x00');
  map (Int64.sub Proc.stack_top (Int64.of_int Proc.stack_size))
    (Proc.stack_size / Mem.page_size) Self.prot_rw "[stack]";
  Mem.poke_bytes mem page_a (Encode.program a_code);
  Mem.poke_bytes mem page_b (Encode.program b_code);
  ignore (Mem.take_exec_dirty mem);
  let proc = Proc.create ~pid:100 ~parent:0 ~comm:"gen" ~exe_path:"gen" ~mem in
  Proc.set_rip proc.Proc.regs page_b;
  Proc.set proc.Proc.regs Reg.Rsp (Int64.sub Proc.stack_top 64L);
  Machine.install m proc

(* An out-of-band write: flip one seeded bit of the [code] bytes of
   page A (the program's immutable code page) of a seeded live process,
   from outside the guest. The kernel-side poke marks the executable
   page dirty, so the cache must evict and re-decode. Returns the victim
   pid and the flipped address; [None] when no process is live. *)
let flip (m : Machine.t) rng ~code =
  match List.filter Proc.is_live (Machine.all_procs m) with
  | [] -> None
  | live ->
      let p = Rng.choose rng live in
      let mem = p.Proc.mem in
      let addr = Int64.add page_a (Int64.of_int (Rng.int rng code)) in
      let bit = Rng.int rng 8 in
      Mem.poke8 mem addr (Mem.peek8 mem addr lxor (1 lsl bit));
      Some (p.Proc.pid, addr)

(* A mid-run checkpoint of every live process, the way a cut takes one:
   dump, seal, then restore from the image the seal filled. Each frame
   must equal the frame sealed with every leaf sum dropped, and the
   restored pages take their leaf sums along, so the guest's stores
   after it must drop them. *)
let reload (m : Machine.t) =
  List.iter
    (fun (q : Proc.t) ->
      if Proc.is_live q then begin
        let pid = q.Proc.pid in
        let img = Checkpoint.dump m ~pid () in
        Test_imageflow.sealed_coherent img (Printf.sprintf "pid %d mid-run dump" pid);
        Machine.reap m ~pid;
        ignore (Restore.restore m img : Proc.t)
      end)
    (Machine.all_procs m)

(* Run [m] to the end of [p]: two mid-run [reload]s 150 cycles apart
   (the second seals what the guest stored after the first), a seeded
   bit flip after each of its cycle counts, then at most 20,000 cycles
   more. Then every page's leaf sum must be fresh, and a final dump of
   every live process must seal as it does cold. Returns the flips. *)
let run_flips (m : Machine.t) p =
  let rng = Rng.create 7 in
  let code = size (fst (lower_prog p)) in
  for _ = 1 to 2 do
    ignore (Machine.run m ~max_cycles:150);
    reload m
  done;
  let flipped =
    List.map
      (fun cycles ->
        ignore (Machine.run m ~max_cycles:cycles);
        flip m rng ~code)
      p.flips
  in
  ignore (Machine.run m ~max_cycles:20_000);
  Test_imageflow.sums_fresh m "generated program";
  List.iter
    (fun (q : Proc.t) ->
      if Proc.is_live q then
        Test_imageflow.sealed_coherent (Checkpoint.dump m ~pid:q.Proc.pid ()) "final dump")
    (Machine.all_procs m);
  flipped

let run_prog ?(sliced = false) ~reference p =
  Obs.reset ();
  Fault.reset ();
  let m = Machine.create () in
  if reference then interpret m;
  install_prog m p;
  let sl = if sliced then Some (attach_slicer m) else None in
  let col = Collector.attach m ~pid:100 in
  let flipped = run_flips m p in
  let o_dump = without_slice (without_bbcache (Obs.dump_json ())) in
  {
    o_clock = m.Machine.clock;
    o_states =
      List.map (fun (q : Proc.t) -> Proc.state_to_string q.Proc.state) (Machine.all_procs m);
    o_procs = Marshal.to_string (List.map proc_state (Machine.all_procs m)) [];
    o_drcov = Drcov.to_string (Collector.detach col);
    o_dump;
    o_flipped = flipped;
    o_slice = Option.fold ~none:"" ~some:slicer_outcome sl;
  }

(* The reference and the cache run the program sliced, and the cache
   once more unsliced: all three must be the same program, and the
   slicer must compute the same slice, blocks, extents and stats from
   the cache's traced slot loop as from the interpreter's steps. *)
let prop_cached_is_interpreted =
  QCheck.Test.make ~name:"generated programs: cached = interpreted" ~count:300
    (QCheck.make ~print:listing ~shrink:shrink_prog gen_prog)
    (fun p ->
      QCheck.assume (size (snd (lower_prog p)) <= 2 * Mem.page_size);
      let r = run_prog ~sliced:true ~reference:true p in
      let check run (c : outcome) =
        let differs what = QCheck.Test.fail_reportf "%s: %s differ" run what in
        if r.o_clock <> c.o_clock then differs "virtual clocks"
        else if r.o_flipped <> c.o_flipped then differs "bit flips"
        else if r.o_procs <> c.o_procs then differs "process states (registers, pages, console)"
        else if r.o_drcov <> c.o_drcov then differs "drcov logs"
        else if r.o_dump <> c.o_dump then differs "obs dumps (bbcache.* aside)"
        else if r.o_slice <> c.o_slice then differs "slicer outcomes"
        else true
      in
      check "sliced cache" (run_prog ~sliced:true ~reference:false p)
      && check "unsliced cache" { (run_prog ~reference:false p) with o_slice = r.o_slice })

(* The generator's census: over a fixed sample, the lowered programs use
   every [Insn.t] constructor (one opcode byte per constructor). *)
let test_generator_census () =
  let opcode i = Bytes.get (Encode.program [ i ]) 0 in
  let used = Hashtbl.create 64 in
  QCheck.Gen.generate ~rand:(Random.State.make [| 1 |]) ~n:100 gen_prog
  |> List.iter (fun p ->
         let a, b = lower_prog p in
         List.iter (fun i -> Hashtbl.replace used (opcode i) ()) (a @ b));
  List.iter
    (fun i ->
      Alcotest.(check bool) (Insn.to_string i ^ " generated") true (Hashtbl.mem used (opcode i)))
    Defuse.all_constructors

(* The flat summary a traced slot hands the slicer's step is
   [Defuse.effect] of its instruction: read back, it gives the same
   uses in the same order, defs, flags, memory operand and control
   class, for every constructor and for every instruction the
   generator lowers, registers included. *)
let test_slot_summaries () =
  let regs packed n = List.init n (fun k -> Reg.of_int ((packed lsr (4 * k)) land 15)) in
  let unflat (f : Defuse.flat) : Defuse.effect =
    let access = [ { Defuse.a_base = Reg.of_int f.Defuse.f_base; a_disp = f.Defuse.f_disp; a_len = f.Defuse.f_len } ] in
    {
      Defuse.uses = regs f.Defuse.f_uses f.Defuse.f_nuses;
      defs = regs f.Defuse.f_defs f.Defuse.f_ndefs;
      uses_flags = f.Defuse.f_uses_flags;
      defs_flags = f.Defuse.f_defs_flags;
      loads = (if f.Defuse.f_load then access else []);
      stores = (if f.Defuse.f_store then access else []);
      control = f.Defuse.f_control;
    }
  in
  let check i =
    let e = Defuse.effect i in
    if unflat (Defuse.flat e) <> e then
      Alcotest.failf "%s: flat summary differs from Defuse.effect" (Insn.to_string i)
  in
  List.iter check Defuse.all_constructors;
  QCheck.Gen.generate ~rand:(Random.State.make [| 1 |]) ~n:100 gen_prog
  |> List.iter (fun p ->
         let a, b = lower_prog p in
         List.iter check (a @ b))

(* A store into the executing block is seen at the next instruction: the
   cached block's stale copy of the mov must not run. *)
let test_mid_block_store () =
  let p =
    {
      fork = false;
      init = [ (Reg.Rcx, 77L) ];
      subs = [];
      main = [ Smc_imm Reg.Rcx; Op (Insn.Mov_rr (Reg.Rbx, Reg.Rax)) ];
      halt = false;
      flips = [];
    }
  in
  let r = run_prog ~reference:true p and c = run_prog ~reference:false p in
  Alcotest.(check (list string)) "reference exits with the stored immediate"
    [ "exited(77)" ] r.o_states;
  Alcotest.(check (list string)) "cached exits with it too" r.o_states c.o_states;
  Alcotest.(check bool) "process states identical" true (r.o_procs = c.o_procs);
  Alcotest.(check int64) "virtual clock identical" r.o_clock c.o_clock

(* An instruction in the last bytes of a page is fetched byte by byte,
   and only the bytes it has: five one-byte [nop]s and a [hlt] that end
   exactly at the page end leave the untouched anonymous page after it
   unmade, cached and interpreted alike. *)
let test_fetch_stays_in_insn () =
  List.iter
    (fun reference ->
      let m = Machine.create () in
      if reference then interpret m;
      let mem = Mem.create () in
      ignore (Mem.map mem ~vaddr:page_a ~len:Mem.page_size ~prot:(Self.prot_of_int 5) ~name:"gen:.text" ());
      ignore (Mem.map mem ~vaddr:page_b ~len:Mem.page_size ~prot:Self.prot_rw ~name:"[anon]" ());
      let tail = Encode.program [ Insn.Nop; Insn.Nop; Insn.Nop; Insn.Nop; Insn.Nop; Insn.Hlt ] in
      let at = Int64.sub page_b (Int64.of_int (Bytes.length tail)) in
      Mem.poke_bytes mem at tail;
      let p = Proc.create ~pid:100 ~parent:0 ~comm:"gen" ~exe_path:"gen" ~mem in
      Proc.set_rip p.Proc.regs at;
      Machine.install m p;
      ignore (Machine.run m ~max_cycles:100);
      let what = if reference then "interpreted" else "cached" in
      Alcotest.(check string) (what ^ ": hlt ran") "killed(SIGILL)"
        (Proc.state_to_string p.Proc.state);
      Alcotest.(check bool) (what ^ ": the next page is not made") false
        (List.mem (Mem.page_index page_b) (resident mem)))
    [ true; false ]

(* ---------- the apps: cached = interpreted ---------- *)

type run = {
  replies : string list;
  clock : int64;
  drcov : string;
  dump : string;  (** [Obs.dump_json] minus the cache's own series *)
  traps : int;
  clocks : string;  (** {!watch_clock} *)
}

(* Boot [app] traced, optionally cut it, drive [reqs]: decode, init, cut,
   trap-handler and serving paths all run cached unless [reference]. *)
let run_mode ~reference ?cut app reqs =
  Obs.reset ();
  Fault.reset ();
  let c = Workload.spawn ~traced:true app in
  let m = c.Workload.m in
  if reference then interpret m;
  let clocks = watch_clock m in
  Workload.wait_ready c;
  Option.iter
    (fun (blocks, policy) ->
      let session = Dynacut.create m ~root_pid:c.Workload.pid in
      ignore (Dynacut.cut session ~blocks ~policy))
    cut;
  let replies = List.map (Workload.rpc c) reqs in
  let drcov = Drcov.to_string (Collector.detach (Workload.collector c)) in
  {
    replies;
    clock = m.Machine.clock;
    drcov;
    dump = without_bbcache (Obs.dump_json ());
    traps = Obs.counter_value (Obs.counter "machine.traps");
    clocks = clocks ();
  }

(* Run the scenario on the reference, then cached, and demand the same
   program: the cache may change host time only. *)
let differential ?cut app reqs =
  let i = run_mode ~reference:true ?cut app reqs in
  let c = run_mode ~reference:false ?cut app reqs in
  Alcotest.(check (list string)) "replies identical" i.replies c.replies;
  Alcotest.(check int64) "virtual clock identical" i.clock c.clock;
  Alcotest.(check string) "drcov byte-identical" i.drcov c.drcov;
  Alcotest.(check string) "obs dump identical (bbcache.* aside)" i.dump c.dump;
  Option.iter (Alcotest.failf "clock observations differ: %s") (clock_difference i.clocks c.clocks);
  i

(* ltpd cut: the undesired requests take the trap -> redirect path *)
let test_drcov_identity_ltpd () =
  let r =
    differential
      ~cut:(Common.web_feature_blocks Workload.ltpd, lpolicy)
      Workload.ltpd
      (Workload.web_wanted @ Workload.web_undesired @ [ get ])
  in
  Alcotest.(check bool) "undesired requests really trapped" true (r.traps > 0)

let test_drcov_identity_rkv () =
  ignore (differential Workload.rkv (Workload.kv_wanted @ Workload.kv_undesired))

(* ---------- invalidation: cut -> flush -> re-enable -> re-decode ---------- *)

(* One full roundtrip on the dispatcher server: warm the cache, cut
   (checkpoint/rewrite/restore builds a fresh process, so the cache must
   read cold), serve against the rewritten text, re-enable, and prove
   the post-cut traffic re-decoded rather than reusing any pre-cut
   block. *)
let roundtrip method_ ~probe_cut () =
  Fault.reset ();
  let m, p = Test_core.boot () in
  let pid = p.Proc.pid in
  Alcotest.(check string) "pre-cut S" "SET-OK" (Test_core.request m "S");
  Alcotest.(check bool) "cache warm" true (Dispatch.cached_blocks m ~pid > 0);
  let decodes_warm = (stats m).Dispatch.st_decodes in
  let session = Dynacut.create m ~root_pid:pid in
  let policy = { Dynacut.method_; on_trap = `Redirect "err_path" } in
  let journals, (_ : Dynacut.timings) =
    Dynacut.cut session ~blocks:(Test_core.feature_blocks ()) ~policy
  in
  Alcotest.(check int) "cache cold after restore-from-image" 0
    (Dispatch.cached_blocks m ~pid);
  (* wanted path serves from re-decoded blocks of the rewritten text *)
  Alcotest.(check string) "wanted intact" "VAL=8" (Test_core.request m "G");
  if probe_cut then
    Alcotest.(check string) "feature blocked" "ERR" (Test_core.request m "S");
  Alcotest.(check bool) "post-cut traffic re-decoded" true
    ((stats m).Dispatch.st_decodes > decodes_warm);
  let decodes_cut = (stats m).Dispatch.st_decodes in
  (* re-enable restores the original bytes through another
     checkpoint/restore: cold again, then re-decode *)
  let (_ : Dynacut.timings) = Dynacut.reenable session journals in
  Alcotest.(check int) "cache cold after re-enable" 0
    (Dispatch.cached_blocks m ~pid);
  Alcotest.(check string) "feature restored" "SET-OK" (Test_core.request m "S");
  Alcotest.(check bool) "post-reenable traffic re-decoded" true
    ((stats m).Dispatch.st_decodes > decodes_cut)

(* `Unmap_pages keeps on_trap = `Kill (its only supported action), so the
   undesired probe would kill the server — skip it and roundtrip the
   wanted path only *)
let test_roundtrip_first_byte () = roundtrip `First_byte ~probe_cut:true ()
let test_roundtrip_wipe () = roundtrip `Wipe ~probe_cut:true ()

let test_roundtrip_unmap () =
  Fault.reset ();
  let m, p = Test_core.boot () in
  let pid = p.Proc.pid in
  Alcotest.(check string) "pre-cut S" "SET-OK" (Test_core.request m "S");
  Alcotest.(check bool) "cache warm" true (Dispatch.cached_blocks m ~pid > 0);
  let session = Dynacut.create m ~root_pid:pid in
  let journals, (_ : Dynacut.timings) =
    Dynacut.cut session
      ~blocks:(Test_core.feature_blocks ())
      ~policy:{ Dynacut.method_ = `Unmap_pages; on_trap = `Kill }
  in
  Alcotest.(check int) "cache cold after restore-from-image" 0
    (Dispatch.cached_blocks m ~pid);
  Alcotest.(check string) "wanted intact over unmapped pages" "VAL=8"
    (Test_core.request m "G");
  let (_ : Dynacut.timings) = Dynacut.reenable session journals in
  Alcotest.(check int) "cache cold after re-enable" 0
    (Dispatch.cached_blocks m ~pid);
  Alcotest.(check string) "feature restored" "SET-OK" (Test_core.request m "S")

(* ---------- self-modifying page: live patch evicts, never stale ---------- *)

let test_self_modifying_eviction () =
  Fault.reset ();
  let m, p = Test_core.boot () in
  let pid = p.Proc.pid in
  Alcotest.(check string) "warm" "SET-OK" (Test_core.request m "S");
  (* live first-byte int3, no checkpoint/restore cycle: the dirtied page
     must evict the cached do_set block before the next dispatch. A
     stale block would answer SET-OK; the re-decoded int3 (no verifier
     handler installed) must kill the server instead. *)
  let exe = Option.get (Vfs.find_self m.Machine.fs "dsrv") in
  let feat = Option.get (Self.find_symbol exe "feat_set") in
  let addr = Int64.add exe.Self.base (Int64.of_int feat.Self.sym_off) in
  Mem.poke8 (Machine.proc_exn m pid).Proc.mem addr 0xCC;
  let (_ : string) = Test_core.request m "S" in
  Alcotest.(check bool) "trap killed the worker (no stale block ran)" false
    (Proc.is_live (Machine.proc_exn m pid));
  Alcotest.(check bool) "eviction really happened" true
    ((stats m).Dispatch.st_flushes > 0)

(* ---------- cache coldness after per-worker recovery ---------- *)

let test_recover_coldness () =
  Fault.reset ();
  Obs.reset ();
  let fleet =
    Fleet.boot ~n:2 ~blocks:(Common.web_feature_blocks Workload.ltpd)
      ~policy:lpolicy Workload.ltpd
  in
  let m = Fleet.machine fleet and pids = Fleet.pids fleet in
  for _ = 1 to 4 do
    ignore (Fleet.request fleet get)
  done;
  List.iter
    (fun pid ->
      Alcotest.(check bool) "every worker warm" true
        (Dispatch.cached_blocks m ~pid > 0))
    pids;
  (* controller dies mid-restore during wave 1 of a rollout; recovery
     rolls the half-cut worker back from its pristine image — a fresh
     process whose cache must read cold *)
  Fault.arm ~kill:true Restore_process Fault.One_shot;
  let config =
    Rollout.
      {
        r_waves = 2;
        r_sup = { Supervisor.default_config with Supervisor.canary_windows = 1 };
      }
  in
  let drive () = ignore (Fleet.request fleet get) in
  (match Fleet.rollout fleet ~config ~drive () with
  | (_ : Rollout.outcome * Rollout.wave_report list) ->
      Alcotest.fail "controller survived its mid-restore death"
  | exception Fault.Controller_killed _ -> ());
  let rolled =
    List.filter
      (fun pid ->
        (Dynacut.recover m ~root_pid:pid).Dynacut.rec_action = `Rolled_back)
      pids
  in
  Alcotest.(check bool) "a worker was respawned from image" true (rolled <> []);
  List.iter
    (fun pid ->
      Alcotest.(check int) "no stale block survives respawn-from-image" 0
        (Dispatch.cached_blocks m ~pid))
    rolled;
  for _ = 1 to 4 do
    ignore (Fleet.request fleet get)
  done;
  List.iter
    (fun pid ->
      Alcotest.(check bool) "respawned worker re-decoded and serves" true
        (Dispatch.cached_blocks m ~pid > 0))
    rolled

(* ---------- the slicer runs on the cache ---------- *)

(* The differential test of the traced slot loop on the apps: the
   slicer attached after boot computes the same slice, blocks with
   their extents and stats on the cache as on the interpreter, and the
   machine serves the same replies at the same clock. *)
let test_slicer_on_cache () =
  let slice_run app reqs ~reference =
    Obs.reset ();
    Fault.reset ();
    let c = Workload.spawn app in
    if reference then interpret c.Workload.m;
    Workload.wait_ready c;
    let hits0 = (stats c.Workload.m).Dispatch.st_hits in
    let sl =
      Slicer.attach c.Workload.m ~pid:c.Workload.pid
        ~wanted_out:(Slicelab.wanted_out_of app) ()
    in
    let replies = List.map (Workload.rpc c) reqs in
    Slicer.detach sl;
    ( (replies, c.Workload.m.Machine.clock, Slicer.slice sl, Slicer.blocks sl, Slicer.stats sl),
      (stats c.Workload.m).Dispatch.st_hits - hits0 )
  in
  List.iter
    (fun (app, reqs) ->
      let name = app.Workload.a_name in
      let ((_, _, si, _, _) as r), _ = slice_run app reqs ~reference:true in
      let c, hits = slice_run app reqs ~reference:false in
      Alcotest.(check bool) (name ^ ": slice non-empty") true (si <> []);
      Alcotest.(check bool)
        (name ^ ": replies, clock, slice, blocks and extents, Slicer.stats = reference")
        true (r = c);
      Alcotest.(check bool) (name ^ ": the sliced run was served from the cache") true (hits > 0))
    [
      (Workload.ltpd, Workload.web_wanted @ [ get ]);
      (Workload.rkv, Workload.kv_wanted @ Workload.kv_undesired);
    ]

(* ---------- two-run determinism of the dump ---------- *)

let test_cached_dump_deterministic () =
  let run () =
    Obs.reset ();
    Fault.reset ();
    let c = Workload.boot Workload.ltpd in
    List.iter
      (fun r -> ignore (Workload.rpc c r))
      (Workload.web_wanted @ Workload.web_undesired);
    Obs.dump_json ()
  in
  Alcotest.(check string) "byte-identical dumps" (run ()) (run ())

(* ---------- every callback sees the interpreter's clock ---------- *)

(* The cache charges the clock once per dispatch chain, not per block
   or instruction, so each callback out of the machine must see the
   clock and ["machine.steps"] the reference shows it. The hooks are
   combined three ways: the trace hook alone (only the charge before
   it can make it exact), no per-block hook at all (only the syscall
   hook and trap events read the clock then), and the slicer with the
   trace hook, which runs the cache's traced slot loop: it leaves the
   charge to the chain too. Each runs with and without the signal
   handlers, so traps and faults are both resumed and fatal. *)
let prop_clock_observations =
  QCheck.Test.make ~name:"generated programs: callbacks see the reference clock" ~count:100
    (QCheck.make ~print:listing ~shrink:shrink_prog gen_prog)
    (fun p ->
      QCheck.assume (size (snd (lower_prog p)) <= 2 * Mem.page_size);
      let watch ~handled ~trace ~sliced ~reference =
        Obs.reset ();
        Fault.reset ();
        let m = Machine.create () in
        if reference then interpret m;
        let seen = watch_clock ~trace m in
        install_prog ~handled m p;
        if sliced then ignore (attach_slicer m : Slicer.t);
        ignore (run_flips m p : (int * int64) option list);
        seen ()
      in
      List.for_all
        (fun (handled, trace, sliced) ->
          let watch = watch ~handled ~trace ~sliced in
          match clock_difference (watch ~reference:true) (watch ~reference:false) with
          | None -> true
          | Some d ->
              QCheck.Test.fail_reportf "handled=%b trace=%b sliced=%b: %s" handled trace sliced d)
        [
          (true, true, false);
          (true, false, false);
          (true, true, true);
          (false, true, false);
          (false, false, false);
          (false, true, true);
        ])

(* ---------- restore is invisible ---------- *)

(* How [through_frames] brings a process back from its image: copied
   out of the frame's decode, as every restore from storage is, or
   taking over its own pages, as a transaction's commit does
   ({!Restore.replace}). *)
type restore_how = Copy | Adopt

(* Replace every live process of [m] by its restore from a stored
   frame: each live tree is dumped ([Checkpoint.dump_tree]), each image
   sealed into a frame, and the process restored [how] says, after
   [edit] wrote to the first image. The image carries neither the
   console output a process object has kept nor its retired-instruction
   count: the console belongs to the world outside, the count to the
   host's object (as CRIU restores no CPU-time accounting). [carried]
   gets each replaced object's, for [proc_state] to add to its
   restore's. A restored process holds no page resident that the
   replaced one did not: a dump leaves all-zero anonymous pages out, so
   the restore may hold fewer. *)
let through_frames ~how ?(edit = fun (_ : Machine.t) (_ : Images.t) -> ()) (m : Machine.t) carried =
  let live = List.filter Proc.is_live (Machine.all_procs m) in
  let root (q : Proc.t) = not (List.exists (fun (r : Proc.t) -> r.Proc.pid = q.Proc.parent) live) in
  let first = ref true in
  List.iter
    (fun (r : Proc.t) ->
      List.iter
        (fun img ->
          let pid = img.Images.core.Images.c_pid in
          let q = Machine.proc_exn m pid in
          Hashtbl.replace carried pid (Proc.peek_stdout q, q.Proc.retired);
          if !first then edit m img;
          first := false;
          let before = resident q.Proc.mem in
          let restored =
            match how with
            | Copy ->
                let frame = Validate.encode_sealed img in
                Machine.reap m ~pid;
                Restore.restore m (Validate.decode_sealed frame)
            | Adopt -> Restore.replace m (fst (Validate.seal_in_place img))
          in
          match List.filter (fun i -> not (List.mem i before)) (resident restored.Proc.mem) with
          | [] -> ()
          | idx :: _ ->
              QCheck.Test.fail_reportf "pid %d: page 0x%Lx resident after the restore only" pid
                (Int64.mul idx Mem.page_size64))
        (Checkpoint.dump_tree m ~root:r.Proc.pid ()))
    (List.filter root live)

(* Run [p] on the cache for [k] cycles, through [through_frames] when
   [how] is given, then for at most 20,000 cycles more: the outcome,
   and what the callbacks saw of the clock ({!watch_clock}). The
   slicer traces the tree all along and must carry on through the
   restores as if there were none. [between] sees the machine and the pages restored
   ([criu.pages_adopted], [criu.pages_copied]) right after the
   restores. *)
let run_stored ?how ?edit ?(between = fun (_ : Machine.t) (_ : int * int) -> ()) ~k p =
  Obs.reset ();
  Fault.reset ();
  let m = Machine.create () in
  let seen = watch_clock ~trace:false m in
  install_prog m p;
  let sl = attach_slicer m in
  ignore (Machine.run m ~max_cycles:k);
  let carried = Hashtbl.create 2 in
  (match how with
  | Some how ->
      through_frames ~how ?edit m carried;
      between m
        ( Obs.counter_value (Obs.counter "criu.pages_adopted"),
          Obs.counter_value (Obs.counter "criu.pages_copied") )
  | None ->
      (* a restore resumes every process runnable, so one dumped
         mid-sleep wakes at once: the image keeps its wake time only as
         text. The run that is not dumped wakes its sleepers at the same
         point *)
      List.iter
        (fun (q : Proc.t) ->
          match q.Proc.state with
          | Proc.Blocked (Proc.On_sleep _) -> q.Proc.state <- Proc.Runnable
          | _ -> ())
        (Machine.all_procs m));
  ignore (Machine.run m ~max_cycles:20_000);
  (* pages as the guest reads them: a restore leaves out what the dump
     did, all-zero anonymous pages, so residency may differ *)
  let state (q : Proc.t) =
    let (pid, st, retired, out), regs, _ = proc_state q in
    let pages = guest_pages q in
    match Hashtbl.find_opt carried pid with
    | Some (out0, retired0) -> ((pid, st, retired0 + retired, out0 ^ out), regs, pages)
    | None -> ((pid, st, retired, out), regs, pages)
  in
  let o_slice = slicer_outcome sl in
  ( {
      o_clock = m.Machine.clock;
      o_states =
        List.map (fun (q : Proc.t) -> Proc.state_to_string q.Proc.state) (Machine.all_procs m);
      (* marshalled without sharing: a restored register holds the
         image's boxed value, which may be shared where the live one
         was not *)
      o_procs = Marshal.to_string (List.map state (Machine.all_procs m)) [ Marshal.No_sharing ];
      o_drcov = "";
      (* the dump's and the restore's own series: the seal's
         [criu.leaves_hashed], the restore's [criu.pages_*] and the
         [tcp_repair] span, which charges no cycle *)
      o_dump =
        String.split_on_char '\n' (without_bbcache (Obs.dump_json ()))
        |> List.filter (fun l ->
               not (Workload.contains ~sub:"\"criu." l || Workload.contains ~sub:"\"tcp_repair\"" l))
        |> String.concat "\n";
      o_flipped = [];
      o_slice;
    },
    seen () )

(* [Some what] when two outcomes of [run_stored] differ in [what] *)
let stored_difference (r, r_seen) (c, c_seen) =
  if r.o_clock <> c.o_clock then Some "virtual clocks"
  else if r.o_states <> c.o_states then Some "process states"
  else if r.o_procs <> c.o_procs then Some "processes (registers, pages, console)"
  else if r.o_dump <> c.o_dump then Some "obs dumps (bbcache.*, criu.* and tcp_repair aside)"
  else if r.o_slice <> c.o_slice then Some "slicer outcomes"
  else Option.map (fun d -> "clock observations: " ^ d) (clock_difference r_seen c_seen)

let gen_stored = QCheck.Gen.(pair (int_range 1 600) gen_prog)

let arb_stored ?(print_extra = fun _ -> "") gen =
  QCheck.make
    ~print:(fun ((k, p), x) -> Printf.sprintf "k=%d%s\n%s" k (print_extra x) (listing p))
    ~shrink:(fun ((k, p), x) -> QCheck.Iter.map (fun p -> ((k, p), x)) (shrink_prog p))
    gen

(* A process that goes through a stored frame carries on as if it had
   not: after [k] cycles of a generated program, dumping, sealing and
   restoring every live process — from the frame's decode, or taking
   over its own pages — changes nothing the cached-vs-interpreted
   oracle compares, nor the (clock, steps) any callback sees, but for a
   sleep the restore cuts short (see [run_stored]). Neither dump nor
   restore charges the clock. The trace hook and drcov stay out: the
   image carries no trace state, so a dump between two instructions of
   a block splits that block in the trace. *)
let prop_restore_invisible =
  QCheck.Test.make ~name:"generated programs: restore from a stored frame is invisible"
    ~count:200
    (arb_stored QCheck.Gen.(pair gen_stored unit))
    (fun ((k, p), ()) ->
      QCheck.assume (size (snd (lower_prog p)) <= 2 * Mem.page_size);
      let r = run_stored ~k p in
      List.for_all
        (fun (how, name) ->
          match stored_difference r (run_stored ~how ~k p) with
          | Some what -> QCheck.Test.fail_reportf "%s restore: %s differ" name what
          | None -> true)
        [ (Copy, "copying"); (Adopt, "adopting") ])

(* An edit lands in one page of the first image: a seeded slot and
   offset, and 1 to 8 bytes, each flipped from what the image holds, so
   the edit always changes the page. Returns the edited address. *)
let edit_at (slot, off, n) (img : Images.t) =
  let npages = List.fold_left (fun t (pm : Images.pagemap_entry) -> t + pm.Images.pm_npages) 0 img.Images.pagemap in
  let slot = slot mod npages in
  let rec at slot = function
    | [] -> assert false
    | (pm : Images.pagemap_entry) :: rest ->
        if slot < pm.Images.pm_npages then Int64.add pm.Images.pm_vaddr (Int64.of_int (slot * Mem.page_size))
        else at (slot - pm.Images.pm_npages) rest
  in
  let addr = Int64.add (at slot img.Images.pagemap) (Int64.of_int (off mod (Mem.page_size - n + 1))) in
  let old = Images.read_mem img addr n in
  Images.write_mem img addr (Bytes.map (fun c -> Char.chr (Char.code c lxor 0xa5)) old);
  addr

(* A slot an edit wrote is copied, never taken over: after a seeded
   [Images.write_mem] into one page of the first image, the adopting
   restore copies exactly that page, takes over every other, leaves the
   edited page's old buffer with the reaped process, and the run carries
   on as the copying restore of the same edited image does. *)
let prop_edited_page_copied =
  QCheck.Test.make ~name:"generated programs: an edited page is copied, the rest adopted"
    ~count:100
    (arb_stored
       ~print_extra:(fun (slot, off, n) -> Printf.sprintf " edit slot %d off %d len %d" slot off n)
       QCheck.Gen.(pair gen_stored (triple (int_bound 1000) (int_bound 4095) (int_range 1 8))))
    (fun ((k, p), e) ->
      QCheck.assume (size (snd (lower_prog p)) <= 2 * Mem.page_size);
      let edited = ref None in
      let edit _ img =
        let pid = img.Images.core.Images.c_pid in
        edited := Some (pid, edit_at e img)
      in
      let c = run_stored ~how:Copy ~edit ~k p in
      (* a program that ended within [k] cycles leaves nothing to edit *)
      QCheck.assume (!edited <> None);
      let donor = ref None in
      let edit_adopted m img =
        edit m img;
        let pid, addr = Option.get !edited in
        let mem = (Machine.proc_exn m pid).Proc.mem in
        donor := Some (mem, Hashtbl.find mem.Mem.pages (Mem.page_index addr))
      and between m (adopted, copied) =
        let pid, addr = Option.get !edited in
        let mem, old = Option.get !donor in
        let now = Hashtbl.find (Machine.proc_exn m pid).Proc.mem.Mem.pages (Mem.page_index addr) in
        if copied <> 1 || adopted = 0 then
          QCheck.Test.fail_reportf "%d pages adopted, %d copied: want the edited one copied" adopted
            copied;
        let kept =
          match Hashtbl.find_opt mem.Mem.pages (Mem.page_index addr) with
          | Some q -> q == old
          | None -> false
        in
        if now.Mem.pg_data == old.Mem.pg_data || not kept then
          QCheck.Test.fail_reportf "the edited page at 0x%Lx was taken over" addr
      in
      match stored_difference c (run_stored ~how:Adopt ~edit:edit_adopted ~between ~k p) with
      | Some what -> QCheck.Test.fail_reportf "adopting vs copying restore of an edit: %s differ" what
      | None -> true)

(* ---------- a dropped machine is collected ---------- *)

(* [Machine.create] installs a process-global hook, the registry
   clock; it must not keep a dropped machine, its pages and its decoded
   blocks alive. *)
let test_dropped_machine_collected () =
  let weak = Weak.create 1 in
  let[@inline never] boot () =
    let c = Workload.boot Workload.rkv in
    Weak.set weak 0 (Some c.Workload.m)
  in
  boot ();
  Gc.full_major ();
  Alcotest.(check bool) "machine collected" false (Weak.check weak 0)

(* ---------- allocation gate: decoding ---------- *)

(* Minor words allocated by one cold boot of rkv, per block its
   dispatcher decoded: exact on a given build, after a warm-up boot.
   The boot's other work (loader, spawn, the guest's init) is counted
   too, so the gate moves with them. The bound was first recorded when
   [Block.decode] stopped building a fetch closure, a result pair, a
   list cell and boxed positions per instruction (191.0 measured; 314.0
   before it), and lowered when the boot's guest code stopped boxing a
   clock per cached block (167.31 measured; 190.84 before it). Raise it
   only for a named reason, in CHANGES.md. *)
let words_per_decode_bound = 168.0

let test_decode_allocation_gate () =
  ignore (Workload.boot Workload.rkv : Workload.ctx);
  Obs.reset ();
  let w0 = Gc.minor_words () in
  let c = Workload.boot Workload.rkv in
  let words = Gc.minor_words () -. w0 in
  let per_block = words /. float_of_int (stats c.Workload.m).Dispatch.st_decodes in
  if per_block > words_per_decode_bound then
    Alcotest.failf "cold rkv boot: %.1f minor words per decoded block, bound %.1f" per_block
      words_per_decode_bound

(* ---------- allocation gate: warm serving ---------- *)

(* Minor words allocated per [Workload.rpc] by a warm server: boot,
   serve the wanted mix once so every block is decoded and every
   registry series made, then count three more rounds of it. Exact on
   a given build: the guest replays bit for bit. The bounds were
   recorded when the code cache stopped charging the clock per block
   (an [int64] box and a [caml_modify] each) and stopped calling
   polymorphic [min] per block: 1144.44 on ltpd and 797.82 on rkv
   measured, 5259.11 and 1991.36 before it. Raise one only for a named
   reason, in CHANGES.md. *)
let words_per_web_rpc_bound = 1144.45
let words_per_kv_rpc_bound = 797.82

let warm_words_per_rpc app requests =
  Obs.reset ();
  let c = Workload.boot app in
  List.iter (fun r -> ignore (Workload.rpc c r : string)) requests;
  let rounds = 3 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    List.iter (fun r -> ignore (Workload.rpc c r : string)) requests
  done;
  (Gc.minor_words () -. w0) /. float_of_int (rounds * List.length requests)

let test_warm_serving_allocation_gate () =
  List.iter
    (fun (app, requests, bound) ->
      let per_rpc = warm_words_per_rpc app requests in
      if per_rpc > bound then
        Alcotest.failf "warm %s: %.2f minor words per request, bound %.2f"
          app.Workload.a_name per_rpc bound)
    [
      (Workload.ltpd, Workload.web_wanted, words_per_web_rpc_bound);
      (Workload.rkv, Workload.kv_wanted, words_per_kv_rpc_bound);
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
      prop_cached_is_interpreted;
    Alcotest.test_case "generator covers every Insn.t constructor" `Quick
      test_generator_census;
    Alcotest.test_case "mid-block store seen at the next instruction" `Quick
      test_mid_block_store;
    Alcotest.test_case "a fetch near a page end stays in the instruction" `Quick
      test_fetch_stays_in_insn;
    Alcotest.test_case "drcov byte-identity: ltpd" `Quick
      test_drcov_identity_ltpd;
    Alcotest.test_case "drcov byte-identity: rkv" `Quick test_drcov_identity_rkv;
    Alcotest.test_case "roundtrip: first-byte cut" `Quick
      test_roundtrip_first_byte;
    Alcotest.test_case "roundtrip: wipe cut" `Quick test_roundtrip_wipe;
    Alcotest.test_case "roundtrip: unmap cut" `Quick test_roundtrip_unmap;
    Alcotest.test_case "self-modifying page evicts" `Quick
      test_self_modifying_eviction;
    Alcotest.test_case "post-recover coldness" `Quick test_recover_coldness;
    Alcotest.test_case "slicer runs on the cache" `Quick test_slicer_on_cache;
    Alcotest.test_case "cached dump is deterministic" `Quick
      test_cached_dump_deterministic;
    Alcotest.test_case "dropped machine is collected" `Quick
      test_dropped_machine_collected;
    Alcotest.test_case "slot summaries = Defuse.effect" `Quick test_slot_summaries;
    Alcotest.test_case "allocation gate: words per decoded block" `Quick
      test_decode_allocation_gate;
    Alcotest.test_case "allocation gate: words per warm request" `Quick
      test_warm_serving_allocation_gate;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
      prop_clock_observations;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
      prop_restore_invisible;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
      prop_edited_page_copied;
  ]
