(** Per-process virtual memory: a sparse page table plus a VMA list.

    Pages carry their protection, so an access needs only the page
    record; VMAs carry the metadata CRIU's [mm.img] records
    — start, end, permissions, backing file and offset — exactly the
    fields DynaCut edits when it unmaps code pages or injects a library
    (paper §3.3).

    The hot path (instruction fetch, loads, stores) finds the page record
    in a 64-entry direct-mapped TLB keyed by page number, and falls back
    to the page table's hash lookup on a miss. The TLB caches only the
    page-number → record binding: protection is read live from the
    record, so [protect] needs no flush. [unmap] flushes it, and
    so does [map], so no change to the page table outlives a cached
    entry.

    Anonymous memory is demand-zero, as the kernel makes it: [map] and
    the unsupplied pages of [map_pages] make no page. The first guest
    access or kernel-side write to a page a VMA covers makes it zero,
    with that VMA's protection, in [lookup], the funnel every such
    access takes; so the pages a dump finds resident are the pages the
    process touched, as CRIU's pagemap would report them. Observers
    ([peek8], [peek_bytes]) read an untouched page as zero without
    making it, so looking never changes what the next dump holds. *)

type access = Read | Write | Exec

exception Fault of int64 * access
(** Address + attempted access; the machine turns this into SIGSEGV. *)

type vma = {
  va_start : int64;
  va_len : int;  (** bytes, page-multiple *)
  va_prot : Self.prot;
  va_file : (string * int) option;  (** backing file path + offset *)
  va_name : string;  (** e.g. "ngx:.text", "[stack]", "[anon]" *)
}

let vma_end v = Int64.add v.va_start (Int64.of_int v.va_len)

type page = {
  pg_data : bytes;
  mutable pg_prot : Self.prot;
  mutable pg_sum : int;
      (** the image seal's leaf sum of [pg_data], or [Bytesx.no_leaf]:
          every store drops it, only [map_pages] sets it *)
}

let tlb_size = 64

type t = {
  pages : (int64, page) Hashtbl.t;
      (** page index -> the page, once something touched it, or
          {!no_page}, the tombstone {!give_up} leaves: a slot whose
          buffer went to another address space faults and is never made
          again. An index the table lacks is untouched, and zero. *)
  tlb_tag : int array;
      (** per TLB slot: the cached page number, or -1 (empty); page
          number [n] lives in slot [n land (tlb_size - 1)] *)
  tlb_page : page array;  (** per TLB slot: the page record of [tlb_tag] *)
  mutable vmas : vma list;  (** sorted by start *)
  exec_dirty : (int64, unit) Hashtbl.t;
      (** page indexes of executable pages modified since the last drain —
          the precise invalidation signal the decoded-block code cache
          consumes: any store, poke, bit flip, reprotect or unmap that
          touches an executable page lands its index here, and the cache
          dispatcher evicts exactly the blocks overlapping these pages
          before running another cached block *)
  mutable exec_gen : int;
      (** bumped with every {!mark_exec_dirty}: a store that moves it
          ends the executing cached block at the next slot, so a store
          into that block is seen at the next instruction *)
}

let page_size = 4096
let page_size64 = 4096L
(* Addresses are unsigned: a logical shift and a mask, so a high-half
   address lands on its own (unmapped) page instead of a negative offset
   into page 0. *)
let page_index (addr : int64) = Int64.shift_right_logical addr 12
let page_base (addr : int64) = Int64.logand addr (-4096L)
let page_offset (addr : int64) = Int64.to_int addr land (page_size - 1)

(* fills empty TLB slots, whose tag -1 no page number equals, marks a
   given-up slot in the page table, and is what an observer finds on an
   untouched page *)
let no_page =
  {
    pg_data = Bytes.empty;
    pg_prot = { Self.p_r = false; p_w = false; p_x = false };
    pg_sum = Bytesx.no_leaf;
  }

let create () =
  {
    pages = Hashtbl.create 256;
    tlb_tag = Array.make tlb_size (-1);
    tlb_page = Array.make tlb_size no_page;
    vmas = [];
    exec_dirty = Hashtbl.create 8;
    exec_gen = 0;
  }

let tlb_flush t = Array.fill t.tlb_tag 0 tlb_size (-1)

(* The VMA covering page [idx]; raises [Not_found] when none does. *)
let covering t idx =
  let a = Int64.mul idx page_size64 in
  List.find (fun v -> v.va_start <= a && a < vma_end v) t.vmas

(* The page record holding [addr], through the TLB (a hit allocates
   nothing). An untouched page is made here, zero, with the protection
   of the VMA covering it: the one place demand-zero happens. Raises
   [Not_found] when no VMA covers [addr] or its page was given up. *)
let lookup t addr =
  let tag = Int64.to_int (Int64.shift_right_logical addr 12) in
  let slot = tag land (tlb_size - 1) in
  if Array.unsafe_get t.tlb_tag slot = tag then Array.unsafe_get t.tlb_page slot
  else begin
    let idx = page_index addr in
    let p =
      match Hashtbl.find t.pages idx with
      | p -> if p == no_page then raise Not_found else p
      | exception Not_found ->
          let p =
            {
              pg_data = Bytes.make page_size '\x00';
              pg_prot = (covering t idx).va_prot;
              pg_sum = Bytesx.no_leaf;
            }
          in
          Hashtbl.replace t.pages idx p;
          p
    in
    Array.unsafe_set t.tlb_tag slot tag;
    Array.unsafe_set t.tlb_page slot p;
    p
  end

(* The page an observer reads at [addr]: {!lookup} without making an
   untouched page or filling the TLB. An untouched page comes back as
   {!no_page}, which reads as zero. *)
let observe t addr =
  let tag = Int64.to_int (Int64.shift_right_logical addr 12) in
  let slot = tag land (tlb_size - 1) in
  if Array.unsafe_get t.tlb_tag slot = tag then Array.unsafe_get t.tlb_page slot
  else
    let idx = page_index addr in
    match Hashtbl.find t.pages idx with
    | p -> if p == no_page then raise Not_found else p
    | exception Not_found ->
        ignore (covering t idx : vma);
        no_page

let mark_exec_dirty t idx =
  Hashtbl.replace t.exec_dirty idx ();
  t.exec_gen <- t.exec_gen + 1

(** Return the dirtied executable page indexes and clear the set. *)
let take_exec_dirty t =
  let l = Hashtbl.fold (fun k () acc -> k :: acc) t.exec_dirty [] in
  Hashtbl.reset t.exec_dirty;
  l

let align_up n = (n + page_size - 1) / page_size * page_size

let overlaps a_start a_len b_start b_len =
  let a_end = Int64.add a_start (Int64.of_int a_len) in
  let b_end = Int64.add b_start (Int64.of_int b_len) in
  a_start < b_end && b_start < a_end

(** {!map} with the pages given, as restore builds an address space:
    [page i] is [Some (data, sum)] to make the [i]th page of the range
    from [data], a page-sized buffer the mapping takes over, with leaf
    sum [sum]; [None] leaves it untouched. A given page counts as a
    kernel-side write: in an executable mapping it lands in the dirty
    set, as a {!poke_bytes} would put it there. *)
let map_pages t ~vaddr ~len ~prot ?(file = None) ~name page =
  if Int64.rem vaddr page_size64 <> 0L then
    invalid_arg (Printf.sprintf "Mem.map: unaligned vaddr 0x%Lx" vaddr);
  let len = align_up (max len 1) in
  if List.exists (fun v -> overlaps v.va_start v.va_len vaddr len) t.vmas then
    invalid_arg (Printf.sprintf "Mem.map: overlap at 0x%Lx+%d (%s)" vaddr len name);
  let v = { va_start = vaddr; va_len = len; va_prot = prot; va_file = file; va_name = name } in
  t.vmas <- List.sort (fun a b -> compare a.va_start b.va_start) (v :: t.vmas);
  for i = 0 to (len / page_size) - 1 do
    match page i with
    | None -> ()
    | Some (data, sum) ->
        if Bytes.length data <> page_size then invalid_arg "Mem.map_pages: page size";
        let idx = Int64.add (page_index vaddr) (Int64.of_int i) in
        if prot.Self.p_x then mark_exec_dirty t idx;
        Hashtbl.replace t.pages idx { pg_data = data; pg_prot = prot; pg_sum = sum }
  done;
  tlb_flush t;
  v

(** Map [len] bytes at [vaddr] (both page-aligned after rounding) with
    [prot], every page untouched. Fails if the range overlaps an
    existing VMA. *)
let map t ~vaddr ~len ~prot ?file ~name () =
  map_pages t ~vaddr ~len ~prot ?file ~name (fun _ -> None)

(** Unmap every page in [vaddr, vaddr+len); VMAs fully inside the range are
    removed, partially covered VMAs are split. *)
let unmap t ~vaddr ~len =
  let len = align_up (max len 1) in
  let range_end = Int64.add vaddr (Int64.of_int len) in
  let keep, affected =
    List.partition (fun v -> not (overlaps v.va_start v.va_len vaddr len)) t.vmas
  in
  let fragments =
    List.concat_map
      (fun v ->
        let frags = ref [] in
        (* fragment before the hole *)
        if v.va_start < vaddr then
          frags :=
            { v with va_len = Int64.to_int (Int64.sub vaddr v.va_start) } :: !frags;
        (* fragment after the hole *)
        if vma_end v > range_end then
          frags :=
            {
              v with
              va_start = range_end;
              va_len = Int64.to_int (Int64.sub (vma_end v) range_end);
              va_file =
                (match v.va_file with
                | Some (f, off) ->
                    Some (f, off + Int64.to_int (Int64.sub range_end v.va_start))
                | None -> None);
            }
            :: !frags;
        !frags)
      affected
  in
  t.vmas <- List.sort (fun a b -> compare a.va_start b.va_start) (keep @ fragments);
  let npages = len / page_size in
  for i = 0 to npages - 1 do
    let idx = Int64.add (page_index vaddr) (Int64.of_int i) in
    (match Hashtbl.find_opt t.pages idx with
    | Some p when p.pg_prot.Self.p_x -> mark_exec_dirty t idx
    | _ -> ());
    Hashtbl.remove t.pages idx
  done;
  tlb_flush t

let protect t ~vaddr ~len ~prot =
  let len = align_up (max len 1) in
  let range_end = Int64.add vaddr (Int64.of_int len) in
  t.vmas <-
    List.concat_map
      (fun v ->
        if not (overlaps v.va_start v.va_len vaddr len) then [ v ]
        else begin
          (* split into up to three pieces; middle gets the new prot *)
          let pieces = ref [] in
          if v.va_start < vaddr then
            pieces := { v with va_len = Int64.to_int (Int64.sub vaddr v.va_start) } :: !pieces;
          let mid_start = max v.va_start vaddr in
          let mid_end = min (vma_end v) range_end in
          pieces :=
            {
              v with
              va_start = mid_start;
              va_len = Int64.to_int (Int64.sub mid_end mid_start);
              va_prot = prot;
              va_file =
                (match v.va_file with
                | Some (f, off) ->
                    Some (f, off + Int64.to_int (Int64.sub mid_start v.va_start))
                | None -> None);
            }
            :: !pieces;
          if vma_end v > range_end then
            pieces :=
              {
                v with
                va_start = range_end;
                va_len = Int64.to_int (Int64.sub (vma_end v) range_end);
                va_file =
                  (match v.va_file with
                  | Some (f, off) ->
                      Some (f, off + Int64.to_int (Int64.sub range_end v.va_start))
                  | None -> None);
              }
              :: !pieces;
          List.sort (fun a b -> compare a.va_start b.va_start) !pieces
        end)
      t.vmas;
  let npages = len / page_size in
  for i = 0 to npages - 1 do
    let idx = Int64.add (page_index vaddr) (Int64.of_int i) in
    match Hashtbl.find_opt t.pages idx with
    | Some p when p != no_page ->
        if p.pg_prot.Self.p_x || prot.Self.p_x then mark_exec_dirty t idx;
        p.pg_prot <- prot
    | _ -> ()
  done

(* ---------- accesses ---------- *)

let get_page t addr access =
  match lookup t addr with
  | exception Not_found -> raise (Fault (addr, access))
  | p ->
      let ok =
        match access with
        | Read -> p.pg_prot.Self.p_r
        | Write -> p.pg_prot.Self.p_w
        | Exec -> p.pg_prot.Self.p_x
      in
      if not ok then raise (Fault (addr, access));
      p

let read8 t addr =
  let p = get_page t addr Read in
  Char.code (Bytes.get p.pg_data (page_offset addr))

let fetch8 t addr =
  let p = get_page t addr Exec in
  Char.code (Bytes.get p.pg_data (page_offset addr))

let exec_page t addr = get_page t addr Exec

let write8 t addr v =
  let p = get_page t addr Write in
  if p.pg_prot.Self.p_x then mark_exec_dirty t (page_index addr);
  p.pg_sum <- Bytesx.no_leaf;
  Bytes.set p.pg_data (page_offset addr) (Char.chr (v land 0xff))

(** Raw write ignoring protections — used only by the loader and by
    checkpoint restore (kernel-side writes). *)
let poke8 t addr v =
  match lookup t addr with
  | exception Not_found -> raise (Fault (addr, Write))
  | p ->
      if p.pg_prot.Self.p_x then mark_exec_dirty t (page_index addr);
      p.pg_sum <- Bytesx.no_leaf;
      Bytes.set p.pg_data (page_offset addr) (Char.chr (v land 0xff))

let peek8 t addr =
  match observe t addr with
  | exception Not_found -> raise (Fault (addr, Read))
  | p -> if p == no_page then 0 else Char.code (Bytes.get p.pg_data (page_offset addr))

let read64 t addr =
  (* fast path: within one page *)
  if page_offset addr <= page_size - 8 then (
    let p = get_page t addr Read in
    Bytes.get_int64_le p.pg_data (page_offset addr))
  else (
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8)
             (Int64.of_int (read8 t (Int64.add addr (Int64.of_int i))))
    done;
    !v)

let write64 t addr (v : int64) =
  if page_offset addr <= page_size - 8 then (
    let p = get_page t addr Write in
    if p.pg_prot.Self.p_x then mark_exec_dirty t (page_index addr);
    p.pg_sum <- Bytesx.no_leaf;
    Bytes.set_int64_le p.pg_data (page_offset addr) v)
  else
    for i = 0 to 7 do
      write8 t (Int64.add addr (Int64.of_int i))
        (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL))
    done

(* How {!chunked} finds a page: a guest access ([Checked]), a
   kernel-side write ([Raw]) or an observer's read ([Observe], which
   makes no page and hands an untouched one over as {!no_page}). *)
type via = Checked | Raw | Observe

(* The one copy loop under [read_bytes], [write_bytes], [peek_bytes] and
   [poke_bytes]: per page one lookup and, when [Checked], one permission
   check, then [f page addr off pos n] moves the [n] bytes at [pos] of
   the range to or from [off] in the page holding [addr]. A fault names
   the first inaccessible byte, after every byte before it was copied. *)
let chunked t via access addr len f =
  let pos = ref 0 in
  while !pos < len do
    let a = Int64.add addr (Int64.of_int !pos) in
    let p =
      match via with
      | Checked -> get_page t a access
      | Raw -> ( try lookup t a with Not_found -> raise (Fault (a, access)))
      | Observe -> ( try observe t a with Not_found -> raise (Fault (a, access)))
    in
    let off = page_offset a in
    let n = min (len - !pos) (page_size - off) in
    f p a off !pos n;
    pos := !pos + n
  done

let store t via addr (b : bytes) =
  chunked t via Write addr (Bytes.length b) (fun p a off pos n ->
      if p.pg_prot.Self.p_x then mark_exec_dirty t (page_index a);
      p.pg_sum <- Bytesx.no_leaf;
      Bytes.blit b pos p.pg_data off n)

let load t via addr len =
  let b = Bytes.create len in
  chunked t via Read addr len (fun p _ off pos n ->
      if p == no_page then Bytes.fill b pos n '\x00' else Bytes.blit p.pg_data off b pos n);
  b

let read_bytes t addr len = load t Checked addr len
let write_bytes t addr b = store t Checked addr b
let poke_bytes t addr b = store t Raw addr b
let peek_bytes t addr len = load t Observe addr len

(** Read a NUL-terminated string (bounded at 1 MiB to catch runaways). *)
let read_cstring t addr =
  let b = Buffer.create 32 in
  let rec go i =
    if i > 1_048_576 then failwith "read_cstring: unterminated";
    let c = read8 t (Int64.add addr (Int64.of_int i)) in
    if c = 0 then Buffer.contents b
    else begin
      Buffer.add_char b (Char.chr c);
      go (i + 1)
    end
  in
  go 0

(** Deep copy (fork): the resident pages, each tombstone kept as one;
    an untouched page stays untouched. *)
let copy t =
  let pages = Hashtbl.create (Hashtbl.length t.pages) in
  Hashtbl.iter
    (fun k p ->
      Hashtbl.replace pages k
        (if p == no_page then no_page
         else { pg_data = Bytes.copy p.pg_data; pg_prot = p.pg_prot; pg_sum = p.pg_sum }))
    t.pages;
  (* a fresh address space has no cached blocks, so it starts clean *)
  {
    pages;
    tlb_tag = Array.make tlb_size (-1);
    tlb_page = Array.make tlb_size no_page;
    vmas = t.vmas;
    exec_dirty = Hashtbl.create 8;
    exec_gen = 0;
  }

(** Give up [pg] when it is the page resident at [vaddr] (physical
    equality): a tombstone takes its place in the page table and it
    leaves the TLB, so an access to [vaddr] through [t] faults from now
    on instead of making a fresh zero page, and [true] says its buffer
    is the caller's. A buffer belongs to one address space at a time. *)
let give_up t vaddr pg =
  let idx = page_index vaddr in
  match Hashtbl.find_opt t.pages idx with
  | Some p when p == pg && p != no_page ->
      Hashtbl.replace t.pages idx no_page;
      let tag = Int64.to_int idx in
      let slot = tag land (tlb_size - 1) in
      if t.tlb_tag.(slot) = tag then t.tlb_tag.(slot) <- -1;
      true
  | _ -> false

(** Resident pages of a VMA, as (vaddr, page) in address order. *)
let pages_of_vma t (v : vma) =
  let first = page_index v.va_start in
  let n = v.va_len / page_size in
  List.filter_map
    (fun i ->
      let idx = Int64.add first (Int64.of_int i) in
      match Hashtbl.find_opt t.pages idx with
      | Some p when p != no_page -> Some (Int64.mul idx page_size64, p)
      | _ -> None)
    (List.init n Fun.id)

(** Find a free, page-aligned gap of [len] bytes at or after [hint]. *)
let find_free t ~hint ~len =
  let len = align_up (max len 1) in
  let rec go addr =
    if List.exists (fun v -> overlaps v.va_start v.va_len addr len) t.vmas then
      let blocker =
        List.find (fun v -> overlaps v.va_start v.va_len addr len) t.vmas
      in
      go (vma_end blocker)
    else addr
  in
  go (page_base (Int64.add hint (Int64.of_int (page_size - 1))))
