(** CRIU process images.

    One checkpoint of one process = five image files, mirroring the files
    the paper's modified CRIT edits (§3.3):

    - {b core}: pid/comm/exe, registers, signal dispositions (the file
      DynaCut patches to register its SIGTRAP handler + restorer);
    - {b mm}: the full VMA list (start, end, prot, backing file, offset);
    - {b pagemap}: which virtual pages are populated with dumped data;
    - {b pages}: the raw page contents, in pagemap order;
    - {b files} and {b tcp}: fd table and established-connection state
      (the [TCP_REPAIR] data that lets live connections survive restore).

    Each image has a binary (TLV-flavoured) codec used for the tmpfs
    files, and {!Crit} provides the decode/encode text round-trip. *)

type regs_img = {
  r_gpr : int64 array;  (** 16 *)
  r_rip : int64;
  r_flags : int;
}

type sigaction_img = { sg_signum : int; sg_handler : int64; sg_restorer : int64 }

type core = {
  c_pid : int;
  c_parent : int;
  c_comm : string;
  c_exe : string;
  c_regs : regs_img;
  c_sigactions : sigaction_img list;
  c_state : string;  (** informational: Proc.state_to_string at dump *)
  c_seccomp : int list option;  (** denied-syscall filter, if installed *)
}

type vma_img = {
  vi_start : int64;
  vi_len : int;
  vi_prot : int;  (** Self.prot_to_int encoding *)
  vi_file : (string * int) option;
  vi_name : string;
}

(** A run of consecutive populated pages, with its bytes' offset into the
    pages image. *)
type pagemap_entry = { pm_vaddr : int64; pm_npages : int; pm_off : int }

type fd_img =
  | Fi_stdin
  | Fi_stdout
  | Fi_stderr
  | Fi_file of string * int
  | Fi_listener of int
  | Fi_sock of int

type files = { f_fds : (int * fd_img) list; f_next_fd : int }

type tcp = Net.conn_snapshot list

(* The page area: [len] bytes at [off] of [buf], and per 4 KiB slot
   (a short last slot has them too) the seal's leaf sum — [Bytesx.leaf]
   of the slot, or [Bytesx.no_leaf] when unknown — and the origin: the
   [Mem.page] the dump took the slot from, or [Mem.no_page]. Both
   travel with the slot's bytes and are dropped by a store into it; the
   origin is never set again, so a slot that has one still holds its
   page's bytes as dumped. A dump or a decoded frame lays [buf] out as
   a whole sealed frame, with the header and head in front of the area
   and the tail behind it, so a seal can fill those in around the pages
   where they lie. *)
type area = { buf : bytes; off : int; len : int; leaf : int array; origin : Mem.page array }

type t = {
  core : core;
  mm : vma_img list;
  pagemap : pagemap_entry list;
  pages : area;
  files : files;
  tcp : tcp;
  mmap_hint : int64;
}

let page_size = 4096
let slots n = (n + page_size - 1) / page_size

let unknown len = (Array.make (slots len) Bytesx.no_leaf, Array.make (slots len) Mem.no_page)

let area_of_bytes b =
  let len = Bytes.length b in
  let leaf, origin = unknown len in
  { buf = b; off = 0; len; leaf; origin }

let no_pages = area_of_bytes Bytes.empty

(** A copy of the page area's bytes. *)
let page_bytes (t : t) = Bytes.sub t.pages.buf t.pages.off t.pages.len

(** The leaf sum of the page at offset [off] of the page area:
    {!Bytesx.no_leaf} unless [off] starts a slot that has one. *)
let page_sum (t : t) off =
  if off land (page_size - 1) <> 0 then Bytesx.no_leaf else t.pages.leaf.(off / page_size)

(** The page the slot at offset [off] of the page area was dumped from:
    {!Mem.no_page} unless [off] starts a slot that has one. *)
let page_origin (t : t) off =
  if off land (page_size - 1) <> 0 then Mem.no_page else t.pages.origin.(off / page_size)

(** Copy [len] bytes from offset [src_off] of [src]'s page area to
    [dst_off] of [dst]'s, both slot-aligned; each whole slot copied
    takes its leaf sum and origin along, a short last slot drops both. *)
let blit_pages ~(src : t) ~src_off ~(dst : t) ~dst_off ~len =
  let s = src.pages and d = dst.pages in
  Bytes.blit s.buf (s.off + src_off) d.buf (d.off + dst_off) len;
  for k = 0 to slots len - 1 do
    let i = (src_off / page_size) + k and j = (dst_off / page_size) + k in
    let whole = (k + 1) * page_size <= len in
    d.leaf.(j) <- (if whole then s.leaf.(i) else Bytesx.no_leaf);
    d.origin.(j) <- (if whole then s.origin.(i) else Mem.no_page)
  done

(** [t] with [pieces] appended to its page area, each padded with zeros
    to whole pages (an empty piece takes one page), and the page-area
    offset where each piece starts. Unless there is none, the old area
    is copied once, into a fresh buffer with nothing around it; its
    slots keep their sums and origins, the new ones have none. *)
let append_pages (t : t) (pieces : bytes list) : t * int list =
  if pieces = [] then (t, []) else
  let padded b = max 1 (slots (Bytes.length b)) * page_size in
  let old = t.pages.len in
  let len = List.fold_left (fun n b -> n + padded b) old pieces in
  let t' = { t with pages = area_of_bytes (Bytes.create len) } in
  blit_pages ~src:t ~src_off:0 ~dst:t' ~dst_off:0 ~len:old;
  let buf = t'.pages.buf in
  let _, offs =
    List.fold_left
      (fun (at, offs) b ->
        let n = Bytes.length b in
        Bytes.blit b 0 buf at n;
        Bytes.fill buf (at + n) (padded b - n) '\x00';
        (at + padded b, at :: offs))
      (old, []) pieces
  in
  (t', List.rev offs)

(** Total bytes across all images — the "image size" Figure 7 reports. *)
let image_size (t : t) =
  t.pages.len + (List.length t.mm * 64) + (List.length t.pagemap * 24) + 256

let find_vma (t : t) addr =
  List.find_opt
    (fun v ->
      addr >= v.vi_start && addr < Int64.add v.vi_start (Int64.of_int v.vi_len))
    t.mm

(* Split [addr, addr+len) into the pieces the pagemap runs cover, in
   address order, as (offset in the range, offset in [pages], length);
   [Not_found] unless the runs cover every byte. Pagemap runs never
   overlap ([Validate.check]). *)
let pieces (t : t) (addr : int64) (len : int) =
  let addr_end = Int64.add addr (Int64.of_int len) in
  let covering =
    List.filter_map
      (fun pm ->
        let run_end = Int64.add pm.pm_vaddr (Int64.of_int (pm.pm_npages * page_size)) in
        let lo = max addr pm.pm_vaddr and hi = min addr_end run_end in
        if lo >= hi then None
        else
          Some
            ( Int64.to_int (Int64.sub lo addr),
              pm.pm_off + Int64.to_int (Int64.sub lo pm.pm_vaddr),
              Int64.to_int (Int64.sub hi lo) ))
      t.pagemap
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let covered =
    List.fold_left (fun next (k, _, n) -> if k = next then k + n else next) 0 covering
  in
  if covered < len then raise Not_found;
  covering

(** Read [len] bytes at virtual address [addr] out of the dumped pages.
    Raises [Not_found] if the range is not fully populated. *)
let read_mem (t : t) (addr : int64) (len : int) : bytes =
  let out = Bytes.create len in
  let a = t.pages in
  List.iter (fun (k, off, n) -> Bytes.blit a.buf (a.off + off) out k n) (pieces t addr len);
  out

(** Write [data] at virtual address [addr] into the dumped pages in place,
    dropping the leaf sum and origin of every slot it touches. Raises
    [Not_found], writing nothing, if any byte falls outside populated
    pages. *)
let write_mem (t : t) (addr : int64) (data : bytes) : unit =
  let a = t.pages in
  List.iter
    (fun (k, off, n) ->
      Bytes.blit data k a.buf (a.off + off) n;
      for i = off / page_size to (off + n - 1) / page_size do
        a.leaf.(i) <- Bytesx.no_leaf;
        a.origin.(i) <- Mem.no_page
      done)
    (pieces t addr (Bytes.length data))

(* ---------- binary codec ---------- *)

let magic = "CRIU\x01"

exception Format_error of string

(* The encoding is [head] (magic, core, mm, pagemap, the pages' length
   [len]), the pages, then [tail] (files, tcp, mmap hint). The two small
   parts go through buffers, the pages never do. *)
let encode_head (t : t) ~len : Buffer.t =
  let open Bytesx.W in
  let b = create ~size:1024 () in
  string b magic;
  (* core *)
  int_as_u64 b t.core.c_pid;
  int_as_u64 b t.core.c_parent;
  lstring b t.core.c_comm;
  lstring b t.core.c_exe;
  Array.iter (u64 b) t.core.c_regs.r_gpr;
  u64 b t.core.c_regs.r_rip;
  u32 b t.core.c_regs.r_flags;
  u32 b (List.length t.core.c_sigactions);
  List.iter
    (fun s ->
      u32 b s.sg_signum;
      u64 b s.sg_handler;
      u64 b s.sg_restorer)
    t.core.c_sigactions;
  lstring b t.core.c_state;
  (match t.core.c_seccomp with
  | None -> u8 b 0
  | Some denied ->
      u8 b 1;
      u32 b (List.length denied);
      List.iter (u32 b) denied);
  (* mm *)
  u32 b (List.length t.mm);
  List.iter
    (fun v ->
      u64 b v.vi_start;
      int_as_u64 b v.vi_len;
      u8 b v.vi_prot;
      (match v.vi_file with
      | None -> u8 b 0
      | Some (f, off) ->
          u8 b 1;
          lstring b f;
          int_as_u64 b off);
      lstring b v.vi_name)
    t.mm;
  (* pagemap *)
  u32 b (List.length t.pagemap);
  List.iter
    (fun pm ->
      u64 b pm.pm_vaddr;
      u32 b pm.pm_npages;
      int_as_u64 b pm.pm_off)
    t.pagemap;
  u32 b len;
  b

let encode_tail (t : t) : Buffer.t =
  let open Bytesx.W in
  let b = create () in
  (* files *)
  u32 b (List.length t.files.f_fds);
  List.iter
    (fun (fd, k) ->
      u32 b fd;
      match k with
      | Fi_stdin -> u8 b 0
      | Fi_stdout -> u8 b 1
      | Fi_stderr -> u8 b 2
      | Fi_file (p, pos) ->
          u8 b 3;
          lstring b p;
          int_as_u64 b pos
      | Fi_listener port ->
          u8 b 4;
          u32 b port
      | Fi_sock cid ->
          u8 b 5;
          u32 b cid)
    t.files.f_fds;
  u32 b t.files.f_next_fd;
  (* tcp *)
  u32 b (List.length t.tcp);
  List.iter
    (fun (s : Net.conn_snapshot) ->
      u32 b s.Net.cs_id;
      u32 b s.Net.cs_port;
      lstring b s.Net.cs_c2s;
      u32 b s.Net.cs_c2s_consumed;
      lstring b s.Net.cs_s2c;
      u32 b s.Net.cs_s2c_consumed;
      u8 b (if s.Net.cs_client_closed then 1 else 0);
      u8 b (if s.Net.cs_server_closed then 1 else 0))
    t.tcp;
  u64 b t.mmap_hint;
  b

(* A fresh buffer laid out as a frame around a page area of [len]
   bytes: [reserve] bytes left for the seal's header, [t]'s head, the
   area (left unwritten), then [t]'s tail; and the area's offset. *)
let frame_buffer ~reserve (t : t) ~len =
  let head = encode_head t ~len and tail = encode_tail t in
  let nh = Buffer.length head in
  let buf = Bytes.create (reserve + nh + len + Buffer.length tail) in
  Buffer.blit head 0 buf reserve nh;
  Buffer.blit tail 0 buf (reserve + nh + len) (Buffer.length tail);
  (buf, reserve + nh)

(** [t] with a fresh page area of [len] bytes, laid out as a frame
    ({!frame_buffer}): the area is left for the caller to fill, and
    knows no sum and no origin. *)
let layout ~reserve (t : t) ~len : t =
  let buf, off = frame_buffer ~reserve t ~len in
  let leaf, origin = unknown len in
  { t with pages = { buf; off; len; leaf; origin } }

(** [t] laid out afresh as a frame: one copy of its page area, whose
    slots keep their sums and origins. *)
let relayout ~reserve (t : t) : t =
  let t' = layout ~reserve t ~len:t.pages.len in
  blit_pages ~src:t ~src_off:0 ~dst:t' ~dst_off:0 ~len:t.pages.len;
  t'

(** [t] encoded at [reserve] of a frame-shaped buffer. When [t]'s own
    buffer is one, with head and tail of the lengths [t] now encodes
    to, they are rewritten where they lie and [t] is returned: its page
    area is not copied. Otherwise [t] is {!relayout}. *)
let frame ~reserve (t : t) : t =
  let a = t.pages in
  let head = encode_head t ~len:a.len and tail = encode_tail t in
  let nh = Buffer.length head and nt = Buffer.length tail in
  if a.off = reserve + nh && Bytes.length a.buf = a.off + a.len + nt then begin
    Buffer.blit head 0 a.buf reserve nh;
    Buffer.blit tail 0 a.buf (a.off + a.len) nt;
    t
  end
  else relayout ~reserve t

(** A writable copy of [t]: its buffer, leaf sums and origins are
    copied, so nothing written to one shows in the other. *)
let copy (t : t) : t =
  let a = t.pages in
  {
    t with
    pages =
      { a with buf = Bytes.copy a.buf; leaf = Array.copy a.leaf; origin = Array.copy a.origin };
  }

let encode (t : t) : string =
  let a = t.pages in
  let buf, off = frame_buffer ~reserve:0 t ~len:a.len in
  Bytes.blit a.buf a.off buf off a.len;
  Bytes.unsafe_to_string buf

let decode ?(off = 0) ?len (s : string) : t =
  let open Bytesx.R in
  let len = match len with Some n -> n | None -> String.length s - off in
  let r = of_sub s ~off ~len in
  if take r (String.length magic) <> magic then raise (Format_error "bad magic");
  let c_pid = int_of_u64 r in
  let c_parent = int_of_u64 r in
  let c_comm = lstring r in
  let c_exe = lstring r in
  let r_gpr = Array.init 16 (fun _ -> u64 r) in
  let r_rip = u64 r in
  let r_flags = u32 r in
  let nsig = u32 r in
  let c_sigactions =
    List.init nsig (fun _ ->
        let sg_signum = u32 r in
        let sg_handler = u64 r in
        let sg_restorer = u64 r in
        { sg_signum; sg_handler; sg_restorer })
  in
  let c_state = lstring r in
  let c_seccomp =
    match u8 r with
    | 0 -> None
    | _ ->
        let n = u32 r in
        Some (List.init n (fun _ -> u32 r))
  in
  let nvma = u32 r in
  let mm =
    List.init nvma (fun _ ->
        let vi_start = u64 r in
        let vi_len = int_of_u64 r in
        let vi_prot = u8 r in
        let vi_file =
          match u8 r with
          | 0 -> None
          | _ ->
              let f = lstring r in
              let off = int_of_u64 r in
              Some (f, off)
        in
        let vi_name = lstring r in
        { vi_start; vi_len; vi_prot; vi_file; vi_name })
  in
  let npm = u32 r in
  let pagemap =
    List.init npm (fun _ ->
        let pm_vaddr = u64 r in
        let pm_npages = u32 r in
        let pm_off = int_of_u64 r in
        { pm_vaddr; pm_npages; pm_off })
  in
  let pl = u32 r in
  let po = pos r in
  skip r pl;
  let nfd = u32 r in
  let f_fds =
    List.init nfd (fun _ ->
        let fd = u32 r in
        let k =
          match u8 r with
          | 0 -> Fi_stdin
          | 1 -> Fi_stdout
          | 2 -> Fi_stderr
          | 3 ->
              let p = lstring r in
              let pos = int_of_u64 r in
              Fi_file (p, pos)
          | 4 -> Fi_listener (u32 r)
          | 5 -> Fi_sock (u32 r)
          | k -> raise (Format_error (Printf.sprintf "bad fd kind %d" k))
        in
        (fd, k))
  in
  let f_next_fd = u32 r in
  let ntcp = u32 r in
  let tcp =
    List.init ntcp (fun _ ->
        let cs_id = u32 r in
        let cs_port = u32 r in
        let cs_c2s = lstring r in
        let cs_c2s_consumed = u32 r in
        let cs_s2c = lstring r in
        let cs_s2c_consumed = u32 r in
        let cs_client_closed = u8 r = 1 in
        let cs_server_closed = u8 r = 1 in
        {
          Net.cs_id;
          cs_port;
          cs_c2s;
          cs_c2s_consumed;
          cs_s2c;
          cs_s2c_consumed;
          cs_client_closed;
          cs_server_closed;
        })
  in
  let mmap_hint = u64 r in
  {
    core =
      {
        c_pid;
        c_parent;
        c_comm;
        c_exe;
        c_regs = { r_gpr; r_rip; r_flags };
        c_sigactions;
        c_state;
        c_seccomp;
      };
    mm;
    pagemap;
    (* [s] is copied up to the end of the encoding, so the area lies in
       a buffer laid out the way [s] is: as the frame, when [s] is a
       sealed one *)
    pages =
      (let leaf, origin = unknown pl in
       { buf = Bytes.sub (Bytes.unsafe_of_string s) 0 (off + len); off = po; len = pl; leaf; origin });
    files = { f_fds; f_next_fd };
    tcp;
    mmap_hint;
  }
