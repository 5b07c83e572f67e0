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

(* The seal's leaf sums of a pages buffer, one per 4 KiB slot (a short
   last slot has one too), each [Bytesx.leaf] of the slot or
   [Bytesx.no_leaf]. The table is bound to one buffer by physical
   identity: an image whose [pages] is another buffer reads a fresh,
   empty table ([leaves]), so a functional update that swaps the pages
   can never pair them with another buffer's sums. *)
type sums = { mutable s_of : bytes; mutable s_leaf : int array }

type t = {
  core : core;
  mm : vma_img list;
  pagemap : pagemap_entry list;
  pages : bytes;
  sums : sums;
  files : files;
  tcp : tcp;
  mmap_hint : int64;
}

let page_size = 4096
let slots n = (n + page_size - 1) / page_size
let sums_of pages leaf = { s_of = pages; s_leaf = leaf }
let no_sums pages = sums_of pages (Array.make (slots (Bytes.length pages)) Bytesx.no_leaf)

(** The leaf table of [t.pages], rebound empty if the image's table
    belongs to another buffer. *)
let leaves (t : t) =
  let s = t.sums in
  if s.s_of != t.pages then begin
    s.s_of <- t.pages;
    s.s_leaf <- Array.make (slots (Bytes.length t.pages)) Bytesx.no_leaf
  end;
  s.s_leaf

(** The leaf sum of the page at offset [off] of the pages buffer:
    {!Bytesx.no_leaf} unless [off] starts a slot that has one. *)
let page_sum (t : t) off =
  if off land (page_size - 1) <> 0 then Bytesx.no_leaf else (leaves t).(off / page_size)

(** [t] with [extra] appended to its pages, and the offset where [extra]
    starts. The full slots of the old buffer keep their sums; the new
    ones (and a short last slot, which [extra] extends) have none. *)
let append_pages (t : t) (extra : bytes) : t * int =
  let off = Bytes.length t.pages in
  let pages = Bytes.cat t.pages extra in
  let leaf = Array.make (slots (Bytes.length pages)) Bytesx.no_leaf in
  Array.blit (leaves t) 0 leaf 0 (off / page_size);
  ({ t with pages; sums = sums_of pages leaf }, off)

(** Total bytes across all images — the "image size" Figure 7 reports. *)
let image_size (t : t) =
  Bytes.length t.pages + (List.length t.mm * 64) + (List.length t.pagemap * 24) + 256

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
  List.iter (fun (k, off, n) -> Bytes.blit t.pages off out k n) (pieces t addr len);
  out

(** Write [data] at virtual address [addr] into the dumped pages in place.
    Raises [Not_found], writing nothing, if any byte falls outside
    populated pages. *)
let write_mem (t : t) (addr : int64) (data : bytes) : unit =
  let leaf = leaves t in
  List.iter
    (fun (k, off, n) ->
      Bytes.blit data k t.pages off n;
      for i = off / page_size to (off + n - 1) / page_size do
        leaf.(i) <- Bytesx.no_leaf
      done)
    (pieces t addr (Bytes.length data))

(* ---------- binary codec ---------- *)

let magic = "CRIU\x01"

exception Format_error of string

(* The encoding is [head] (magic, core, mm, pagemap, the pages' length),
   the pages, then [tail] (files, tcp, mmap hint). The two small parts
   go through buffers; the pages are blitted once, into the result. *)
let encode_head (t : t) : Buffer.t =
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
  u32 b (Bytes.length t.pages);
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

let encode_into ~(reserve : int) (t : t) : bytes =
  let head = encode_head t and tail = encode_tail t in
  let nh = Buffer.length head and np = Bytes.length t.pages in
  let out = Bytes.create (reserve + nh + np + Buffer.length tail) in
  Buffer.blit head 0 out reserve nh;
  Bytes.blit t.pages 0 out (reserve + nh) np;
  Buffer.blit tail 0 out (reserve + nh + np) (Buffer.length tail);
  out

let encode (t : t) : string = Bytes.unsafe_to_string (encode_into ~reserve:0 t)

(* every field of the head has a width its decoded value fixes, so this
   is also where [decode] found the pages *)
let pages_offset (t : t) = Buffer.length (encode_head t)

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
  let pages = lbytes r in
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
    pages;
    sums = no_sums pages;
    files = { f_fds; f_next_fd };
    tcp;
    mmap_hint;
  }
