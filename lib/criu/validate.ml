(** Integrity checking for checkpoint images.

    The rewriter edits static images; a bug there (or a truncated tmpfs
    file) would otherwise surface only as a garbage process after
    restore — the exact availability loss the pipeline exists to avoid.
    [check] enforces the structural invariants every well-formed
    {!Images.t} satisfies, and [seal]/[unseal] wrap the binary encoding
    with a length + checksum header ({!Bytesx.checksum}) so corruption
    is caught at load time with a clean {!Validate_error}. *)

exception Validate_error of string

let page_size = Images.page_size
let page_size64 = Int64.of_int page_size

let fail fmt = Printf.ksprintf (fun m -> raise (Validate_error m)) fmt

let vma_end (v : Images.vma_img) = Int64.add v.Images.vi_start (Int64.of_int v.Images.vi_len)

let check_mm (img : Images.t) =
  List.iter
    (fun (v : Images.vma_img) ->
      if Int64.rem v.Images.vi_start page_size64 <> 0L then
        fail "vma %s at 0x%Lx not page-aligned" v.Images.vi_name v.Images.vi_start;
      if v.Images.vi_len <= 0 || v.Images.vi_len mod page_size <> 0 then
        fail "vma %s at 0x%Lx has bad length %d" v.Images.vi_name v.Images.vi_start
          v.Images.vi_len)
    img.Images.mm;
  let sorted =
    List.sort (fun a b -> compare a.Images.vi_start b.Images.vi_start) img.Images.mm
  in
  let rec overlap = function
    | a :: (b :: _ as rest) ->
        if vma_end a > b.Images.vi_start then
          fail "vmas overlap: %s [0x%Lx,0x%Lx) and %s at 0x%Lx" a.Images.vi_name
            a.Images.vi_start (vma_end a) b.Images.vi_name b.Images.vi_start;
        overlap rest
    | _ -> ()
  in
  overlap sorted

let check_pagemap (img : Images.t) =
  let total = img.Images.pages.Images.len in
  List.iter
    (fun (pm : Images.pagemap_entry) ->
      if pm.Images.pm_npages < 1 then fail "pagemap run at 0x%Lx empty" pm.Images.pm_vaddr;
      if Int64.rem pm.Images.pm_vaddr page_size64 <> 0L then
        fail "pagemap run at 0x%Lx not page-aligned" pm.Images.pm_vaddr;
      if pm.Images.pm_off < 0 || pm.Images.pm_off + (pm.Images.pm_npages * page_size) > total
      then
        fail "pagemap run at 0x%Lx spills out of pages buffer (off %d, %d pages, buf %d)"
          pm.Images.pm_vaddr pm.Images.pm_off pm.Images.pm_npages total;
      (* every page of the run must be inside a mapped VMA *)
      for k = 0 to pm.Images.pm_npages - 1 do
        let pa = Int64.add pm.Images.pm_vaddr (Int64.of_int (k * page_size)) in
        if Images.find_vma img pa = None then
          fail "dumped page 0x%Lx not covered by any vma" pa
      done)
    img.Images.pagemap;
  (* runs must not overlap in virtual address space *)
  let sorted =
    List.sort
      (fun (a : Images.pagemap_entry) b -> compare a.Images.pm_vaddr b.Images.pm_vaddr)
      img.Images.pagemap
  in
  let rec overlap = function
    | (a : Images.pagemap_entry) :: (b :: _ as rest) ->
        let a_end = Int64.add a.Images.pm_vaddr (Int64.of_int (a.Images.pm_npages * page_size)) in
        if a_end > b.Images.pm_vaddr then
          fail "pagemap runs overlap at 0x%Lx" b.Images.pm_vaddr;
        overlap rest
    | _ -> ()
  in
  overlap sorted

let check_core (img : Images.t) =
  let rip = img.Images.core.Images.c_regs.Images.r_rip in
  (match Images.find_vma img rip with
  | None -> fail "rip 0x%Lx not inside any mapped vma" rip
  | Some v ->
      if not (Self.prot_of_int v.Images.vi_prot).Self.p_x then
        fail "rip 0x%Lx inside non-executable vma %s" rip v.Images.vi_name);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (s : Images.sigaction_img) ->
      if s.Images.sg_signum < 1 || s.Images.sg_signum >= Abi.nsig then
        fail "sigaction for out-of-range signal %d" s.Images.sg_signum;
      if Hashtbl.mem seen s.Images.sg_signum then
        fail "duplicate sigaction for signal %d" s.Images.sg_signum;
      Hashtbl.add seen s.Images.sg_signum ())
    img.Images.core.Images.c_sigactions

let check_files (img : Images.t) =
  let f = img.Images.files in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (fd, k) ->
      if fd < 0 then fail "negative fd %d" fd;
      if Hashtbl.mem seen fd then fail "duplicate fd %d" fd;
      Hashtbl.add seen fd ();
      if fd >= f.Images.f_next_fd then
        fail "fd %d >= next_fd %d" fd f.Images.f_next_fd;
      match k with
      | Images.Fi_listener port when port < -1 -> fail "fd %d: bad listener port %d" fd port
      | Images.Fi_sock cid when cid < 0 -> fail "fd %d: negative connection id %d" fd cid
      | Images.Fi_file (_, pos) when pos < 0 -> fail "fd %d: negative file position %d" fd pos
      | _ -> ())
    f.Images.f_fds

(** Check all structural invariants of [img]; raises {!Validate_error}
    naming the first violation. *)
let check (img : Images.t) : unit =
  check_mm img;
  check_pagemap img;
  check_core img;
  check_files img

(* ---------- checksum sealing ---------- *)

(* Frame v3: magic (5), then four u64s: the payload length [n], the
   root sum, and the page area's offset [po] and length [pl] within the
   payload. The payload's leaves are its head [0, po), each 4 KiB slot
   of the page area (a short last one included) and its tail
   [po+pl, n); each leaf is [Bytesx.leaf] of its bytes, and the root is
   [Bytesx.checksum] over the words n, po, pl and the leaves in order.
   So a page's leaf can be computed once and carried with its bytes,
   and a reseal hashes only the pages that changed. A payload without
   pages (a journal record) puts an empty page area at its end. Version
   2 (one sum over the payload) reads as bad-magic. *)
let seal_magic = "DCCK\x03"
let magic_len = String.length seal_magic
let header_size = magic_len + 32

let checksum (s : string) : int64 = Bytesx.checksum s

(* The root sum of the payload [s.[p .. p+n-1]] whose page area is
   [po, po+pl). [leaf] has one entry per page slot: a slot whose entry
   is [Bytesx.no_leaf] is hashed here and its sum stored there, any
   other entry is taken as the slot's sum. Head and tail are always
   hashed. Every leaf hashed counts in [criu.leaves_hashed]. *)
let root s ~p ~n ~po ~pl (leaf : int array) =
  let k = Array.length leaf in
  let w = Bytes.create (8 * (k + 5)) in
  let set i v = Bytes.set_int64_le w (8 * i) (Int64.of_int v) in
  set 0 n;
  set 1 po;
  set 2 pl;
  set 3 (Bytesx.leaf ~off:p ~len:po s);
  let hashed = ref 2 in
  for i = 0 to k - 1 do
    if leaf.(i) = Bytesx.no_leaf then begin
      let off = po + (i * page_size) in
      leaf.(i) <- Bytesx.leaf ~off:(p + off) ~len:(min page_size (po + pl - off)) s;
      incr hashed
    end;
    set (4 + i) leaf.(i)
  done;
  set (4 + k) (Bytesx.leaf ~off:(p + po + pl) ~len:(n - po - pl) s);
  Obs.add (Obs.counter "criu.leaves_hashed") !hashed;
  Bytesx.checksum (Bytes.unsafe_to_string w)

(* [b] holds a payload of [n] bytes at [header_size], its page area at
   [po, po+pl) with page leaves [leaf]: sum it where it lies and fill
   the header in front of it *)
let fill_header (b : bytes) ~n ~po ~pl leaf : string =
  let s = Bytes.unsafe_to_string b in
  let sum = root s ~p:header_size ~n ~po ~pl leaf in
  Bytes.blit_string seal_magic 0 b 0 magic_len;
  Bytes.set_int64_le b magic_len (Int64.of_int n);
  Bytes.set_int64_le b (magic_len + 8) sum;
  Bytes.set_int64_le b (magic_len + 16) (Int64.of_int po);
  Bytes.set_int64_le b (magic_len + 24) (Int64.of_int pl);
  s

(** Wrap a payload with the checksum header, in one pre-sized buffer. *)
let seal (payload : string) : string =
  let n = String.length payload in
  let b = Bytes.create (header_size + n) in
  Bytes.blit_string payload 0 b header_size n;
  fill_header b ~n ~po:n ~pl:0 [||]

(* how a seal fails: the three distinguishable damage classes, each
   located by the byte offset where the reader gave up *)
type tear_kind = Truncated | Bad_magic | Checksum_mismatch

let tear_kind_to_string = function
  | Truncated -> "truncated"
  | Bad_magic -> "bad-magic"
  | Checksum_mismatch -> "checksum-mismatch"

type tear = { t_offset : int; t_kind : tear_kind }

let pp_tear fmt t =
  Format.fprintf fmt "%s at byte %d" (tear_kind_to_string t.t_kind) t.t_offset

(* Verify the sealed frame starting at [off] where it lies in [blob],
   hashing every byte of it: [Ok (len, po, pl, leaf)] when its header
   is whole and its payload [blob.[off+header_size ..]] of [len] bytes,
   with its page area at [po, po+pl) and page leaves [leaf], matches the
   root sum, else the damage class and a message locating it. Nothing
   is copied. *)
let verify_frame (blob : string) (off : int) :
    (int * int * int * int array, tear_kind * string) result =
  let total = String.length blob in
  let torn kind fmt = Printf.ksprintf (fun m -> Error (kind, m)) fmt in
  if total - off < header_size then
    torn Truncated "image truncated at byte %d: seal header needs %d bytes" total header_size
  else if String.sub blob off magic_len <> seal_magic then
    torn Bad_magic "image bad-magic at byte %d: no checksum header" off
  else
    let r = Bytesx.R.of_sub blob ~off:(off + magic_len) ~len:32 in
    (* compared as the u64s they are: [Int64.to_int] would drop bit 63 *)
    let len64 = Bytesx.R.u64 r in
    let sum = Bytesx.R.u64 r in
    let po64 = Bytesx.R.u64 r in
    let pl64 = Bytesx.R.u64 r in
    let have = total - off - header_size in
    if len64 < 0L || len64 > Int64.of_int have then
      torn Truncated "image truncated at byte %d: header says %Lu payload bytes, have %d" total
        len64 have
    else if po64 < 0L || po64 > len64 || pl64 < 0L || pl64 > Int64.sub len64 po64 then
      torn Checksum_mismatch
        "image checksum-mismatch at byte %d: page area %Lu+%Lu outside the %Lu-byte payload"
        (off + magic_len + 16) po64 pl64 len64
    else
      let len = Int64.to_int len64 and po = Int64.to_int po64 and pl = Int64.to_int pl64 in
      let leaf = Array.make (Images.slots pl) Bytesx.no_leaf in
      let got = root blob ~p:(off + header_size) ~n:len ~po ~pl leaf in
      if got <> sum then
        torn Checksum_mismatch "image checksum-mismatch at byte %d (0x%Lx, expected 0x%Lx)"
          (off + header_size) got sum
      else Ok (len, po, pl, leaf)

(* the payload length of [blob], a single sealed frame *)
let verified_len (blob : string) : int =
  match verify_frame blob 0 with
  | Ok (len, _, _, _) -> len
  | Error (_, m) -> raise (Validate_error m)

(** Strip and verify the checksum header. Raises {!Validate_error}
    naming the failure kind (truncated / bad-magic / checksum-mismatch)
    and the byte offset where the reader gave up. *)
let unseal (blob : string) : string = String.sub blob header_size (verified_len blob)

(** A journal file is a plain concatenation of sealed frames — each one
    self-delimiting thanks to the length in the seal header. Split the
    valid prefix into payloads; a torn tail (truncated mid-frame, bad
    magic, or checksum mismatch) comes back as [Some tear] locating the
    start of the frame that failed and how. A torn tail is expected
    after a crash: the caller keeps the prefix. *)
let unseal_frames (blob : string) : string list * tear option =
  let rec go acc off =
    if off >= String.length blob then (List.rev acc, None)
    else
      match verify_frame blob off with
      | Ok (len, _, _, _) ->
          go (String.sub blob (off + header_size) len :: acc) (off + header_size + len)
      | Error (kind, _) -> (List.rev acc, Some { t_offset = off; t_kind = kind })
  in
  go [] 0

(* the frame [a]'s buffer lays out, sealed where it lies with page
   leaves [leaf]: the header goes into the bytes reserved in front of
   the payload *)
let seal_area (a : Images.area) leaf : string =
  fill_header a.Images.buf
    ~n:(Bytes.length a.Images.buf - header_size)
    ~po:(a.Images.off - header_size) ~pl:a.Images.len leaf

(** [seal (Images.encode img)] in a fresh buffer: one copy of the pages.
    Only the head, the tail and the pages whose leaf sum [img] does not
    know are hashed, and the sums taken land in its table. *)
let encode_sealed (img : Images.t) : string =
  seal_area (Images.relayout ~reserve:header_size img).Images.pages img.Images.pages.Images.leaf

(** [img]'s sealed frame, built where [img]'s buffer lays it out when
    it can ({!Images.frame}): the pages are not copied, and the frame is
    that buffer. Returns the image that reads from the frame, with the
    sums the seal took. *)
let seal_in_place (img : Images.t) : Images.t * string =
  let img = Images.frame ~reserve:header_size img in
  (img, seal_area img.Images.pages img.Images.pages.Images.leaf)

(** Check that [stored], a frame read back from storage, is the frame
    [sealed] that was written: byte equality, stronger than the
    checksum. Only on a mismatch does the seal check run, so a damaged
    frame is reported as truncated / bad-magic / checksum-mismatch just
    as {!decode_sealed} would report it. *)
let check_stored ~(sealed : string) (stored : string) : unit =
  if not (String.equal stored sealed) then begin
    ignore (verified_len stored);
    fail "frame differs from the sealed frame written (%d bytes, expected %d)"
      (String.length stored) (String.length sealed)
  end

(** Verify, decode, and [check] — the only safe way to load an image
    from the tmpfs. The payload is checksummed and decoded where it lies
    in [blob], by a reader bounded to it, and the image keeps the leaf
    sums of its pages that the verify took. Decode errors surface as
    {!Validate_error} too. *)
let decode_sealed (blob : string) : Images.t =
  let len, po, pl, leaf =
    match verify_frame blob 0 with
    | Ok v -> v
    | Error (_, m) -> raise (Validate_error m)
  in
  let img =
    try Images.decode ~off:header_size ~len blob with
    | Images.Format_error e -> fail "image decode failed: %s" e
    | Bytesx.Truncated e -> fail "image decode truncated: %s" e
  in
  (* the verified page leaves are the pages' own when the header's page
     area is where the decoder found them *)
  let a = img.Images.pages in
  let img =
    if a.Images.off = header_size + po && a.Images.len = pl then
      { img with Images.pages = { a with leaf } }
    else img
  in
  check img;
  img
