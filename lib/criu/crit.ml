(** CRIT — the CRiu Image Tool (paper §3.3).

    Decodes binary process images into a human-readable text form
    (s-expressions here, JSON in the original) and encodes edited text
    back into binary images. DynaCut's rewriter uses the typed
    {!Images.t} API directly, but the CLI exposes this codec for manual
    inspection and surgery, like the original [crit decode/encode]. *)

open Sexpr

let of_prot p = Atom (Self.prot_to_string (Self.prot_of_int p))

let to_prot = function
  | Atom s when String.length s = 3 ->
      Self.prot_to_int
        {
          Self.p_r = s.[0] = 'r';
          p_w = s.[1] = 'w';
          p_x = s.[2] = 'x';
        }
  | _ -> raise (Parse_error "bad prot")

let hex_bytes (b : bytes) = Atom (Bytesx.hex_of_string (Bytes.to_string b))

let unhex_bytes = function
  | Atom s ->
      if String.length s mod 2 <> 0 then raise (Parse_error "odd hex length");
      Bytes.init (String.length s / 2) (fun i ->
          Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))
  | List _ -> raise (Parse_error "expected hex atom")

let sexp_of_core (c : Images.core) =
  List
    [
      Atom "core";
      field "pid" (int c.Images.c_pid);
      field "parent" (int c.Images.c_parent);
      field "comm" (Atom c.Images.c_comm);
      field "exe" (Atom c.Images.c_exe);
      field "rip" (hex64 c.Images.c_regs.Images.r_rip);
      field "flags" (int c.Images.c_regs.Images.r_flags);
      field "gpr" (List (Array.to_list (Array.map hex64 c.Images.c_regs.Images.r_gpr)));
      field "sigactions"
        (List
           (List.map
              (fun (s : Images.sigaction_img) ->
                List
                  [
                    int s.Images.sg_signum;
                    hex64 s.Images.sg_handler;
                    hex64 s.Images.sg_restorer;
                  ])
              c.Images.c_sigactions));
      field "state" (Atom c.Images.c_state);
      field "seccomp"
        (match c.Images.c_seccomp with
        | None -> Atom "none"
        | Some denied -> List (List.map int denied));
    ]

let core_of_sexp sx : Images.core =
  let get name = match get_field name sx with Some v -> v | None -> raise (Parse_error ("core: missing " ^ name)) in
  let gpr =
    match get "gpr" with
    | List l -> Array.of_list (List.map as_i64 l)
    | Atom _ -> raise (Parse_error "gpr")
  in
  {
    Images.c_pid = as_int (get "pid");
    c_parent = as_int (get "parent");
    c_comm = as_atom (get "comm");
    c_exe = as_atom (get "exe");
    c_regs = { Images.r_gpr = gpr; r_rip = as_i64 (get "rip"); r_flags = as_int (get "flags") };
    c_sigactions =
      (match get "sigactions" with
      | List l ->
          List.map
            (function
              | List [ sg; h; r ] ->
                  { Images.sg_signum = as_int sg; sg_handler = as_i64 h; sg_restorer = as_i64 r }
              | _ -> raise (Parse_error "sigaction"))
            l
      | Atom _ -> raise (Parse_error "sigactions"));
    c_state = as_atom (get "state");
    c_seccomp =
      (match get_field "seccomp" sx with
      | None | Some (Atom "none") -> None
      | Some (List l) -> Some (List.map as_int l)
      | Some (Atom _) -> raise (Parse_error "seccomp"));
  }

let sexp_of_vma (v : Images.vma_img) =
  List
    ([
       hex64 v.Images.vi_start;
       int v.Images.vi_len;
       of_prot v.Images.vi_prot;
       Atom v.Images.vi_name;
     ]
    @
    match v.Images.vi_file with
    | Some (f, off) -> [ Atom f; int off ]
    | None -> [])

let vma_of_sexp = function
  | List (start :: len :: prot :: name :: rest) ->
      {
        Images.vi_start = as_i64 start;
        vi_len = as_int len;
        vi_prot = to_prot prot;
        vi_name = as_atom name;
        vi_file =
          (match rest with
          | [ f; off ] -> Some (as_atom f, as_int off)
          | [] -> None
          | _ -> raise (Parse_error "vma file"));
      }
  | _ -> raise (Parse_error "vma")

let to_sexp (t : Images.t) : Sexpr.t =
  List
    [
      Atom "criu-image";
      field "core" (sexp_of_core t.Images.core);
      field "mm" (List (List.map sexp_of_vma t.Images.mm));
      field "pagemap"
        (List
           (List.map
              (fun (pm : Images.pagemap_entry) ->
                List [ hex64 pm.Images.pm_vaddr; int pm.Images.pm_npages; int pm.Images.pm_off ])
              t.Images.pagemap));
      field "pages" (hex_bytes (Images.page_bytes t));
      field "files"
        (List
           (List.map
              (fun (fd, k) ->
                let kind =
                  match k with
                  | Images.Fi_stdin -> [ Atom "stdin" ]
                  | Images.Fi_stdout -> [ Atom "stdout" ]
                  | Images.Fi_stderr -> [ Atom "stderr" ]
                  | Images.Fi_file (p, pos) -> [ Atom "file"; Atom p; int pos ]
                  | Images.Fi_listener port -> [ Atom "listener"; int port ]
                  | Images.Fi_sock cid -> [ Atom "sock"; int cid ]
                in
                List (int fd :: kind))
              t.Images.files.Images.f_fds));
      field "next-fd" (int t.Images.files.Images.f_next_fd);
      field "tcp"
        (List
           (List.map
              (fun (s : Net.conn_snapshot) ->
                List
                  [
                    int s.Net.cs_id;
                    int s.Net.cs_port;
                    Atom (Bytesx.hex_of_string s.Net.cs_c2s);
                    int s.Net.cs_c2s_consumed;
                    Atom (Bytesx.hex_of_string s.Net.cs_s2c);
                    int s.Net.cs_s2c_consumed;
                    int (if s.Net.cs_client_closed then 1 else 0);
                    int (if s.Net.cs_server_closed then 1 else 0);
                  ])
              t.Images.tcp));
      field "mmap-hint" (hex64 t.Images.mmap_hint);
    ]

let unhex_str sx = Bytes.to_string (unhex_bytes sx)

let of_sexp (sx : Sexpr.t) : Images.t =
  let get name =
    match get_field name sx with
    | Some v -> v
    | None -> raise (Parse_error ("image: missing " ^ name))
  in
  let as_list = function List l -> l | Atom _ -> raise (Parse_error "expected list") in
  let pages = unhex_bytes (get "pages") in
  {
    Images.core = core_of_sexp (get "core");
    mm = List.map vma_of_sexp (as_list (get "mm"));
    pagemap =
      List.map
        (function
          | List [ va; np; off ] ->
              { Images.pm_vaddr = as_i64 va; pm_npages = as_int np; pm_off = as_int off }
          | _ -> raise (Parse_error "pagemap entry"))
        (as_list (get "pagemap"));
    pages = Images.area_of_bytes pages;
    files =
      {
        Images.f_fds =
          List.map
            (function
              | List (fd :: kind) ->
                  let k =
                    match kind with
                    | [ Atom "stdin" ] -> Images.Fi_stdin
                    | [ Atom "stdout" ] -> Images.Fi_stdout
                    | [ Atom "stderr" ] -> Images.Fi_stderr
                    | [ Atom "file"; p; pos ] -> Images.Fi_file (as_atom p, as_int pos)
                    | [ Atom "listener"; port ] -> Images.Fi_listener (as_int port)
                    | [ Atom "sock"; cid ] -> Images.Fi_sock (as_int cid)
                    | _ -> raise (Parse_error "fd kind")
                  in
                  (as_int fd, k)
              | _ -> raise (Parse_error "fd entry"))
            (as_list (get "files"));
        f_next_fd = as_int (get "next-fd");
      };
    tcp =
      List.map
        (function
          | List [ id; port; c2s; c2sc; s2c; s2cc; cc; sc ] ->
              {
                Net.cs_id = as_int id;
                cs_port = as_int port;
                cs_c2s = unhex_str c2s;
                cs_c2s_consumed = as_int c2sc;
                cs_s2c = unhex_str s2c;
                cs_s2c_consumed = as_int s2cc;
                cs_client_closed = as_int cc = 1;
                cs_server_closed = as_int sc = 1;
              }
          | _ -> raise (Parse_error "tcp entry"))
        (as_list (get "tcp"));
    mmap_hint = as_i64 (get "mmap-hint");
  }

(** [crit decode]: binary image blob to text. *)
let decode_to_text (blob : string) : string =
  Sexpr.to_string (to_sexp (Images.decode blob))

(** [crit encode]: text back to a binary image blob. *)
let encode_from_text (text : string) : string =
  Images.encode (of_sexp (Sexpr.of_string text))

(** [crit x <dir> mems]-style summary of the memory map. *)
let show_mems (img : Images.t) : string =
  let rows =
    List.map
      (fun (v : Images.vma_img) ->
        [
          Printf.sprintf "0x%Lx" v.Images.vi_start;
          Printf.sprintf "0x%Lx" (Int64.add v.Images.vi_start (Int64.of_int v.Images.vi_len));
          Self.prot_to_string (Self.prot_of_int v.Images.vi_prot);
          (match v.Images.vi_file with Some (f, off) -> Printf.sprintf "%s+0x%x" f off | None -> "anon");
          v.Images.vi_name;
        ])
      img.Images.mm
  in
  Table.render ~headers:[ "start"; "end"; "prot"; "backing"; "name" ]
    ~aligns:[ Table.R; Table.R; Table.L; Table.L; Table.L ]
    rows
