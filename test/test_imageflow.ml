(** How images flow through a transaction (DESIGN.md §5a): each pid's
    image is decoded at most once and sealed twice — at the dump and
    once after all edits. The census pins that structure through the
    [criu.save]/[criu.load] hit counters, and the pages the commit's
    restore takes over or copies through [criu.pages_adopted] and
    [criu.pages_copied]; the oracle pins every stored image and the
    virtual clock across a seeded ngx session of cuts, re-enables and a
    rollback, and checks that sealing with carried leaf sums seals what
    sealing cold does. A gate bounds the leaves a warm transaction
    hashes, and a twin tree shows that taking pages over is invisible. *)

let app = Workload.ngx
let blocks = lazy (Common.web_feature_blocks app)
let policy method_ = { Dynacut.method_; on_trap = `Redirect "ngx_declined" }

(* discovery first: the tracing boots machines of its own, and the
   fault hooks and metrics clock must follow the ngx under test *)
let boot ~seed =
  ignore (Lazy.force blocks : Covgraph.block list);
  let c = Workload.boot ~seed app in
  let s = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  Alcotest.(check int) "ngx forked its worker" 2 (List.length (Dynacut.tree_pids s));
  (c, s)

let status reply = if String.length reply >= 12 then String.sub reply 9 3 else reply

(* PUT answers 403 while the feature is cut and 201 while it is
   enabled; GET always answers 200 *)
let check_serving c ~cut what =
  let put = Workload.rpc c (Workload.http_put "/upload.txt" "hello upload") in
  let get = Workload.rpc c (Workload.http_get "/index.html") in
  Alcotest.(check string) (what ^ ": PUT") (if cut then "403" else "201") (status put);
  Alcotest.(check string) (what ^ ": GET") "200" (status get)

let cut_ok s method_ =
  match Dynacut.try_cut s ~blocks:(Lazy.force blocks) ~policy:(policy method_) () with
  | { Dynacut.r_outcome = `Applied; r_journals; _ } -> r_journals
  | r -> Alcotest.failf "cut: %a" Dynacut.pp_outcome r.Dynacut.r_outcome

let reenable_ok s journals =
  match Dynacut.try_reenable s journals with
  | { Dynacut.r_outcome = `Applied; _ } -> ()
  | r -> Alcotest.failf "re-enable: %a" Dynacut.pp_outcome r.Dynacut.r_outcome

(* the MD5 of every field of [img] that the codec carries, flattened
   without sharing: it names the image, not the frame that stored it *)
let flat (img : Images.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          Images.(img.core, img.mm, img.pagemap, page_bytes img, img.files, img.tcp, img.mmap_hint)
          [ Marshal.No_sharing ]))

(* every image the session keeps under its tmpfs directory, each of
   which must decode alone, with its [flat] digest; then the virtual
   clock *)
let frames (c : Workload.ctx) =
  let m = c.Workload.m in
  let prefix = "/tmpfs/dynacut-" in
  let under p =
    String.length p > String.length prefix
    && String.sub p 0 (String.length prefix) = prefix
  in
  List.map
    (fun p ->
      let blob = Option.get (Vfs.find m.Machine.fs p) in
      Printf.sprintf "%s %s" p (flat (Validate.decode_sealed blob)))
    (List.sort compare (List.filter under (Vfs.list m.Machine.fs)))
  @ [ Printf.sprintf "clock %Ld" m.Machine.clock ]

(* ---------- sealing coherence ---------- *)

(* The same image with every leaf sum dropped: sealing it hashes every
   byte. *)
let cold (img : Images.t) =
  let a = img.Images.pages in
  { img with Images.pages = { a with leaf = Array.make (Images.slots a.Images.len) Bytesx.no_leaf } }

(* [img] seals, with the leaf sums it carries, to the frame it seals
   cold, byte for byte: a sum carried from a page whose bytes changed
   would seal a different root. *)
let sealed_coherent (img : Images.t) what =
  let cold_frame = Validate.encode_sealed (cold img) in
  if not (String.equal (Validate.encode_sealed img) cold_frame) then
    Alcotest.failf "%s: frame sealed with carried sums differs from its cold seal" what

(* Every stored image frame is the frame sealed cold from the same
   image, byte for byte. The decode verifies every byte, so a frame
   sealed with a stale sum fails there already. *)
let coherent (c : Workload.ctx) what =
  let fs = c.Workload.m.Machine.fs in
  List.iter
    (fun p ->
      if Filename.check_suffix p ".img" then begin
        let blob = Option.get (Vfs.find fs p) in
        if not (String.equal blob (Validate.encode_sealed (cold (Validate.decode_sealed blob))))
        then Alcotest.failf "%s: %s differs from its cold seal" what p
      end)
    (Vfs.list fs)

(* Every resident page of every process of [m] that keeps a leaf sum
   keeps the sum of its bytes: a store path that left a sum behind
   fails here. *)
let sums_fresh (m : Machine.t) what =
  List.iter
    (fun (p : Proc.t) ->
      Hashtbl.iter
        (fun idx (pg : Mem.page) ->
          if
            pg.Mem.pg_sum <> Bytesx.no_leaf
            && pg.Mem.pg_sum <> Bytesx.leaf (Bytes.unsafe_to_string pg.Mem.pg_data)
          then Alcotest.failf "%s: pid %d page 0x%Lx keeps a stale leaf sum" what p.Proc.pid
                 (Int64.mul idx Mem.page_size64))
        p.Proc.mem.Mem.pages)
    (Machine.all_procs m)

let leaves_hashed () = Obs.counter_value (Obs.counter "criu.leaves_hashed")

let pages () =
  ( Obs.counter_value (Obs.counter "criu.pages_adopted"),
    Obs.counter_value (Obs.counter "criu.pages_copied") )

(* ---------- census ---------- *)

(* Besides the seals and read-backs, the census pins how the commit's
   restores make the pages of the two pids: each page no edit wrote is
   taken over from the replaced process, and only the slots the edits
   wrote are copied. A warm first-byte cut or re-enable writes one text
   page and the policy table page of each pid: 35 pages adopted, 4
   copied. The first cut also copies the handler library's pages that
   hold data; a dump stores no all-zero anonymous page, so the rest of
   the library, and the zero pages of ngx itself, are never made. *)
let test_census () =
  let c, s = boot ~seed:42 in
  let npids = List.length (Dynacut.tree_pids s) in
  let census what split before =
    Alcotest.(check int) (what ^ ": criu.save hits") (2 * npids) (Fault.hits Criu_save);
    Alcotest.(check int) (what ^ ": criu.load hits") npids (Fault.hits Criu_load);
    let a0, c0 = before and a1, c1 = pages () in
    Alcotest.(check (pair int int)) (what ^ ": pages adopted, copied") split (a1 - a0, c1 - c0)
  in
  List.iter
    (fun (round, cut_split) ->
      Fault.reset ();
      let before = pages () in
      let journals = cut_ok s `First_byte in
      census (round ^ " redirect first-byte cut") cut_split before;
      check_serving c ~cut:true "cut";
      Fault.reset ();
      let before = pages () in
      reenable_ok s journals;
      census (round ^ " re-enable") (35, 4) before;
      check_serving c ~cut:false "re-enabled")
    [ ("first", (28, 10)); ("warm", (35, 4)) ];
  Fault.reset ()

(* ---------- a policy page the image lacks ---------- *)

(* A [`Terminate] cut and its re-enable leave the handler library's
   policy page all zero, so neither frame stores it; the [`Redirect]
   cut after them writes a non-zero mode there, and the write adds the
   page to the working image. Each transaction applies, and the tree
   serves throughout. *)
let test_terminate_reenable_redirect () =
  Fault.reset ();
  let c, s = boot ~seed:5 in
  let get what =
    Alcotest.(check string) (what ^ ": GET") "200"
      (status (Workload.rpc c (Workload.http_get "/index.html")))
  in
  let blocks = Lazy.force blocks in
  let apply what r =
    match r.Dynacut.r_outcome with
    | `Applied -> r.Dynacut.r_journals
    | o -> Alcotest.failf "%s: %a" what Dynacut.pp_outcome o
  in
  let journals =
    apply "terminate cut"
      (Dynacut.try_cut s ~blocks ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Terminate } ())
  in
  get "terminate cut";
  ignore (apply "re-enable" (Dynacut.try_reenable s journals) : Rewriter.journal list);
  get "re-enabled";
  let mode pid =
    Inject.lib_sym s.Dynacut.handler_lib ~base:(List.assoc pid s.Dynacut.lib_bases) Handler.sym_mode
  in
  List.iter
    (fun pid ->
      let img =
        Validate.decode_sealed (Option.get (Vfs.find c.Workload.m.Machine.fs (Dynacut.image_path s pid)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "pid %d: policy page not stored" pid)
        false
        (List.exists
           (fun (pm : Images.pagemap_entry) -> pm.Images.pm_vaddr = Mem.page_base (mode pid))
           img.Images.pagemap))
    (Dynacut.tree_pids s);
  ignore (apply "redirect cut" (Dynacut.try_cut s ~blocks ~policy:(policy `First_byte) ()) : Rewriter.journal list);
  get "redirect cut";
  check_serving c ~cut:true "redirect cut";
  Fault.reset ()

(* ---------- stored-frame oracle ---------- *)

(* The decoded images, which hold the pages each process touched that
   are file-backed or hold data, and the clock: sealing page by page changes the frames' headers, never
   the images they store or the virtual clock. *)
let pinned =
  [
    "cut-first-byte /tmpfs/dynacut-100/dump-100.img 73c5190bcb98bd7eaea7318f02e67878";
    "cut-first-byte /tmpfs/dynacut-100/dump-101.img 5d1ce39fbea1d9ded738f0438ede7fa0";
    "cut-first-byte /tmpfs/dynacut-100/pristine-100.img 4c5d7c887810b8d3c835120cd945144c";
    "cut-first-byte /tmpfs/dynacut-100/pristine-101.img f906fed4d7412e4348d0351e7e4e2980";
    "cut-first-byte clock 300000";
    "reenable-first-byte /tmpfs/dynacut-100/dump-100.img f1c96a16c49ba039478b30b8d6b446b5";
    "reenable-first-byte /tmpfs/dynacut-100/dump-101.img f59f80fdcdd51acd78d55b8d27ad76fa";
    "reenable-first-byte /tmpfs/dynacut-100/pristine-100.img 473301a13762053dc03cf841de069853";
    "reenable-first-byte /tmpfs/dynacut-100/pristine-101.img 606fa51697e5c42211e09e9a1b36c4c6";
    "reenable-first-byte clock 320000";
    "cut-wipe /tmpfs/dynacut-100/dump-100.img 54eea922977a721393f339e6e7c7c939";
    "cut-wipe /tmpfs/dynacut-100/dump-101.img 5802b75cb72aea8a2aa2eb61aea92dc3";
    "cut-wipe /tmpfs/dynacut-100/pristine-100.img 757cb2631f27bf016f8b4195c4953358";
    "cut-wipe /tmpfs/dynacut-100/pristine-101.img 81602f028a249bcb1781e623f270b968";
    "cut-wipe clock 350000";
    "reenable-wipe /tmpfs/dynacut-100/dump-100.img decd1e6a57dd93f0e20d0d0a90fa3842";
    "reenable-wipe /tmpfs/dynacut-100/dump-101.img 3a303265862e2b81fe48f13adb5fede2";
    "reenable-wipe /tmpfs/dynacut-100/pristine-100.img 534dc9619fd648dabbe819b85a71f673";
    "reenable-wipe /tmpfs/dynacut-100/pristine-101.img 0dc6d053be1b05c0a0949d240d644471";
    "reenable-wipe clock 370000";
    "cut-unmap /tmpfs/dynacut-100/dump-100.img 6603460973471b727b227bfebe14eb5b";
    "cut-unmap /tmpfs/dynacut-100/dump-101.img c68b6d47cd63f0b1e24e4fedc9aa02a2";
    "cut-unmap /tmpfs/dynacut-100/pristine-100.img 249be8c1756186a6deb9e9b870dfe263";
    "cut-unmap /tmpfs/dynacut-100/pristine-101.img 5e6e58996c62633d9fef2e7982883bce";
    "cut-unmap clock 400000";
    "reenable-unmap /tmpfs/dynacut-100/dump-100.img 43dd51274840357ca84d0cd9e8d86697";
    "reenable-unmap /tmpfs/dynacut-100/dump-101.img 1e3f3b9a942ba9e52f92c23c30730026";
    "reenable-unmap /tmpfs/dynacut-100/pristine-100.img b51e9aee0426561a23f0802ac9668f7c";
    "reenable-unmap /tmpfs/dynacut-100/pristine-101.img 274304ac0d9f2c93ce676ae23f8ba1f7";
    "reenable-unmap clock 420000";
    "rollback /tmpfs/dynacut-100/dump-100.img 9f59598c966f435b305d1316b4b6faf4";
    "rollback /tmpfs/dynacut-100/dump-101.img 7dbec7825a7eaf98fc619c38b5ef6bc6";
    "rollback /tmpfs/dynacut-100/pristine-100.img 9f59598c966f435b305d1316b4b6faf4";
    "rollback /tmpfs/dynacut-100/pristine-101.img 7dbec7825a7eaf98fc619c38b5ef6bc6";
    "rollback clock 450000";
  ]

let test_oracle () =
  Fault.reset ();
  let c, s = boot ~seed:11 in
  let steps = ref [] in
  let record label =
    coherent c label;
    sums_fresh c.Workload.m label;
    steps := !steps @ List.map (fun l -> label ^ " " ^ l) (frames c)
  in
  List.iter
    (fun (name, method_) ->
      let journals = cut_ok s method_ in
      record ("cut-" ^ name);
      check_serving c ~cut:true name;
      sums_fresh c.Workload.m ("served after cut-" ^ name);
      reenable_ok s journals;
      record ("reenable-" ^ name);
      check_serving c ~cut:false name;
      sums_fresh c.Workload.m ("served after reenable-" ^ name))
    [ ("first-byte", `First_byte); ("wipe", `Wipe); ("unmap", `Unmap_pages) ];
  (* corrupt the last image write of the cut: the read-back catches it
     before anything is journaled as rewritten *)
  let npids = List.length (Dynacut.tree_pids s) in
  Fault.reset ();
  Fault.arm_mode Criu_save (Fault.On_nth (2 * npids)) Fault.Corrupt;
  let r = Dynacut.try_cut s ~blocks:(Lazy.force blocks) ~policy:(policy `First_byte) () in
  (match r.Dynacut.r_outcome with
  | `Rolled_back rb ->
      Alcotest.(check string) "caught by the read-back" "validate" rb.Dynacut.rb_stage;
      Alcotest.(check bool)
        ("names the damage: " ^ rb.Dynacut.rb_error)
        true
        (String.length rb.Dynacut.rb_error > 16
        && String.sub rb.Dynacut.rb_error 0 16 = "validate: image ")
  | o -> Alcotest.failf "corrupt save: %a" Dynacut.pp_outcome o);
  Alcotest.(check int) "corruption fired" 1 (Fault.fired Criu_save);
  Fault.reset ();
  record "rollback";
  check_serving c ~cut:false "after rollback";
  Alcotest.(check (list string)) "stored frames and clock" pinned !steps

(* ---------- the warm-transaction leaf gate ---------- *)

(* A warm cut reseals only what changed. After one warm-up cut of a
   booted ngx tree, a re-enable and a cut (each followed by the check
   requests) hash the head and tail of each of their 8 image frames
   (16) plus the 16 pages that stores dirtied or the rewrite edited,
   and the head and empty tail of each of their 30 journal frames (60):
   92, the count this bound was recorded at. Hashing every leaf of the
   image frames, as the whole-frame seal did, makes 1188 (8 x 141 image
   leaves, and the same 60). *)
let leaf_bound = 92

let test_leaf_gate () =
  Fault.reset ();
  let c, s = boot ~seed:42 in
  let journals = cut_ok s `First_byte in
  check_serving c ~cut:true "warm-up cut";
  let before = leaves_hashed () in
  reenable_ok s journals;
  check_serving c ~cut:false "re-enabled";
  ignore (cut_ok s `Wipe : Rewriter.journal list);
  check_serving c ~cut:true "cut";
  let hashed = leaves_hashed () - before in
  Alcotest.(check bool)
    (Printf.sprintf "re-enable + cut hashed %d leaves (bound %d)" hashed leaf_bound)
    true (hashed <= leaf_bound)

(* ---------- stored frames are never written again ---------- *)

(* A seal builds a frame in the image's own buffer, and the string it
   stores shares that buffer: a store into an image after its frame is
   stored would change the stored frame too. Through a warm first-byte,
   wipe and unmap cut and re-enable cycle, a copy of every frame is
   taken as it is stored, and each stored frame must still equal its
   copy at the end. The copies are taken whenever the registry reads
   its clock: the span or journal event that follows each store reads
   it before any later edit. *)
let test_stored_frames_unwritten () =
  Fault.reset ();
  let c, s = boot ~seed:42 in
  reenable_ok s (cut_ok s `First_byte);
  let m = c.Workload.m in
  let fs = m.Machine.fs in
  let kept = ref [] in
  let snapshot () =
    List.iter
      (fun p ->
        if Filename.check_suffix p ".img" then begin
          let blob = Option.get (Vfs.find fs p) in
          if not (List.exists (fun (b, _, _) -> b == blob) !kept) then
            kept := (blob, Bytes.to_string (Bytes.of_string blob), p) :: !kept
        end)
      (Vfs.list fs)
  in
  (* the machine's own clock source, as [Machine.create] installed it,
     holding the machine weakly *)
  let self = Weak.create 1 in
  Weak.set self 0 (Some m);
  let machine_clock () =
    match Weak.get self 0 with Some m -> m.Machine.clock | None -> 0L
  in
  Obs.set_clock (Some (fun () -> snapshot (); machine_clock ()));
  Fun.protect
    ~finally:(fun () -> Obs.set_clock (Some machine_clock))
    (fun () ->
      List.iter
        (fun (name, method_) ->
          let journals = cut_ok s method_ in
          check_serving c ~cut:true name;
          reenable_ok s journals;
          check_serving c ~cut:false name)
        [ ("first-byte", `First_byte); ("wipe", `Wipe); ("unmap", `Unmap_pages) ]);
  List.iter
    (fun (blob, copy, p) ->
      if not (String.equal blob copy) then
        Alcotest.failf "a frame stored as %s was written after it was stored" p)
    !kept;
  (* six transactions, each storing a pristine and a working frame for
     each of two pids *)
  Alcotest.(check bool)
    (Printf.sprintf "frames kept (%d)" (List.length !kept))
    true
    (List.length !kept >= 6 * 2 * 2)

(* ---------- adoption is invisible ---------- *)

(* What a process is, as far as a restore makes it: its VMAs, every
   resident page (address, protection, bytes), its registers. *)
let made (p : Proc.t) =
  let mem = p.Proc.mem and regs = p.Proc.regs in
  ( List.map
      (fun (v : Mem.vma) -> (v.Mem.va_start, v.Mem.va_len, v.Mem.va_name))
      mem.Mem.vmas,
    Hashtbl.fold
      (fun idx (pg : Mem.page) acc ->
        (idx, (pg.Mem.pg_prot.Self.p_r, pg.Mem.pg_prot.Self.p_w, pg.Mem.pg_prot.Self.p_x),
         Bytes.to_string pg.Mem.pg_data)
        :: acc)
      mem.Mem.pages []
    |> List.sort compare,
    (List.map (Proc.gpr regs) Reg.all, Proc.rip regs, Proc.pack_flags regs) )

(* Two ngx trees booted alike go through the same first-byte, wipe and
   unmap-pages cuts and re-enables. After each transaction, every pid
   of the second tree is restored once more, by copying, from the
   decoded working frame the transaction stored. The first tree's
   processes, restored by taking over their predecessors' pages, must
   match those page by page, register by register, and answer a PUT
   and a GET alike. The process each commit reaped keeps no page its
   successor maps: a write through its address space faults, and the
   live process's bytes stay as they were. *)
let test_adoption_invisible () =
  Fault.reset ();
  let a, sa = boot ~seed:42 in
  let b, sb = boot ~seed:42 in
  let pids = Dynacut.tree_pids sa in
  let compare_trees what =
    List.iter
      (fun pid ->
        let m = b.Workload.m in
        let frame = Option.get (Vfs.find m.Machine.fs (Dynacut.image_path sb pid)) in
        Machine.reap m ~pid;
        let q = Restore.restore m (Validate.decode_sealed frame) in
        q.Proc.frozen <- false;
        let p = Machine.proc_exn a.Workload.m pid in
        let ((vmas, pages, regs) as got) = made p and ((vmas', pages', regs') as want) = made q in
        if got <> want then
          Alcotest.failf "%s: pid %d adopted and copied restores differ in %s" what pid
            (if vmas <> vmas' then "vmas"
             else if List.length pages <> List.length pages' then "page count"
             else if regs <> regs' then "registers"
             else
               let idx, _, _ = List.find (fun pg -> not (List.mem pg pages')) pages in
               Printf.sprintf "the page at 0x%Lx" (Int64.mul idx Mem.page_size64)))
      pids;
    List.iter
      (fun req ->
        Alcotest.(check string) (what ^ ": same reply") (Workload.rpc b req) (Workload.rpc a req))
      [ Workload.http_put "/upload.txt" "hello upload"; Workload.http_get "/index.html" ]
  in
  (* [donors] were reaped by the commit that replaced them *)
  let check_reaped what (donors : Proc.t list) =
    List.iter
      (fun (d : Proc.t) ->
        let live = Machine.proc_exn a.Workload.m d.Proc.pid in
        Hashtbl.iter
          (fun _ (pg : Mem.page) ->
            if
              Hashtbl.fold (fun _ (q : Mem.page) shared -> shared || q.Mem.pg_data == pg.Mem.pg_data)
                d.Proc.mem.Mem.pages false
            then Alcotest.failf "%s: pid %d shares a page buffer with its reaped process" what d.Proc.pid)
          live.Proc.mem.Mem.pages;
        let sp = Proc.gpr live.Proc.regs Reg.Rsp in
        let before = Mem.peek8 live.Proc.mem sp in
        (match Mem.poke8 d.Proc.mem sp (before lxor 0xff) with
        | () -> Alcotest.failf "%s: pid %d: a write through the reaped process landed" what d.Proc.pid
        | exception Mem.Fault _ -> ());
        Alcotest.(check int) (what ^ ": live stack byte") before (Mem.peek8 live.Proc.mem sp))
      donors
  in
  (* [op] on both trees, each with its own journals *)
  let step what op (ja, jb) =
    let donors = List.map (Machine.proc_exn a.Workload.m) pids in
    let ja = op sa ja in
    let jb = op sb jb in
    check_reaped what donors;
    compare_trees what;
    (ja, jb)
  in
  List.iter
    (fun (name, method_) ->
      ([], [])
      |> step ("cut-" ^ name) (fun s _ -> cut_ok s method_)
      |> step ("reenable-" ^ name) (fun s j ->
             reenable_ok s j;
             [])
      |> ignore)
    [ ("first-byte", `First_byte); ("wipe", `Wipe); ("unmap", `Unmap_pages) ]

(* ---------- observers are invisible to the dump ---------- *)

(* Two ngx trees booted alike go through a first-byte cut and its
   re-enable. The second serves under the dataflow slicer, which
   traces the whole tree from its root, and a drcov collector on every
   pid, and before each transaction an observer
   reads every page of every pid, one byte per page and each VMA whole,
   as a memory scanner or a chaos oracle would. Anonymous memory is
   demand-zero and observers make no page, so both trees store the
   same frames, byte for byte. *)
let test_observers_invisible () =
  Fault.reset ();
  let a, sa = boot ~seed:42 in
  let b, sb = boot ~seed:42 in
  let m = b.Workload.m in
  ignore (Slicer.attach m ~pid:b.Workload.pid ~wanted_out:(fun _ -> true) () : Slicer.t);
  List.iter
    (fun pid -> ignore (Collector.attach m ~pid : Collector.t))
    (Dynacut.tree_pids sb);
  let observe () =
    List.iter
      (fun pid ->
        let mem = (Machine.proc_exn m pid).Proc.mem in
        List.iter
          (fun (v : Mem.vma) ->
            for k = 0 to (v.Mem.va_len / Mem.page_size) - 1 do
              let a = Int64.add v.Mem.va_start (Int64.of_int (k * Mem.page_size)) in
              ignore (Mem.peek8 mem a : int)
            done;
            ignore (Mem.peek_bytes mem v.Mem.va_start v.Mem.va_len : bytes))
          mem.Mem.vmas)
      (Dynacut.tree_pids sb)
  in
  let stored (c : Workload.ctx) =
    let fs = c.Workload.m.Machine.fs in
    List.filter_map
      (fun p ->
        if Filename.check_suffix p ".img" then
          Some (p, Digest.to_hex (Digest.string (Option.get (Vfs.find fs p))))
        else None)
      (List.sort compare (Vfs.list fs))
  in
  let same what =
    Alcotest.(check (list (pair string string))) (what ^ ": stored frames") (stored a) (stored b)
  in
  check_serving a ~cut:false "untraced twin";
  check_serving b ~cut:false "traced twin";
  observe ();
  let ja = cut_ok sa `First_byte in
  let jb = cut_ok sb `First_byte in
  same "cut";
  observe ();
  reenable_ok sa ja;
  reenable_ok sb jb;
  same "re-enable"

(* ---------- the redirect target ---------- *)

(* A redirect cut resolves its target from the executable once: later
   cuts reuse the session's target while the executable's contents in
   the Vfs are the same string, and a new string is resolved again, to
   the same target. *)
let test_redirect_target_kept () =
  Fault.reset ();
  let c, s = boot ~seed:42 in
  let journals = cut_ok s `First_byte in
  let first = s.Dynacut.target in
  Alcotest.(check bool) "resolved by the first cut" true (Option.is_some first);
  reenable_ok s journals;
  let journals = cut_ok s `Wipe in
  Alcotest.(check bool) "reused by the next cut" true (s.Dynacut.target == first);
  reenable_ok s journals;
  let fs = c.Workload.m.Machine.fs in
  let exe = (Machine.proc_exn c.Workload.m s.Dynacut.root_pid).Proc.exe_path in
  (* the same bytes in a new string *)
  Vfs.add fs exe (Bytes.to_string (Bytes.of_string (Option.get (Vfs.find fs exe))));
  ignore (cut_ok s `First_byte : Rewriter.journal list);
  Alcotest.(check bool) "resolved again for new contents" true (s.Dynacut.target != first);
  check_serving c ~cut:true "cut after the new contents"

(* ---------- retry from the pristine image ---------- *)

(* A transient fault while installing the policy table strikes after
   every pid's code is patched. The retry must start from the pristine
   frame: re-editing the half-patched image would journal 0xCC as the
   original byte, and the re-enable would then leave the trap in. *)
let test_transient_retry () =
  Fault.reset ();
  let c0, s0 = boot ~seed:5 in
  let clean = cut_ok s0 `First_byte in
  let c, s = boot ~seed:5 in
  Fault.arm ~transient:true Inject_policy Fault.One_shot;
  let r = Dynacut.try_cut s ~blocks:(Lazy.force blocks) ~policy:(policy `First_byte) () in
  Alcotest.(check bool) "policy fault fired" true (Fault.fired Inject_policy = 1);
  Fault.reset ();
  (match r.Dynacut.r_outcome with
  | `Applied -> ()
  | o -> Alcotest.failf "expected applied after retry: %a" Dynacut.pp_outcome o);
  Alcotest.(check int) "one retry" 1 r.Dynacut.r_retries;
  Alcotest.(check bool) "journals match a fault-free cut" true
    (r.Dynacut.r_journals = clean);
  let no_clock l = List.filter (fun x -> String.sub x 0 5 <> "clock") l in
  Alcotest.(check (list string)) "stored frames match a fault-free cut"
    (no_clock (frames c0)) (no_clock (frames c));
  check_serving c ~cut:true "after retry";
  reenable_ok s r.Dynacut.r_journals;
  check_serving c ~cut:false "re-enabled"

(* A re-enable whose journals leave a pid untouched still seals every
   pid, also on a retry that starts from an emptied image table *)
let test_partial_reenable_retry () =
  Fault.reset ();
  let c, s = boot ~seed:5 in
  let journals = cut_ok s `First_byte in
  let master, rest =
    List.partition
      (fun (j : Rewriter.journal) -> j.Rewriter.j_pid = s.Dynacut.root_pid)
      journals
  in
  Fault.arm ~transient:true Inject_policy Fault.One_shot;
  let r = Dynacut.try_reenable s master in
  Alcotest.(check bool) "policy fault fired" true (Fault.fired Inject_policy = 1);
  Fault.reset ();
  (match r.Dynacut.r_outcome with
  | `Applied -> ()
  | o -> Alcotest.failf "expected applied after retry: %a" Dynacut.pp_outcome o);
  Alcotest.(check int) "one retry" 1 r.Dynacut.r_retries;
  reenable_ok s rest;
  check_serving c ~cut:false "re-enabled"

let suite =
  [
    Alcotest.test_case "census: two seals and one read-back per pid" `Quick test_census;
    Alcotest.test_case "stored frames and clock pinned" `Quick test_oracle;
    Alcotest.test_case "terminate, re-enable, redirect: policy page added" `Quick
      test_terminate_reenable_redirect;
    Alcotest.test_case "adopting restore = copying restore" `Quick test_adoption_invisible;
    Alcotest.test_case "observers leave the stored frames alone" `Quick test_observers_invisible;
    Alcotest.test_case "warm re-enable and cut hash few leaves" `Quick test_leaf_gate;
    Alcotest.test_case "stored frames are never written again" `Quick
      test_stored_frames_unwritten;
    Alcotest.test_case "redirect target resolved once per executable" `Quick
      test_redirect_target_kept;
    Alcotest.test_case "transient inject.policy retries from pristine" `Quick
      test_transient_retry;
    Alcotest.test_case "partial re-enable retried" `Quick test_partial_reenable_retry;
  ]
