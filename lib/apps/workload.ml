(** Host-side workload drivers: boot an application on a fresh machine,
    watch its console for the ready banner (the paper's §3.1 "the end of
    a program's initialization phase can be easily observed by reading
    the printed log"), drive requests, and collect traces.

    Everything here is deterministic: a fixed seed, a virtual clock, and
    closed-loop clients. *)

type app = {
  a_name : string;  (** binary name in the machine fs *)
  a_port : int option;  (** None for batch (SPEC-like) apps *)
  a_banner : string;  (** init-done log line *)
  a_files : (string * string) list Lazy.t;
      (** the serialized binary at [a_name], then the files it reads *)
}

(** An app whose files are built once per process: its binary, linked
    from [unit_ ()] and serialized, then [files]. The AST is built inside
    the lazy, so after the link only the serialized image stays live. *)
let app_of_unit name port banner (unit_ : unit -> Ast.comp_unit) files =
  {
    a_name = name;
    a_port = port;
    a_banner = banner;
    a_files =
      lazy ((name, Self.to_bytes (Crt0.link_app ~libc:(Lazy.force Libc.shared) (unit_ ()))) :: files);
  }

let ltpd = app_of_unit "ltpd" (Some Ltpd.port) Ltpd.ready_banner Ltpd.unit_ltpd Ltpd.files
let ngx = app_of_unit "ngx" (Some Ngx.port) Ngx.ready_banner Ngx.unit_ngx Ngx.files
let rkv = app_of_unit "rkv" (Some Rkv.port) Rkv.ready_banner Rkv.unit_rkv Rkv.files

let spec_app (k : Spec.kernel) =
  app_of_unit k.Spec.k_name None (Spec.init_done_banner k.Spec.k_name) k.Spec.k_unit k.Spec.k_files

let spec_apps = List.map spec_app Spec.all

(** The servers of the paper's §4 + the SPEC suite. *)
let all_apps = [ ltpd; ngx; rkv ] @ spec_apps

type ctx = {
  app : app;
  m : Machine.t;
  pid : int;  (** root pid (the master for ngx) *)
  col : Collector.t option;
}

exception Workload_error of string

(** Console text of the whole process tree (workers inherit the root's
    banner duties in some apps). *)
let console (c : ctx) : string =
  Machine.all_procs c.m
  |> List.map (fun (p : Proc.t) -> Proc.peek_stdout p)
  |> String.concat ""

let banner_seen (c : ctx) =
  let b = c.app.a_banner and s = console c in
  let nb = String.length b and ns = String.length s in
  let rec go i = i + nb <= ns && (String.sub s i nb = b || go (i + 1)) in
  go 0

(** The app's serialized binary, shared by every machine it runs on. *)
let binary (app : app) : string = List.assoc app.a_name (Lazy.force app.a_files)

(** Add libc.so and [app]'s files to [fs]. Nothing is linked here: every
    filesystem shares the strings built once per process, which is safe
    because a {!Vfs} never mutates a stored string. *)
let install (fs : Vfs.t) (app : app) : unit =
  Vfs.add fs "libc.so" (Lazy.force Libc.shared_so);
  List.iter (fun (p, c) -> Vfs.add fs p c) (Lazy.force app.a_files)

(** Spawn [app] on a fresh machine. [traced] attaches the coverage
    collector *before* the first instruction so initialization code is
    covered. *)
let spawn ?(seed = 42) ?(traced = false) (app : app) : ctx =
  let m = Machine.create ~seed () in
  install m.Machine.fs app;
  let p = Machine.spawn m ~exe_path:app.a_name () in
  let col = if traced then Some (Collector.attach m ~pid:p.Proc.pid) else None in
  { app; m; pid = p.Proc.pid; col }

let contains ~(sub : string) (s : string) =
  let nb = String.length sub and ns = String.length s in
  let rec go i = i + nb <= ns && (String.sub s i nb = sub || go (i + 1)) in
  go 0

(** Spawn [n] independent workers of [app] side by side on {e one}
    machine — the fleet topology. Every worker is its own process tree
    with its own listener on the app's port; a request reaches one
    through the fleet's balancer, never through {!rpc}. Returns one
    untraced ctx per worker, all sharing the machine. *)
let spawn_fleet ?(seed = 42) ~n (app : app) : ctx list =
  if n < 1 then invalid_arg "Workload.spawn_fleet: n must be >= 1";
  let m = Machine.create ~seed () in
  install m.Machine.fs app;
  List.init n (fun _ ->
      let p = Machine.spawn m ~exe_path:app.a_name () in
      { app; m; pid = p.Proc.pid; col = None })

(** Run until {e every} worker printed its banner on its own console —
    the merged-console check of {!wait_ready} would falsely pass once
    the first worker boots. *)
let wait_fleet_ready (fleet : ctx list) : unit =
  let m = match fleet with c :: _ -> c.m | [] -> invalid_arg "empty fleet" in
  let ready (c : ctx) =
    contains ~sub:c.app.a_banner (Proc.peek_stdout (Machine.proc_exn m c.pid))
  in
  match
    Machine.run_until m ~max_cycles:60_000_000 ~pred:(fun () ->
        List.for_all ready fleet)
  with
  | `Pred -> ignore (Machine.run m ~max_cycles:200_000)
  | `Idle | `Dead | `Budget ->
      let stragglers =
        List.filter_map
          (fun c -> if ready c then None else Some (string_of_int c.pid))
          fleet
      in
      raise
        (Workload_error
           (Printf.sprintf "fleet workers [%s] never printed their banner"
              (String.concat ";" stragglers)))

(** Run until the init banner appears (and, for servers, until the tree
    quiesces into accept). *)
let wait_ready (c : ctx) : unit =
  match
    Machine.run_until c.m ~max_cycles:30_000_000 ~pred:(fun () -> banner_seen c)
  with
  | `Pred ->
      (* let servers settle into their accept loop *)
      if c.app.a_port <> None then ignore (Machine.run c.m ~max_cycles:200_000)
  | `Idle | `Dead | `Budget ->
      if not (banner_seen c) then
        raise
          (Workload_error
             (Printf.sprintf "%s never printed its banner; console: %s" c.app.a_name
                (console c)))

(** Spawn [app] and run it until ready: the one way a scenario boots a
    tree. The machine under test is created last: discovery (the
    [trace_*] runs, [Common.*_blocks], [Slicelab.profile]) creates
    machines of its own, and the [Obs] clock follows the last machine
    created, so run it first. *)
let boot ?seed ?traced (app : app) : ctx =
  let c = spawn ?seed ?traced app in
  wait_ready c;
  c

(** One closed-loop request: connect, send, run until a reply arrives (or
    the server dies), return the reply. *)
let rpc ?(max_cycles = 5_000_000) (c : ctx) (text : string) : string =
  let port =
    match c.app.a_port with
    | Some p -> p
    | None -> raise (Workload_error (c.app.a_name ^ " is not a server"))
  in
  let conn = Net.connect c.m.Machine.net port in
  Net.client_send conn text;
  let dead () =
    match Machine.proc c.m c.pid with
    | Some p -> not (Proc.is_live p)
    | None -> true
  in
  let (_ : _) =
    Machine.run_until c.m ~max_cycles ~pred:(fun () ->
        Net.client_pending conn > 0 || dead ())
  in
  Net.client_recv conn

(** Run a batch app to completion; returns its exit state. *)
let run_to_exit ?(max_cycles = 80_000_000) (c : ctx) : Proc.state =
  let (_ : _) =
    Machine.run_until c.m ~max_cycles ~pred:(fun () ->
        match Machine.proc c.m c.pid with
        | Some p -> not (Proc.is_live p)
        | None -> true)
  in
  (Machine.proc_exn c.m c.pid).Proc.state

let collector (c : ctx) =
  match c.col with
  | Some col -> col
  | None -> raise (Workload_error "context was not spawned with ~traced:true")

(* ---------- standard request mixes ---------- *)

let http_get path = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path
let http_head path = Printf.sprintf "HEAD %s HTTP/1.0\r\n\r\n" path
let http_post path body = Printf.sprintf "POST %s HTTP/1.0\r\n\r\n%s" path body
let http_put path body = Printf.sprintf "PUT %s HTTP/1.0\r\n\r\n%s" path body
let http_delete path = Printf.sprintf "DELETE %s HTTP/1.0\r\n\r\n" path

(** Wanted traffic for the web servers: read-only methods *plus* requests
    that exercise the default error path, so the dispatcher chain and the
    403 responder stay in the wanted coverage (§3.1 requires sample
    inputs for every wanted behaviour). *)
let web_wanted =
  [
    http_get "/index.html";
    http_get "/about.txt";
    http_get "/style.css";
    http_get "/missing.html";
    http_head "/index.html";
    http_post "/form" "a=1&b=2";
    "OPTIONS / HTTP/1.0\r\n\r\n";
    "PROPFIND / HTTP/1.0\r\n\r\n";
    "BREW /pot HTTP/1.0\r\n\r\n" (* unknown method: error path *);
  ]

(** Undesired traffic: the WebDAV write methods (the paper disables PUT
    and DELETE in Nginx and Lighttpd, §4.1). *)
let web_undesired =
  [
    http_put "/upload.txt" "hello upload";
    http_get "/upload.txt";
    (* reads of *other* resources while an upload exists: covers the
       scan-past-occupied-slot path that a PUT-then-GET workload would
       otherwise leave untraced (the §3.2.3 over-elimination pitfall) *)
    http_get "/index.html";
    http_head "/about.txt";
    http_delete "/upload.txt";
    http_delete "/upload.txt" (* delete of an already-deleted resource *);
  ]

(** Wanted traffic for rkv: the read-mostly command set plus an unknown
    command for the error path. *)
let kv_wanted =
  [
    "PING\n";
    "GET greeting\n";
    "GET missing\n";
    "EXISTS color\n";
    "INCR counter\n";
    "APPEND color ish\n";
    "ECHO hi\n";
    "KEYS\n";
    "INFO\n";
    "DEL color\n";
    "BOGUS x\n" (* unknown command: error path *);
  ]

(** Undesired traffic for the Figure 8 experiment: the SET command. *)
let kv_undesired = [ "SET newkey newval\n"; "GET newkey\n"; "SET newkey other\n" ]

(** Undesired traffic for Table 1: the vulnerable commands, driven with
    benign arguments during profiling. *)
let kv_vulnerable =
  [
    "SETRANGE greeting 2 xy\n";
    "STRALGO abc abd\n";
    "CONFIG SET small\n";
    "CONFIG GET x\n";
  ]

(** Trace one boot + request mix; returns (init log, serving log) using
    the nudge protocol when [nudge_at_ready], else a single merged log. *)
let trace_requests ~(app : app) ~(requests : string list)
    ~(nudge_at_ready : bool) () : Drcov.log option * Drcov.log =
  let c = boot ~traced:true app in
  let init_log = if nudge_at_ready then Some (Collector.nudge (collector c)) else None in
  List.iter (fun r -> ignore (rpc c r)) requests;
  (* keep profiling for a while after the request mix: periodic code (the
     ngx master's wakeup loop) must land in the serving coverage, or the
     init-diff would misclassify it — the "may also execute later"
     pitfall the paper discusses in §3.1 *)
  ignore (Machine.run c.m ~max_cycles:5_000_000);
  (init_log, Collector.detach (collector c))

(** Trace a SPEC kernel: nudge at the init banner, then run to exit. *)
let trace_spec (k : Spec.kernel) : Drcov.log * Drcov.log =
  let c = boot ~traced:true (spec_app k) in
  let init_log = Collector.nudge (collector c) in
  let (_ : Proc.state) = run_to_exit c in
  (init_log, Collector.detach (collector c))

(** Fully automatic phase profiling (paper §5, implemented in
    {!Autophase}): no operator watches the console — the init nudge
    fires on the server's first [accept] syscall. *)
let trace_requests_auto ~(app : app) ~(requests : string list) () :
    Drcov.log * Drcov.log =
  let c = spawn ~traced:true app in
  let auto = Autophase.arm c.m (collector c) in
  wait_ready c;
  List.iter (fun r -> ignore (rpc c r)) requests;
  ignore (Machine.run c.m ~max_cycles:5_000_000);
  Autophase.disarm auto;
  match Autophase.init_log auto with
  | Some init -> (init, Collector.detach (collector c))
  | None -> raise (Workload_error "autophase never fired")
