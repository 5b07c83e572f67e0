(** Machine-wide simulated TCP: listeners keyed by port, bidirectional
    connections with byte queues.

    Connections live in the machine's "kernel", not in the process — that
    is what makes CRIU-style TCP repair possible: the checkpoint records
    the connection ids and queue contents, and restore re-attaches the
    process's fds to the still-existing kernel objects, so a client mid-
    request survives a DynaCut rewrite (paper §3.3, Figure 8). The kernel
    forgets a connection once the server side has closed it and no live
    process's fd names it ({!drop_conn}); the host client keeps its own
    reference, and TCP repair re-creates a forgotten connection that an
    older image still names.

    A port may carry several listeners, one per worker process tree (the
    SO_REUSEPORT idiom). The kernel picks none of them: a fleet's
    balancer chooses the worker and admits onto its listener with
    {!connect_via}, and {!connect} serves a port with one listener. *)

type conn = {
  conn_id : int;
  conn_port : int;
  c2s : Buffer.t;  (** client -> server bytes, pending *)
  s2c : Buffer.t;
  mutable c2s_consumed : int;  (** bytes already read by server *)
  mutable s2c_consumed : int;
  mutable client_closed : bool;
  mutable server_closed : bool;
}

type listener = {
  l_port : int;
  l_owner : int;  (** owning process tree root *)
  mutable backlog : conn list;  (** pending, not yet accepted *)
  mutable backlog_max : int;
      (** accept-queue bound; [max_int] = unbounded *)
}

type t = {
  mutable next_conn : int;
  listeners : (int, listener list) Hashtbl.t;
      (** port -> listeners, in registration order *)
  conns : (int, conn) Hashtbl.t;
}

let create () =
  {
    next_conn = 1;
    listeners = Hashtbl.create 8;
    conns = Hashtbl.create 32;
  }

let listeners_on t port =
  match Hashtbl.find_opt t.listeners port with Some ls -> ls | None -> []

let listen ~owner t port =
  let ls = listeners_on t port in
  match List.find_opt (fun l -> l.l_owner = owner) ls with
  | Some l -> l
  | None ->
      let l =
        {
          l_port = port;
          l_owner = owner;
          backlog = [];
          backlog_max = max_int;
        }
      in
      Hashtbl.replace t.listeners port (ls @ [ l ]);
      l

(** The listener a given process tree owns on [port]. *)
let find_listener_owned t ~port ~owner =
  List.find_opt (fun l -> l.l_owner = owner) (listeners_on t port)

let find_conn t id = Hashtbl.find_opt t.conns id
let drop_conn t id = Hashtbl.remove t.conns id

(* ---------- host (driver/client) side ---------- *)

exception Refused of int

let backlog_depth (l : listener) = List.length l.backlog
let backlog_full (l : listener) = backlog_depth l >= l.backlog_max
let set_backlog_max (l : listener) n = l.backlog_max <- max 1 n

let depth_gauge (l : listener) =
  Obs.gauge
    ~labels:
      [ ("owner", string_of_int l.l_owner); ("port", string_of_int l.l_port) ]
    "net.accept_queue_depth"

(** Admit one connection onto [l]'s accept queue. Raises {!Refused} when
    its bounded backlog is full. Fault site [net.accept_queue] guards the
    bounded-admission decision, so unbounded listeners never reach it. *)
let connect_via t (l : listener) : conn =
  if l.backlog_max < max_int then begin
    Fault.site Net_accept_queue;
    if backlog_full l then raise (Refused l.l_port)
  end;
  let c =
    {
      conn_id = t.next_conn;
      conn_port = l.l_port;
      c2s = Buffer.create 64;
      s2c = Buffer.create 64;
      c2s_consumed = 0;
      s2c_consumed = 0;
      client_closed = false;
      server_closed = false;
    }
  in
  t.next_conn <- t.next_conn + 1;
  Hashtbl.replace t.conns c.conn_id c;
  l.backlog <- l.backlog @ [ c ];
  Obs.set_gauge (depth_gauge l) (float_of_int (backlog_depth l));
  c

(** Host connects to the port's one guest listener. A port that several
    workers share is reached through their balancer instead. *)
let connect t port =
  match listeners_on t port with
  | [] -> raise (Refused port)
  | [ l ] -> connect_via t l
  | _ -> invalid_arg "Net.connect: several listeners share the port"

let client_send (c : conn) (s : string) = Buffer.add_string c.c2s s

(** Drain whatever the server has written since the last call. *)
let client_recv (c : conn) : string =
  let all = Buffer.contents c.s2c in
  let fresh = String.sub all c.s2c_consumed (String.length all - c.s2c_consumed) in
  c.s2c_consumed <- String.length all;
  fresh

let client_pending (c : conn) = Buffer.length c.s2c - c.s2c_consumed
let client_close (c : conn) = c.client_closed <- true

(* ---------- guest (server) side ---------- *)

let server_accept (l : listener) : conn option =
  match l.backlog with
  | [] -> None
  | c :: rest ->
      (* before the pop, so a fail/kill fault leaves the backlog intact
         and the accept retries like an EINTR *)
      Fault.site Net_serve;
      l.backlog <- rest;
      Obs.set_gauge (depth_gauge l) (float_of_int (backlog_depth l));
      Some c

let server_pending (c : conn) = Buffer.length c.c2s - c.c2s_consumed

let server_recv (c : conn) (maxlen : int) : string option =
  let avail = server_pending c in
  if avail = 0 then if c.client_closed then Some "" else None
  else
    let n = min avail maxlen in
    let s = String.sub (Buffer.contents c.c2s) c.c2s_consumed n in
    c.c2s_consumed <- c.c2s_consumed + n;
    Some s

let server_send (c : conn) (s : string) =
  if c.server_closed then 0
  else begin
    Buffer.add_string c.s2c s;
    String.length s
  end

let server_close (c : conn) = c.server_closed <- true

(* ---------- checkpoint support (TCP repair) ---------- *)

type conn_snapshot = {
  cs_id : int;
  cs_port : int;
  cs_c2s : string;
  cs_c2s_consumed : int;
  cs_s2c : string;
  cs_s2c_consumed : int;
  cs_client_closed : bool;
  cs_server_closed : bool;
}

let snapshot_conn (c : conn) =
  {
    cs_id = c.conn_id;
    cs_port = c.conn_port;
    cs_c2s = Buffer.contents c.c2s;
    cs_c2s_consumed = c.c2s_consumed;
    cs_s2c = Buffer.contents c.s2c;
    cs_s2c_consumed = c.s2c_consumed;
    cs_client_closed = c.client_closed;
    cs_server_closed = c.server_closed;
  }

(** TCP repair: restore a connection's state into the kernel table. If the
    connection object still exists (the common in-place-rewrite case) its
    queues are reset to the snapshot; otherwise it is re-created. *)
let repair_conn t (s : conn_snapshot) : conn =
  let c =
    match Hashtbl.find_opt t.conns s.cs_id with
    | Some c -> c
    | None ->
        (* migration-style restore: rebuild the socket from the snapshot *)
        let c =
          {
            conn_id = s.cs_id;
            conn_port = s.cs_port;
            c2s = Buffer.create 64;
            s2c = Buffer.create 64;
            c2s_consumed = s.cs_c2s_consumed;
            s2c_consumed = s.cs_s2c_consumed;
            client_closed = s.cs_client_closed;
            server_closed = s.cs_server_closed;
          }
        in
        Buffer.add_string c.c2s s.cs_c2s;
        Buffer.add_string c.s2c s.cs_s2c;
        Hashtbl.replace t.conns s.cs_id c;
        t.next_conn <- max t.next_conn (s.cs_id + 1);
        c
  in
  (* In-place rewrite: only the *server-side read position* is owned by the
     checkpointed process; client-side state (new bytes sent while the
     process was frozen) is kept in the live kernel object. *)
  c.c2s_consumed <- min s.cs_c2s_consumed (Buffer.length c.c2s);
  c.server_closed <- s.cs_server_closed;
  c
