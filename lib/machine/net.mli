(** Machine-wide simulated TCP: listeners keyed by port, bidirectional
    byte-queue connections. Connections live in the "kernel", which is
    what makes CRIU-style TCP repair possible: a restored process
    re-attaches to still-existing connection objects, so clients survive
    a DynaCut rewrite (§3.3, Figure 8).

    A port may carry several listeners, one per worker process tree (the
    SO_REUSEPORT idiom). The kernel picks none of them: a fleet's
    balancer chooses the worker and admits onto its listener with
    {!connect_via}; {!connect} serves a port with one listener. *)

type conn = {
  conn_id : int;
  conn_port : int;
  c2s : Buffer.t;
  s2c : Buffer.t;
  mutable c2s_consumed : int;
  mutable s2c_consumed : int;
  mutable client_closed : bool;
  mutable server_closed : bool;
}

type listener = {
  l_port : int;
  l_owner : int;  (** owning process tree root *)
  mutable backlog : conn list;
  mutable backlog_max : int;
      (** accept-queue bound; [max_int] = unbounded *)
}

type t

val create : unit -> t

val listen : owner:int -> t -> int -> listener
(** Register (or fetch) [owner]'s listener on a port. Distinct owners get
    distinct listeners on the same port, in registration order. *)

val find_listener_owned : t -> port:int -> owner:int -> listener option
(** The listener [owner]'s tree registered on [port], if any. *)

val listeners_on : t -> int -> listener list
(** All listeners on a port, in registration order. *)

val find_conn : t -> int -> conn option

val drop_conn : t -> int -> unit
(** Forget a connection: the machine calls it when the server side has
    closed it and no live process's fd names it any more. The host
    client's own [conn] stays usable. *)

(** {2 Host (driver/client) side} *)

exception Refused of int

val connect : t -> int -> conn
(** Connect to the port's one guest listener. Raises {!Refused} if
    nothing listens or its bounded backlog is full, and
    [Invalid_argument] if several listeners share the port: a fleet
    port is reached through its balancer ({!connect_via}). *)

val connect_via : t -> listener -> conn
(** Admit one connection onto a {e specific} listener's accept queue —
    the least-loaded balancer's entry point. Raises {!Refused} when its
    bounded backlog is full. Fault site [net.accept_queue] guards the
    bounded-admission decision. *)

val backlog_depth : listener -> int
(** Pending, not-yet-accepted connections (also exposed as the
    [net.accept_queue_depth{owner,port}] gauge). *)

val backlog_full : listener -> bool
val set_backlog_max : listener -> int -> unit
(** Bound the accept queue (clamped to >= 1); [max_int] = unbounded. *)

val client_send : conn -> string -> unit
val client_recv : conn -> string
(** Drain everything the server wrote since the last call. *)

val client_pending : conn -> int
val client_close : conn -> unit

(** {2 Guest (server) side} *)

val server_accept : listener -> conn option
val server_pending : conn -> int

val server_recv : conn -> int -> string option
(** [None] = would block; [Some ""] = peer closed (EOF). *)

val server_send : conn -> string -> int
val server_close : conn -> unit

(** {2 Checkpoint support (TCP repair)} *)

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

val snapshot_conn : conn -> conn_snapshot

val repair_conn : t -> conn_snapshot -> conn
(** Re-attach a snapshotted connection: in-place rewrites keep the live
    kernel object (client bytes sent during the freeze are preserved);
    migration-style restores rebuild it from the snapshot. *)
