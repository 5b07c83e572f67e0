(** Post-cut supervision: canary rollouts, trap-storm circuit breaker,
    crash-loop respawn, verifier feedback. See supervisor.mli. *)

type config = {
  window : int64;
  max_traps : int;
  critical : bool;
  cooldown : int64;
  max_trips : int;
  max_respawns : int;
  canary_windows : int;
}

let default_config =
  {
    window = 50_000L;
    max_traps = 3;
    critical = false;
    cooldown = 100_000L;
    max_trips = 3;
    max_respawns = 5;
    canary_windows = 2;
  }

type breaker = Dynacut.breaker = Closed | Open of int64 | Half_open of int64 | Abandoned

let pp_breaker ppf = function
  | Closed -> Format.fprintf ppf "closed"
  | Open until -> Format.fprintf ppf "open(until=%Ld)" until
  | Half_open since -> Format.fprintf ppf "half-open(since=%Ld)" since
  | Abandoned -> Format.fprintf ppf "abandoned"

type event_kind =
  | Cut_applied of int list
  | Canary_cut of int
  | Canary_promoted of int list
  | Canary_rejected of { pid : int; traps : int }
  | Promotion_failed of string
  | Breaker_tripped of { traps : int; trip : int }
  | Reenabled
  | Reenable_failed of string
  | Half_open_probe
  | Probe_recut of int list
  | Probe_failed of string
  | Breaker_closed
  | Abandoned_cut
  | Respawned of { pid : int; deaths : int }
  | Respawn_failed of { pid : int; error : string }
  | Respawn_capped of int
  | Verifier_shrunk of { dropped : int; kept : int }

type event = { e_clock : int64; e_kind : event_kind }

let pp_pids ppf pids =
  Format.fprintf ppf "[%s]"
    (String.concat ";" (List.map string_of_int (List.sort compare pids)))

let pp_event_kind ppf = function
  | Cut_applied pids -> Format.fprintf ppf "cut-applied %a" pp_pids pids
  | Canary_cut pid -> Format.fprintf ppf "canary-cut pid=%d" pid
  | Canary_promoted pids -> Format.fprintf ppf "canary-promoted %a" pp_pids pids
  | Canary_rejected { pid; traps } ->
      Format.fprintf ppf "canary-rejected pid=%d traps=%d" pid traps
  | Promotion_failed why -> Format.fprintf ppf "promotion-failed %s" why
  | Breaker_tripped { traps; trip } ->
      Format.fprintf ppf "breaker-tripped traps=%d trip=%d" traps trip
  | Reenabled -> Format.fprintf ppf "reenabled"
  | Reenable_failed why -> Format.fprintf ppf "reenable-failed %s" why
  | Half_open_probe -> Format.fprintf ppf "half-open-probe"
  | Probe_recut pids -> Format.fprintf ppf "probe-recut %a" pp_pids pids
  | Probe_failed why -> Format.fprintf ppf "probe-failed %s" why
  | Breaker_closed -> Format.fprintf ppf "breaker-closed"
  | Abandoned_cut -> Format.fprintf ppf "abandoned"
  | Respawned { pid; deaths } ->
      Format.fprintf ppf "respawned pid=%d deaths=%d" pid deaths
  | Respawn_failed { pid; error } ->
      Format.fprintf ppf "respawn-failed pid=%d %s" pid error
  | Respawn_capped pid -> Format.fprintf ppf "respawn-capped pid=%d" pid
  | Verifier_shrunk { dropped; kept } ->
      Format.fprintf ppf "verifier-shrunk dropped=%d kept=%d" dropped kept

let pp_event ppf e =
  Format.fprintf ppf "@[<h>%10Ld %a@]" e.e_clock pp_event_kind e.e_kind

type rollout = R_promoted | R_canary_rejected | R_promotion_failed | R_rolled_back of string

let pp_rollout ppf = function
  | R_promoted -> Format.fprintf ppf "promoted"
  | R_canary_rejected -> Format.fprintf ppf "canary-rejected"
  | R_promotion_failed -> Format.fprintf ppf "promotion-failed"
  | R_rolled_back stage -> Format.fprintf ppf "rolled-back(%s)" stage

type t = {
  session : Dynacut.session;
  cfg : config;
  mutable blocks : Covgraph.block list;
  policy : Dynacut.policy;
  mutable journals : Rewriter.journal list;
  mutable cut_pids : int list;  (** pids currently carrying the cut *)
  mutable trips : int;
  mutable samples : (int64 * int) list;  (** (clock, trap delta), newest first *)
  meter : Dynacut.trap_meter;  (** per-pid trap-counter baselines *)
  mutable deaths : int list;  (** exit-hook queue, oldest first *)
  mutable respawns : (int * int) list;  (** per-pid respawn count *)
  mutable capped : int list;  (** pids whose respawn budget ran out *)
  mutable supervised : int list;
  mutable events : event list;  (** newest first *)
}

let clock t = t.session.Dynacut.machine.Machine.clock

(* every supervisor decision is mirrored into the unified event ring
   (same clock stamp as the private log, so the two replay identically),
   and the decisions `top` summarizes also bump registry counters *)
let emit t kind =
  t.events <- { e_clock = clock t; e_kind = kind } :: t.events;
  if Obs.enabled () then begin
    Obs.event ~kind:"supervisor" (Format.asprintf "%a" pp_event_kind kind);
    match kind with
    | Breaker_tripped _ -> Obs.incr (Obs.counter "supervisor.trips")
    | Respawned { pid; _ } ->
        Obs.incr
          (Obs.counter ~labels:[ ("pid", string_of_int pid) ]
             "supervisor.respawns")
    | _ -> ()
  end

let breaker_code = function
  | Closed -> 0.
  | Open _ -> 1.
  | Half_open _ -> 2.
  | Abandoned -> 3.

let breaker_gauge ~root_pid =
  Obs.gauge ~labels:[ ("pid", string_of_int root_pid) ] "supervisor.breaker"

(* the state lives on the session, where the fleet balancer reads it
   (DESIGN.md §6b); the gauges only mirror it for `top` and the dumps *)
let set_breaker t b =
  t.session.Dynacut.breaker <- b;
  Obs.set_gauge (Obs.gauge "supervisor.breaker") (breaker_code b);
  Obs.set_gauge (breaker_gauge ~root_pid:t.session.Dynacut.root_pid) (breaker_code b)

let event_log t = List.rev t.events

let render_log t =
  String.concat "\n"
    (List.map (fun e -> Format.asprintf "%a" pp_event e) (event_log t))

let breaker_state t = t.session.Dynacut.breaker
let trips t = t.trips
let journals t = t.journals
let blocks t = t.blocks
let cut_live t = t.journals <> []

let create (s : Dynacut.session) ~config ~blocks ~policy =
  s.Dynacut.breaker <- Closed;
  let t =
    {
      session = s;
      cfg = config;
      blocks;
      policy;
      journals = [];
      cut_pids = [];
      trips = 0;
      samples = [];
      meter = Dynacut.trap_meter ();
      deaths = [];
      respawns = [];
      capped = [];
      supervised = Dynacut.tree_pids s;
      events = [];
    }
  in
  let m = s.Dynacut.machine in
  let prev = m.Machine.on_exit in
  m.Machine.on_exit <-
    Some
      (fun p ->
        (match prev with Some hook -> hook p | None -> ());
        let pid = p.Proc.pid in
        if List.mem pid t.supervised || List.mem p.Proc.parent t.supervised
        then begin
          if not (List.mem pid t.supervised) then
            t.supervised <- pid :: t.supervised;
          t.deaths <- t.deaths @ [ pid ]
        end);
  t

(* ------------------------------------------------------------------ *)
(* Trap sampling                                                       *)

let trap_delta t pid = Dynacut.trap_delta t.meter t.session ~pid

let rebaseline t pids =
  List.iter (fun pid -> ignore (trap_delta t pid)) pids;
  t.samples <- []

(** A death the respawner should handle: killed by a trap-family signal
    (un-redirected SIGTRAP, SIGILL on wiped bytes, SIGSEGV on unmapped
    pages, SIGSYS from seccomp) or exited through the handler's
    [`Terminate] status. Normal exits are final. *)
let respawnable_death (p : Proc.t) =
  match p.Proc.state with
  | Proc.Killed n ->
      n = Abi.sigtrap || n = Abi.sigill || n = Abi.sigsegv || n = Abi.sigsys
  | Proc.Exited code -> code = Handler.blocked_exit_status
  | Proc.Runnable | Proc.Blocked _ -> false

(** Traps implied by a death (counts toward the SLO window even under
    [`Kill], where no handler runs to bump the counter). *)
let death_traps t pids =
  List.fold_left
    (fun acc pid ->
      match Machine.proc t.session.Dynacut.machine pid with
      | Some p when respawnable_death p -> acc + 1
      | _ -> acc)
    0 pids

let sample t =
  let live =
    List.filter
      (fun pid ->
        match Machine.proc t.session.Dynacut.machine pid with
        | Some p -> Proc.is_live p
        | None -> false)
      t.cut_pids
  in
  let traps = List.fold_left (fun acc pid -> acc + trap_delta t pid) 0 live in
  let traps = traps + death_traps t t.deaths in
  let now = clock t in
  t.samples <- (now, traps) :: t.samples;
  let horizon = Int64.sub now t.cfg.window in
  t.samples <- List.filter (fun (c, _) -> c >= horizon) t.samples;
  List.fold_left (fun acc (_, n) -> acc + n) 0 t.samples

let breached t ~limit traps = traps > limit || (t.cfg.critical && traps > 0)

(* ------------------------------------------------------------------ *)
(* Crash-loop respawn                                                  *)

let live_pids t pids =
  List.filter
    (fun pid ->
      match Machine.proc t.session.Dynacut.machine pid with
      | Some p -> Proc.is_live p
      | None -> false)
    pids

(** Respawn one dead supervised worker from its checkpoint image: the
    working image if the pid carries the cut (so the cut is re-applied
    for free), the pristine image otherwise. Returns [false] if the
    death should be retried on the next tick. *)
let respawn_one t pid =
  let m = t.session.Dynacut.machine in
  match Machine.proc m pid with
  | None -> true
  | Some p when Proc.is_live p -> true  (* already back (e.g. probe re-cut restored it) *)
  | Some p when not (respawnable_death p) -> true
  | Some _ ->
      if List.mem pid t.capped then true
      else begin
        let n = (try List.assoc pid t.respawns with Not_found -> 0) in
        if n >= t.cfg.max_respawns then begin
          t.capped <- pid :: t.capped;
          emit t (Respawn_capped pid);
          true
        end
        else begin
          ignore (Dynacut.backoff m ~attempt:n);
          let path =
            if List.mem pid t.cut_pids && cut_live t then
              Dynacut.image_path t.session pid
            else Dynacut.pristine_path t.session pid
          in
          (* journaled: a controller death between the intent and the
             new process is redone by [Dynacut.recover] *)
          match Dynacut.journaled_respawn t.session ~pid ~path with
          | exception (Fault.Injected { site; _ } as e) ->
              ignore site;
              emit t
                (Respawn_failed { pid; error = Printexc.to_string e });
              t.respawns <- (pid, n + 1) :: List.remove_assoc pid t.respawns;
              false
          | exception Restore.Restore_error msg ->
              emit t (Respawn_failed { pid; error = msg });
              t.respawns <- (pid, n + 1) :: List.remove_assoc pid t.respawns;
              false
          | (_ : Proc.t) ->
              (if not (List.mem pid t.cut_pids && cut_live t) then
                 (* restored pristine: stale policy entries would poison
                    the next transaction *)
                 Dynacut.forget_pid t.session ~pid);
              t.respawns <- (pid, n + 1) :: List.remove_assoc pid t.respawns;
              (* the image's counter replaces the live one *)
              ignore (trap_delta t pid);
              emit t (Respawned { pid; deaths = n + 1 });
              true
        end
      end

let handle_deaths t =
  let pending = t.deaths in
  (* consumed below; sample already charged their traps this tick *)
  t.deaths <- [];
  List.iter
    (fun pid -> if not (respawn_one t pid) then t.deaths <- t.deaths @ [ pid ])
    pending

(* ------------------------------------------------------------------ *)
(* Breaker transitions                                                 *)

(** Re-enable the cut on every live pid that carries it (fault site
    [supervisor.reenable]). Returns [false] if the attempt failed — the
    caller leaves the breaker as-is and retries next tick. *)
let attempt_reenable t =
  match
    Fault.site "supervisor.reenable";
    Dynacut.try_reenable t.session ~pids:(live_pids t t.cut_pids) t.journals
  with
  | exception Fault.Injected _ ->
      emit t (Reenable_failed "fault at supervisor.reenable");
      false
  | { Dynacut.r_outcome = `Rolled_back rb; _ } ->
      emit t (Reenable_failed rb.Dynacut.rb_stage);
      false
  | { Dynacut.r_outcome = `Applied; _ } ->
      t.journals <- [];
      emit t Reenabled;
      rebaseline t (live_pids t t.cut_pids);
      true

let trip t ~traps =
  let next = t.trips + 1 in
  if attempt_reenable t then begin
    t.trips <- next;
    emit t (Breaker_tripped { traps; trip = next });
    if next >= t.cfg.max_trips then begin
      set_breaker t @@ Abandoned;
      emit t Abandoned_cut
    end
    else set_breaker t @@ Open (Int64.add (clock t) t.cfg.cooldown)
  end
(* on failure: stay put, the next tick re-detects the storm and retries *)

let probe_recut t =
  emit t Half_open_probe;
  let pids = live_pids t t.cut_pids in
  match
    Dynacut.try_cut t.session ~pids ~blocks:t.blocks ~policy:t.policy ()
  with
  | exception Fault.Injected _ ->
      emit t (Probe_failed "fault during probe re-cut");
      set_breaker t @@ Open (Int64.add (clock t) t.cfg.cooldown)
  | { Dynacut.r_outcome = `Rolled_back rb; _ } ->
      emit t (Probe_failed rb.Dynacut.rb_stage);
      set_breaker t @@ Open (Int64.add (clock t) t.cfg.cooldown)
  | { Dynacut.r_outcome = `Applied; r_journals; _ } ->
      t.journals <- r_journals;
      emit t (Probe_recut pids);
      rebaseline t pids;
      set_breaker t @@ Half_open (clock t)

let tick t =
  let window_traps = sample t in
  handle_deaths t;
  match breaker_state t with
  | Abandoned -> ()
  | Closed ->
      if cut_live t && breached t ~limit:t.cfg.max_traps window_traps then
        trip t ~traps:window_traps
  | Open until -> if clock t >= until then probe_recut t
  | Half_open since ->
      (* a half-open probe tolerates no trap at all *)
      if breached t ~limit:0 window_traps then
        trip t ~traps:window_traps
      else if Int64.sub (clock t) since >= t.cfg.window then begin
        set_breaker t @@ Closed;
        emit t Breaker_closed
      end

(* ------------------------------------------------------------------ *)
(* Canary rollout                                                      *)

(** The youngest non-root worker — in an ngx-style master/worker tree,
    a worker; in a single-process tree, the root itself. *)
let pick_canary t =
  let pids = Dynacut.tree_pids t.session in
  match List.rev (List.filter (fun p -> p <> t.session.Dynacut.root_pid) pids) with
  | pid :: _ -> pid
  | [] -> t.session.Dynacut.root_pid

(** Revert a canary whose cut must not survive: re-enable it if alive,
    or rebuild it from its pristine image if the storm killed it. Runs
    under {!Fault.suppressed} — this is an unwind path. *)
let revert_canary t pid cj =
  Fault.suppressed (fun () ->
      let m = t.session.Dynacut.machine in
      (match Machine.proc m pid with
      | Some p when Proc.is_live p ->
          (match Dynacut.try_reenable t.session ~pids:[ pid ] cj with
          | { Dynacut.r_outcome = `Applied; _ } -> ()
          | exception (Fault.Controller_killed _ as e) -> raise e
          | exception (Journal.Fenced _ as e) -> raise e
          | { Dynacut.r_outcome = `Rolled_back _; _ } | (exception _) ->
              (* last resort: recreate from the pre-cut image *)
              Dynacut.respawn_pristine t.session ~pid)
      | _ -> Dynacut.respawn_pristine t.session ~pid);
      (* drop any queued death for the canary: just handled *)
      t.deaths <- List.filter (fun d -> d <> pid) t.deaths);
  t.journals <- [];
  t.cut_pids <- []

let full_cut t ~pids =
  match Dynacut.try_cut t.session ~pids ~blocks:t.blocks ~policy:t.policy () with
  | { Dynacut.r_outcome = `Rolled_back rb; _ } -> Error rb.Dynacut.rb_stage
  | { Dynacut.r_outcome = `Applied; r_journals; _ } -> Ok r_journals

let guarded_cut t ?(canary = true) ~drive () =
  if not canary then begin
    let pids = Dynacut.tree_pids t.session in
    match full_cut t ~pids with
    | Error stage -> R_rolled_back stage
    | Ok j ->
        t.journals <- j;
        t.cut_pids <- pids;
        set_breaker t @@ Closed;
        emit t (Cut_applied pids);
        rebaseline t pids;
        R_promoted
  end
  else begin
    let cpid = pick_canary t in
    match full_cut t ~pids:[ cpid ] with
    | Error stage -> R_rolled_back stage
    | Ok cj ->
        t.journals <- cj;
        t.cut_pids <- [ cpid ];
        emit t (Canary_cut cpid);
        rebaseline t [ cpid ];
        let traps = ref 0 in
        let healthy = ref true in
        let w = ref 0 in
        while !healthy && !w < t.cfg.canary_windows do
          incr w;
          drive ();
          let canary_died =
            List.mem cpid t.deaths
            ||
            match Machine.proc t.session.Dynacut.machine cpid with
            | Some p -> not (Proc.is_live p)
            | None -> true
          in
          traps := !traps + trap_delta t cpid + (if canary_died then 1 else 0);
          if canary_died || breached t ~limit:t.cfg.max_traps !traps then
            healthy := false
        done;
        if not !healthy then begin
          revert_canary t cpid cj;
          emit t (Canary_rejected { pid = cpid; traps = !traps });
          R_canary_rejected
        end
        else begin
          let rest =
            List.filter (fun p -> p <> cpid) (Dynacut.tree_pids t.session)
          in
          match
            Fault.site "supervisor.promote";
            if rest = [] then Ok [] else full_cut t ~pids:rest
          with
          | exception Fault.Injected _ ->
              revert_canary t cpid cj;
              emit t (Promotion_failed "fault at supervisor.promote");
              R_promotion_failed
          | Error stage ->
              revert_canary t cpid cj;
              emit t (Promotion_failed stage);
              R_promotion_failed
          | Ok rj ->
              t.journals <- cj @ rj;
              t.cut_pids <- cpid :: rest;
              set_breaker t @@ Closed;
              emit t (Canary_promoted (cpid :: rest));
              rebaseline t t.cut_pids;
              R_promoted
        end
  end

(* ------------------------------------------------------------------ *)
(* Verifier feedback                                                   *)

let verifier_feedback t =
  if not (cut_live t) then 0
  else begin
    let fps =
      List.sort_uniq Int64.compare
        (List.concat_map
           (fun pid -> Dynacut.verifier_log t.session ~pid)
           (live_pids t t.cut_pids))
    in
    if fps = [] then 0
    else begin
      let m = t.session.Dynacut.machine in
      let pid = List.hd (live_pids t t.cut_pids) in
      let img =
        Restore.load_from_tmpfs m ~path:(Dynacut.image_path t.session pid)
      in
      let keep, drop =
        List.partition
          (fun b -> not (List.mem (Rewriter.block_vaddr img b) fps))
          t.blocks
      in
      if drop = [] then 0
      else begin
        let pids = live_pids t t.cut_pids in
        match Dynacut.try_reenable t.session ~pids t.journals with
        | { Dynacut.r_outcome = `Rolled_back _; _ } -> 0
        | { Dynacut.r_outcome = `Applied; _ } -> (
            t.journals <- [];
            t.blocks <- keep;
            emit t
              (Verifier_shrunk
                 { dropped = List.length drop; kept = List.length keep });
            if keep = [] then List.length drop
            else
              match
                Dynacut.try_cut t.session ~pids ~blocks:keep ~policy:t.policy ()
              with
              | { Dynacut.r_outcome = `Applied; r_journals; _ } ->
                  t.journals <- r_journals;
                  rebaseline t pids;
                  List.length drop
              | { Dynacut.r_outcome = `Rolled_back _; _ } -> List.length drop)
      end
    end
  end

(* ------------------------------------------------------------------ *)

let block_of_sym (exe : Self.t) ~module_ ~sym =
  match Self.find_symbol exe sym with
  | None -> raise (Dynacut.Dynacut_error ("no such symbol: " ^ sym))
  | Some s ->
      let size =
        match Cfg.block_at (Cfg.of_self exe) s.Self.sym_off with
        | Some b -> b.Cfg.bb_size
        | None -> max 1 s.Self.sym_size
      in
      { Covgraph.b_module = module_; b_off = s.Self.sym_off; b_size = size }
