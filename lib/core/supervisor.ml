(** Post-cut supervision: the canary gate and verifier feedback. See
    supervisor.mli. *)

type config = { max_traps : int; canary_windows : int }

let default_config = { max_traps = 3; canary_windows = 2 }

type event_kind =
  | Canary_cut of int
  | Canary_promoted of int list
  | Canary_rejected of { pid : int; traps : int }
  | Promotion_failed of string
  | Verifier_shrunk of { dropped : int; kept : int }

type event = { e_clock : int64; e_kind : event_kind }

let pp_pids ppf pids =
  Format.fprintf ppf "[%s]"
    (String.concat ";" (List.map string_of_int (List.sort compare pids)))

let pp_event_kind ppf = function
  | Canary_cut pid -> Format.fprintf ppf "canary-cut pid=%d" pid
  | Canary_promoted pids -> Format.fprintf ppf "canary-promoted %a" pp_pids pids
  | Canary_rejected { pid; traps } ->
      Format.fprintf ppf "canary-rejected pid=%d traps=%d" pid traps
  | Promotion_failed why -> Format.fprintf ppf "promotion-failed %s" why
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
  mutable events : event list;  (** newest first *)
}

let clock t = t.session.Dynacut.machine.Machine.clock

(* every supervisor decision is mirrored into the unified event ring,
   with the same clock stamp as the private log, so the two replay
   identically *)
let emit t kind =
  t.events <- { e_clock = clock t; e_kind = kind } :: t.events;
  if Obs.enabled () then
    Obs.event ~kind:"supervisor" (Format.asprintf "%a" pp_event_kind kind)

let render_log t =
  String.concat "\n"
    (List.rev_map (fun e -> Format.asprintf "%a" pp_event e) t.events)

let journals t = t.journals
let blocks t = t.blocks
let cut_live t = t.journals <> []

let create (s : Dynacut.session) ~config ~blocks ~policy =
  {
    session = s;
    cfg = config;
    blocks;
    policy;
    journals = [];
    cut_pids = [];
    events = [];
  }

let live_pids t pids =
  List.filter
    (fun pid ->
      match Machine.proc t.session.Dynacut.machine pid with
      | Some p -> Proc.is_live p
      | None -> false)
    pids

(* ------------------------------------------------------------------ *)
(* Canary rollout                                                      *)

(** The youngest non-root worker — in an ngx-style master/worker tree,
    a worker; in a single-process tree, the root itself. *)
let pick_canary t =
  let pids = Dynacut.tree_pids t.session in
  match List.rev (List.filter (fun p -> p <> t.session.Dynacut.root_pid) pids) with
  | pid :: _ -> pid
  | [] -> t.session.Dynacut.root_pid

(** Revert a canary whose cut must not survive ({!Dynacut.revert}). *)
let revert_canary t pid cj =
  Dynacut.revert t.session ~pid cj;
  t.journals <- [];
  t.cut_pids <- []

let full_cut t ~pids =
  match Dynacut.try_cut t.session ~pids ~blocks:t.blocks ~policy:t.policy () with
  | { Dynacut.r_outcome = `Rolled_back rb; _ } -> Error rb.Dynacut.rb_stage
  | { Dynacut.r_outcome = `Applied; r_journals; _ } -> Ok r_journals

let guarded_cut t ~drive () =
  let cpid = pick_canary t in
  match full_cut t ~pids:[ cpid ] with
  | Error stage -> R_rolled_back stage
  | Ok cj ->
      t.journals <- cj;
      t.cut_pids <- [ cpid ];
      emit t (Canary_cut cpid);
      (* baseline the canary's trap counter: a stacked cut may find
         it already counting *)
      let meter = Dynacut.trap_meter () in
      let trap_delta () = Dynacut.trap_delta meter t.session ~pid:cpid in
      ignore (trap_delta ());
      let traps = ref 0 in
      let healthy = ref true in
      let w = ref 0 in
      while !healthy && !w < t.cfg.canary_windows do
        incr w;
        drive ();
        (* a canary the cut killed ([`Kill], [`Terminate], SIGILL on
           wiped bytes) counts one trap its handler never saw *)
        let canary_died = live_pids t [ cpid ] = [] in
        traps := !traps + trap_delta () + if canary_died then 1 else 0;
        if canary_died || !traps > t.cfg.max_traps then healthy := false
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
          Fault.site Supervisor_promote;
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
            emit t (Canary_promoted (cpid :: rest));
            R_promoted
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
