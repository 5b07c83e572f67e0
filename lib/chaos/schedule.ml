(** Chaos schedules: seeded multi-fault plans (DESIGN.md §6c).

    A schedule is a list of fault events — (site, mode, trigger) — plus
    the seed every random draw of the run derives from. Two triggers:

    - [Nth n]: fire on the [n]-th hit of the site counted from the
      moment the executor arms the schedule (nth-occurrence);
    - [Window (t0, t1)]: armed while the run-relative virtual clock is
      inside [t0, t1) — the executor opens and closes the window between
      workload slices, and the fault strikes at most once inside it.

    Every event fires at most once per run, and no two events of one
    schedule share a site (the fault registry holds one armed entry per
    site). Because the generator, the fault scheduler and the workload
    all draw from {!Rng} seeded by [sc_seed], a schedule replays
    bit-for-bit from the seed alone — the replay file ({!to_replay}) is
    just the seed plus the event list, for humans and for re-running a
    shrunk repro. *)

type trigger =
  | Nth of int  (** fire exactly on the [n]-th hit after arming *)
  | Window of int * int
      (** armed while run-relative clock is in [\[t0, t1)], cycles *)

type event = { ev_site : string; ev_mode : Fault.mode; ev_trigger : trigger }

type t = { sc_seed : int; sc_events : event list }

let pp_trigger ppf = function
  | Nth n -> Format.fprintf ppf "nth %d" n
  | Window (t0, t1) -> Format.fprintf ppf "window %d %d" t0 t1

let pp_event ppf (e : event) =
  Format.fprintf ppf "%s %s %a" e.ev_site
    (Fault.mode_to_string e.ev_mode)
    pp_trigger e.ev_trigger

let pp ppf (s : t) =
  Format.fprintf ppf "seed=%d [%s]" s.sc_seed
    (String.concat "; "
       (List.map (Format.asprintf "%a" pp_event) s.sc_events))

(* sites the fleet executor's workload actually reaches: the cut path of
   every rollout wave, the dispatch/serve path of every request, the
   manifest, and recovery replay (faults still armed can strike the
   recovery pass — that is the multi-fault point). Sites needing a
   special driver (crit round trips, unmap-pages cuts, the supervisor's
   respawns, promotions and re-enables, the slicer, the code cache)
   are covered by the directed matrix instead. *)
let fleet_sites =
  [
    "criu.checkpoint";
    "criu.save";
    "criu.load";
    "rewrite.patch";
    "inject.lib";
    "inject.policy";
    "restore.process";
    "restore.tcp_repair";
    "journal.lock";
    "journal.append";
    "recover.replay";
    "fleet.wave";
    "fleet.manifest";
    "balancer.dispatch";
    "net.accept_queue";
    "net.serve";
  ]

(* a generated delay is big enough to dominate a request's round trip —
   a slow worker or stage, not background jitter *)
let gen_mode rng site =
  match Rng.choose rng (Fault.applicable_modes site) with
  | Fault.Delay _ -> Fault.Delay (20_000 + Rng.int rng 480_000)
  | m -> m

(* windows lie inside [\[0, 250k)] run-relative cycles, and must be
   wide relative to the executor's tick granularity (one fleet request
   ~19k cycles) or the clock steps over them *)
let gen_trigger rng =
  let horizon = 250_000 in
  if Rng.bool rng then Nth (1 + Rng.int rng 3)
  else begin
    let t0 = Rng.int rng horizon in
    let width = (horizon / 8) + Rng.int rng (horizon / 4) in
    Window (t0, t0 + width)
  end

(** Generate a multi-fault schedule: 1..[max_events] events over
    distinct {!fleet_sites}, modes drawn from {!Fault.applicable_modes},
    triggers split between nth-occurrence and virtual-time windows
    inside [\[0, 250k)] run-relative cycles. *)
let generate ?(max_events = 4) ~seed () : t =
  let rng = Rng.create seed in
  let n = min (1 + Rng.int rng max_events) (List.length fleet_sites) in
  let rec pick k remaining acc =
    if k = 0 || remaining = [] then List.rev acc
    else begin
      let s = Rng.choose rng remaining in
      pick (k - 1) (List.filter (fun x -> x <> s) remaining) (s :: acc)
    end
  in
  let events =
    List.map
      (fun site ->
        {
          ev_site = site;
          ev_mode = gen_mode rng site;
          ev_trigger = gen_trigger rng;
        })
      (pick n fleet_sites [])
  in
  { sc_seed = seed; sc_events = events }

(** {2 Replay files}

    One event per line, order preserved; the whole run state is the seed
    plus this list, so the file reproduces a failure bit-for-bit. *)

let mode_of_string (s : string) : Fault.mode =
  match s with
  | "fail" -> Fault.Fail
  | "kill" -> Fault.Kill
  | "corrupt" -> Fault.Corrupt
  | "enospc" -> Fault.Enospc
  | "eio" -> Fault.Eio
  | _ ->
      let pfx = "delay=" in
      if String.length s > String.length pfx
         && String.sub s 0 (String.length pfx) = pfx
      then
        match
          int_of_string_opt
            (String.sub s (String.length pfx)
               (String.length s - String.length pfx))
        with
        | Some n when n > 0 -> Fault.Delay n
        | _ -> invalid_arg (Printf.sprintf "Schedule: bad delay %S" s)
      else invalid_arg (Printf.sprintf "Schedule: unknown mode %S" s)

let to_replay (s : t) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b "chaos-replay v1\n";
  Buffer.add_string b (Printf.sprintf "seed %d\n" s.sc_seed);
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "event %s %s %s\n" e.ev_site
           (Fault.mode_to_string e.ev_mode)
           (match e.ev_trigger with
           | Nth n -> Printf.sprintf "nth %d" n
           | Window (t0, t1) -> Printf.sprintf "window %d %d" t0 t1)))
    s.sc_events;
  Buffer.contents b

exception
  Unsupported_version of {
    uv_found : string;  (** the version token in the header, e.g. "v2" *)
    uv_supported : string;
  }
(** The file is a well-formed chaos-replay file from a {e future} format
    version. Raised instead of misparsing: a v2 file could carry fields
    whose silent loss would replay a {e different} schedule than the one
    that failed. The CLI maps this to a distinct exit code. *)

let () =
  Printexc.register_printer (function
    | Unsupported_version { uv_found; uv_supported } ->
        Some
          (Printf.sprintf
             "unsupported chaos-replay version %s (this build supports %s)"
             uv_found uv_supported)
    | _ -> None)

let of_replay (text : string) : t =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  let num what v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> bad "Schedule.of_replay: bad %s %S" what v
  in
  let lines =
    List.filter
      (fun l -> l <> "" && l.[0] <> '#')
      (String.split_on_char '\n' text)
  in
  match lines with
  | "chaos-replay v1" :: rest ->
      let seed = ref None and events = ref [] in
      List.iter
        (fun line ->
          match
            List.filter (fun w -> w <> "") (String.split_on_char ' ' line)
          with
          | [ "seed"; v ] -> seed := Some (num "seed" v)
          | [ "event"; site; mode; "nth"; n ] ->
              events :=
                {
                  ev_site = site;
                  ev_mode = mode_of_string mode;
                  ev_trigger = Nth (num "nth" n);
                }
                :: !events
          | [ "event"; site; mode; "window"; t0; t1 ] ->
              events :=
                {
                  ev_site = site;
                  ev_mode = mode_of_string mode;
                  ev_trigger = Window (num "t0" t0, num "t1" t1);
                }
                :: !events
          | _ -> bad "Schedule.of_replay: bad line %S" line)
        rest;
      (match !seed with
      | Some sc_seed -> { sc_seed; sc_events = List.rev !events }
      | None -> bad "Schedule.of_replay: no seed line")
  | header :: _
    when String.length header > 13 && String.sub header 0 13 = "chaos-replay " ->
      raise
        (Unsupported_version
           {
             uv_found = String.sub header 13 (String.length header - 13);
             uv_supported = "v1";
           })
  | _ -> bad "Schedule.of_replay: not a chaos-replay v1 file"
