(** Automatic initialization/serving transition detection — the paper's
    §5 future-work item, implemented: "we can monitor specific system
    calls to determine the end of the initialization phase, making
    DynaCut fully automatic."

    The heuristic follows Ghavamnia et al. (Temporal system-call
    specialization, USENIX Security '20), whose transition points for
    server applications are where the process enters its serving loop:
    we treat the server's first [accept] as the transition and fire the
    collector's nudge there, with no operator in the loop. *)

type t = {
  collector : Collector.t;
  machine : Machine.t;
  mutable fired : bool;
  mutable init_log : Drcov.log option;
  prev_hook : Machine.syscall_hook option;
}

(** Arm automatic phase detection on an already-attached collector. The
    nudge fires at most once; the init-phase coverage is then available
    via {!init_log}. *)
let arm (machine : Machine.t) (collector : Collector.t) : t =
  let t =
    {
      collector;
      machine;
      fired = false;
      init_log = None;
      prev_hook = machine.Machine.on_syscall;
    }
  in
  machine.Machine.on_syscall <-
    Some
      (fun p nr ->
        (match t.prev_hook with Some h -> h p nr | None -> ());
        if (not t.fired) && nr = Abi.sys_accept then begin
          t.fired <- true;
          t.init_log <- Some (Collector.nudge collector)
        end);
  t

let fired t = t.fired
let init_log t = t.init_log

let disarm (t : t) : unit = t.machine.Machine.on_syscall <- t.prev_hook
