(** The virtual machine: {!Cpu} (processes, interpreter, signals,
    syscalls, virtual clock) plus the round-robin scheduler that runs
    every process on its decoded-block dispatcher ({!Dispatch}). *)

include Cpu

(* Int-typed [min], [max] and [compare], as in {!Cpu}: the scheduler's
   loop must not reach the C runtime's polymorphic compare. *)
open struct
  [@@@warning "-32"]

  let[@inline] min (a : int) b = if a <= b then a else b
  let[@inline] max (a : int) b = if a >= b then a else b
  let compare = Int.compare
end

(* ---------- scheduler ---------- *)

let wake_check t (p : Proc.t) =
  match p.Proc.state with
  | Proc.Blocked (Proc.On_sleep wake) -> if t.clock >= wake then p.Proc.state <- Proc.Runnable
  | Proc.Blocked (Proc.On_accept fd) -> (
      match Hashtbl.find_opt p.Proc.fds fd with
      | Some (Proc.Fd_listener port) -> (
          match
            Net.find_listener_owned t.net ~port
              ~owner:(tree_root t p.Proc.pid)
          with
          | Some l when l.Net.backlog <> [] -> p.Proc.state <- Proc.Runnable
          | _ -> ())
      | _ -> p.Proc.state <- Proc.Runnable (* fd vanished: let syscall fail *))
  | Proc.Blocked (Proc.On_recv fd) -> (
      match Hashtbl.find_opt p.Proc.fds fd with
      | Some (Proc.Fd_sock cid) -> (
          match Net.find_conn t.net cid with
          | Some c -> if Net.server_pending c > 0 || c.Net.client_closed then p.Proc.state <- Proc.Runnable
          | None -> p.Proc.state <- Proc.Runnable)
      | _ -> p.Proc.state <- Proc.Runnable)
  | _ -> ()

let quantum = 256

let[@inline] runnable (p : Proc.t) =
  match p.Proc.state with Proc.Runnable -> not p.Proc.frozen | _ -> false

(* Run [p] for at most one quantum, stopping at [deadline]. *)
let run_quantum t (p : Proc.t) ~deadline =
  let budget = ref quantum in
  while !budget > 0 && runnable p && t.clock < deadline do
    match Dispatch.exec t p ~fuel:!budget ~until:deadline with
    | 0 ->
        (* the cache declined (int3 at rip, fault, injected dispatch
           fault, degraded dispatcher): single-step *)
        step t p;
        decr budget
    | n -> budget := !budget - n
  done

(** Run the machine for at most [max_cycles] virtual cycles. Returns
    [`Idle] when every live process is blocked on external input (the host
    should inject work), [`Budget] when the cycle budget ran out, and
    [`Dead] when no live processes remain.

    Each iteration walks the spawn-ordered table twice: first waking
    blocked processes whose event arrived, then snapshotting the runnable
    ones into a reused buffer (and the earliest unfrozen sleeper's wake
    cycle). The snapshot is fixed before any quantum runs, so a process
    forked or woken during the pass waits for the next iteration. *)
let run t ~max_cycles =
  let deadline = Int64.add t.clock (Int64.of_int max_cycles) in
  let rec loop () =
    if t.clock >= deadline then `Budget
    else begin
      let procs = table t in
      let runq = t.sched.runq in
      let live = ref false in
      for k = 0 to Array.length procs - 1 do
        let p = procs.(k) in
        if Proc.is_live p then begin
          live := true;
          wake_check t p
        end
      done;
      let n = ref 0 in
      let sleeper = ref false and earliest = ref 0L in
      for k = 0 to Array.length procs - 1 do
        let p = procs.(k) in
        match p.Proc.state with
        | Proc.Runnable when not p.Proc.frozen ->
            runq.(!n) <- k;
            incr n
        | Proc.Blocked (Proc.On_sleep w) when not p.Proc.frozen ->
            if (not !sleeper) || w < !earliest then earliest := w;
            sleeper := true
        | _ -> ()
      done;
      if !n = 0 then
        if not !live then `Dead
        else if not !sleeper then `Idle
        else begin
          (* advance the clock to the earliest sleeper *)
          t.clock <- Int64.max t.clock (Int64.min !earliest deadline);
          if t.clock >= deadline then `Budget else loop ()
        end
      else begin
        for k = 0 to !n - 1 do
          run_quantum t procs.(runq.(k)) ~deadline
        done;
        loop ()
      end
    end
  in
  loop ()

(** Run until [pred] holds, all processes die, or the budget expires. *)
let run_until t ~max_cycles ~pred =
  let deadline = Int64.add t.clock (Int64.of_int max_cycles) in
  let rec go () =
    if pred () then `Pred
    else if t.clock >= deadline then `Budget
    else
      match run t ~max_cycles:(min 10_000 (Int64.to_int (Int64.sub deadline t.clock))) with
      | `Dead -> `Dead
      | `Idle -> if pred () then `Pred else `Idle
      | `Budget -> go ()
  in
  go ()

(* ---------- checkpoint support ---------- *)

(* freeze/thaw/reap are idempotent: the transactional cut pipeline may
   re-run or unwind any stage, so "already frozen", "already thawed" and
   "already reaped" must all be harmless no-ops. *)

let freeze t ~pid =
  match proc t pid with
  | Some p when Proc.is_live p -> p.Proc.frozen <- true
  | Some _ | None -> ()

let thaw t ~pid =
  match proc t pid with Some p -> p.Proc.frozen <- false | None -> ()

(** Remove a process (after its image was dumped, before restore). The
    pid keeps its slot in the spawn order so a later {!install} keeps
    its scheduling slot. *)
let reap t ~pid =
  if Hashtbl.mem t.procs pid then begin
    Hashtbl.remove t.procs pid;
    t.sched.stale <- true
  end

(** Install a restored process object (CRIU restore). *)
let install t (p : Proc.t) =
  if List.mem p.Proc.pid t.sched.order then begin
    Hashtbl.replace t.procs p.Proc.pid p;
    t.sched.stale <- true
  end
  else add_proc t p;
  t.next_pid <- max t.next_pid (p.Proc.pid + 1)
