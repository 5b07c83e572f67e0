(** The observability subsystem: a process-wide metric registry (labeled
    counters / gauges / histograms with exact percentile readback), span
    tracing for the cut pipeline, and a bounded event ring unifying
    supervisor decisions, journal records, fault firings and per-block
    trap hits into one ordered stream.

    Everything here is deterministic under the virtual clock: metrics and
    events carry only virtual-cycle timestamps, so the same seed and the
    same scenario produce a byte-identical {!dump_json}. Host (CPU) span
    timings are kept on a separate axis and only appear in dumps when
    explicitly requested with [~host:true] — they are the one
    intentionally non-reproducible signal (DESIGN.md §6).

    This library sits below [dynacut_util] and depends on nothing, so the
    whole stack (including [Fault] and [Stats]) can report into it. *)

type labels = (string * string) list
(** Label pairs; canonicalised (sorted by key) on registration, so
    [\[("a","1");("b","2")\]] and [\[("b","2");("a","1")\]] name the same
    series. *)

(** {2 Registry lifecycle} *)

val set_enabled : bool -> unit
(** When disabled, every write ([incr]/[observe]/[event]/span recording)
    is a no-op — the baseline for measuring instrumentation overhead.
    Registration and readback still work. Defaults to enabled. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Drop every registered metric, every ring event, registered spans and
    the clock source. Handles created before the reset stay usable but
    are orphaned: they no longer appear in dumps. Call at the start of a
    scenario, before the machine is created. Does not change
    {!set_enabled} or the ring capacity. *)

val set_clock : (unit -> int64) option -> unit
(** Install the virtual-clock source used to stamp ring events and span
    cycle durations. [Machine.create] installs its own clock; without
    one, timestamps read 0. *)


(** {2 Counters} *)

type counter

val counter : ?labels:labels -> string -> counter
(** Find-or-create; the same (name, labels) always yields the same
    series. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {2 Gauges} *)

type gauge

val gauge : ?labels:labels -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {2 Histograms} *)

type histogram

val histogram : ?labels:labels -> ?buckets:float list -> string -> histogram
(** Fixed cumulative buckets ([buckets] are ascending upper bounds; a
    [+Inf] bucket is implicit). Raw observations are also retained, so
    percentile readback is exact rather than bucket-interpolated. *)

val observe : histogram -> float -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> float

val hist_values : histogram -> float list
(** Raw observations, oldest first. *)

val hist_percentile : histogram -> float -> float
(** Exact percentile (linear interpolation over the sorted raw
    observations); 0. when empty. *)

(** {2 Percentile core}

    Shared with [Stats.percentile] so there is exactly one percentile
    definition in the tree. *)

val percentile_sorted : float array -> float -> float
(** [percentile_sorted a p] with [a] already ascending: nearest-rank with
    linear interpolation between the two straddling order statistics
    (the "linear" / type-7 estimator). [p] is clamped to [0,100];
    empty input yields 0. *)

val percentile_list : float -> float list -> float
(** Convenience: copy to an array, sort, interpolate. O(n log n). *)

(** {2 Spans}

    A span is a named timed region of the cut pipeline (checkpoint, crit,
    rewrite, inject, restore, tcp_repair, plus the journal.lock,
    journal.append and recover.replay regions). Each
    completion records the duration twice: in virtual cycles (a
    [span.cycles{span=NAME}] histogram, deterministic) and in host CPU
    seconds (a separate axis, see {!span_seconds}). *)

val register_span : string -> unit
(** Pre-register so the span appears in dumps (count 0) even before its
    first completion — keeps the exposed stage set stable. *)

val with_span : string -> (unit -> 'a) -> 'a
(** Time [f] against both axes; records even when [f] raises. *)

val timed_span : string -> (unit -> 'a) -> 'a * float
(** Like {!with_span} but also returns the host-seconds duration (the
    [Stats.time_it] contract), recording only on normal return. Returns
    the measurement even when the registry is disabled. *)

val span_cycles : string -> float list
(** Recorded virtual-cycle durations, oldest first. *)

val span_seconds : string -> float list
(** Recorded host-CPU durations, oldest first. Non-reproducible axis. *)

val span_names : unit -> string list
(** Every registered span name, sorted. *)

(** {2 Event ring} *)

type event = {
  ev_seq : int;  (** monotonic within a scenario; never reused *)
  ev_clock : int64;  (** virtual cycles at emission *)
  ev_kind : string;  (** "supervisor" | "journal" | "fault" | "trap" | ... *)
  ev_detail : string;
}

val event : kind:string -> string -> unit
(** Append to the ring; the oldest event is evicted once the ring is at
    capacity. *)

val events : unit -> event list
(** Oldest first. *)

val set_ring_capacity : int -> unit
(** Default 1024; shrinking evicts oldest-first immediately. Capacities
    < 1 are clamped to 1. Survives {!reset}. *)

val ring_dropped : unit -> int
(** Events evicted since the last {!reset}. *)

(** {2 Exposition} *)

val dump_json : ?host:bool -> unit -> string
(** The whole registry as a single JSON document with sorted, stable
    ordering: same registry state ⇒ byte-identical output. [~host:true]
    adds the per-span host-seconds section (non-reproducible). *)

val dump_text : unit -> string
(** Human-oriented rendering of the same data. *)
