(** Unified observability: one flat metric registry for the whole
    reproduction.

    Every subsystem — machine, devices, fault injector, campaign
    runner, cluster, fuzzer, CLI, bench — emits through this module
    instead of hand-rolling private counters.  Three metric kinds live
    in a single process-wide registry:

    - {e counters}: monotonically increasing integers ([Atomic]-backed,
      so worker domains of a campaign pool may share one);
    - {e gauges}: last-value floats, either pushed ({!set}) or
      {e sampled} — registered once with a closure that is only read at
      snapshot time, which makes instrumenting a hot structure free;
    - {e histograms}: fixed upper-bound buckets with exact
      count/sum/min/max side-cars (so a summary rebuilt from a
      histogram loses nothing).

    On top of the registry sit {e span timers} ({!timed}/{!span}) and a
    bounded ring buffer of structured {e events}.  One {!snapshot}
    format feeds both sinks: an aligned pretty table ({!pp_table}) and
    JSON lines ({!to_json_lines}).

    Instrumentation is run-time toggleable: the global {!enabled}
    switch defaults from the [SSOS_OBS] environment variable and is
    raised by the CLI's [--metrics] flag.  Builders take an [?obs]
    parameter defaulting to {!enabled}; when it resolves false they
    attach no hooks at all, so the disabled-mode execution path is the
    uninstrumented one (see DESIGN.md §4f for the cost argument). *)

val enabled : unit -> bool
(** The global switch.  Initially true iff [SSOS_OBS] is set to
    anything other than ["0"], ["false"] or the empty string. *)

val set_enabled : bool -> unit

(** {1 Counters} *)

type counter

val counter : ?help:string -> string -> counter
(** [counter name] registers (or retrieves — the registry is flat and
    name-keyed, so the same name always yields the same instance) a
    monotonic counter. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : ?help:string -> string -> gauge
val set : gauge -> float -> unit
val set_int : gauge -> int -> unit

val sample : ?help:string -> string -> (unit -> float) -> unit
(** [sample name read] registers a sampled gauge: [read] is invoked at
    {!snapshot} time only.  Re-registering a name replaces the closure,
    so the gauge follows the most recently instrumented instance. *)

(** {1 Histograms} *)

type histogram

val default_buckets : float array
(** Decades from 1e2 to 1e9 with 1-2-5 steps — wide enough for tick
    counts and span nanoseconds alike. *)

val histogram : ?help:string -> ?buckets:float array -> string -> histogram
(** Fixed upper-bound buckets (ascending; an implicit +inf bucket is
    always appended). *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float
val histogram_max : histogram -> float option

(** {1 Spans} *)

val timed : string -> (unit -> 'a) -> 'a * float
(** [timed name f] runs [f], returns its result and the elapsed
    nanoseconds, and — when {!enabled} — observes the duration into
    histogram [span.<name>-ns], sets gauge [span.<name>.last-ns] and
    emits a [span] event.  The single timing path shared by the bench
    harness and the CLI. *)

val span : string -> (unit -> 'a) -> 'a
(** {!timed} without the elapsed-time return. *)

(** {1 Events} *)

type event = {
  seq : int;  (** global emission order, monotonically increasing *)
  name : string;
  fields : (string * string) list;
}

val event : ?fields:(string * string) list -> string -> unit
(** Append to the bounded event ring (a no-op when disabled).  The ring
    keeps the most recent {!event_capacity} events. *)

val event_capacity : int
val events : unit -> event list
(** Oldest first. *)

(** {1 Snapshot and sinks} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      buckets : float array;  (** upper bounds, ascending *)
      counts : int array;     (** one longer than [buckets]: +inf last *)
      count : int;
      sum : float;
      min : float;  (** meaningless when [count = 0] *)
      max : float;
    }

type row = { name : string; help : string; value : value }

type snapshot = { rows : row list; recent_events : event list }
(** Rows are sorted by name; sampled gauges are read at snapshot
    time. *)

val snapshot : unit -> snapshot

val quantile : value -> float -> float option
(** [quantile value q] (with [q] in [0, 1]) estimates the [q]-quantile
    of a snapshot {!Histogram} from its bucket counts: the bucket
    holding the nearest-rank sample is found exactly, then the value
    is linearly interpolated inside it, clamped to the exact [min]/
    [max] side-cars (so the under- and overflow buckets stay finite).
    The estimate therefore always lands in the same bucket as the true
    sample quantile.  [None] for empty histograms and for
    {!Counter}/{!Gauge} values. *)

val pp_table : Format.formatter -> snapshot -> unit
(** Aligned two-column table, histograms summarised inline. *)

val to_json_lines : snapshot -> string
(** One JSON object per line: metrics first
    ([{"name":…,"kind":…,"value":…}], histograms with bucket arrays),
    then events ([{"kind":"event",…}]). *)

val reset : unit -> unit
(** Drop every metric and event.  Test isolation only. *)
