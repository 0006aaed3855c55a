(** Unified observability: one flat metric registry for the whole
    reproduction.

    Counting is not done here.  Every count is a plain field of its
    owner, always on — a machine's tick counters, a watchdog's bites, a
    link's traffic — and each owner reads its counts out on demand
    ({!Ssx.Counts}).  The owner of a run publishes them once, when the
    run ends, with {!publish}: a campaign ({!Ssos_experiments.Runner})
    the sum of its trials' deltas, the serve engine its service at
    wind-down, a CLI command the systems it drove.  So a dump is a
    function of the run, whatever the job or shard count.

    The registry holds three metric kinds:

    - {e counters}: monotonically increasing integers ([Atomic]-backed,
      so worker domains of a campaign pool may share one);
    - {e gauges}: last-value floats, pushed with {!set};
    - {e histograms}: fixed upper-bound buckets with exact
      count/sum/min/max side-cars (so a summary rebuilt from a
      histogram loses nothing).

    Beside the registry sits a bounded ring buffer of structured
    {e events}.  One {!snapshot}
    format feeds both sinks: an aligned pretty table ({!pp_table}) and
    JSON lines ({!to_json_lines}).

    A count whose name ends in [{host}] depends on the host rather
    than on the run: how trials fell to pool workers, and what each
    worker's block table had already compiled.  Every other count a run
    publishes is identical across job and shard counts.

    The global {!enabled} switch defaults from the [SSOS_OBS]
    environment variable and is raised by the CLI's [--metrics] flag.
    Only publishers read it; switched off, nothing is published and no
    run pays more than its always-on counts (DESIGN.md §4f). *)

val enabled : unit -> bool
(** The global switch.  Initially true iff [SSOS_OBS] is set to
    anything other than ["0"], ["false"] or the empty string. *)

val set_enabled : bool -> unit

(** {1 Counters} *)

type counter

val counter : string -> counter
(** [counter name] registers (or retrieves — the registry is flat and
    name-keyed, so the same name always yields the same instance) a
    monotonic counter. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val publish : (string * int) list -> unit
(** [publish counts] adds each count to the counter of its name — how
    the owner of a run hands over what it counted ({!Ssx.Counts.t}).  A
    no-op when not {!enabled}. *)

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set : gauge -> float -> unit
val set_int : gauge -> int -> unit

(** {1 Histograms} *)

type histogram

val default_buckets : float array
(** Decades from 1e2 to 1e9 with 1-2-5 steps — wide enough for tick
    counts. *)

val histogram : ?buckets:float array -> string -> histogram
(** Fixed upper-bound buckets (ascending; an implicit +inf bucket is
    always appended). *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float
val histogram_max : histogram -> float option

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

type row = { name : string; value : value }

type snapshot = { rows : row list; recent_events : event list }
(** Rows are sorted by name. *)

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
