(** The continuous-operation engine: a closed execute→observe→detect→
    repair loop over the replicated service — the "production"
    scenario the paper's self-stabilizing kernel exists for, run as a
    deterministic simulation.

    The loop advances the cluster in fixed {e epochs} on the sharded
    stepper's hook points ({!Ssos_net.Cluster.run_sharded_epochs}):
    each epoch {e executes} open-ended client traffic
    ({!Ssos_rsm.Workload.open_loop}), then — with every shard joined
    and the cluster quiescent — {e observes} windowed availability and
    request-latency percentiles, {e detects} divergence (ring legality
    on the true counters plus SLO breach), {e repairs} by pulsing
    every node's reset pin (the paper's reinstall-and-restart path,
    exactly what the per-node watchdogs do) once detection outlasts
    the SLO patience, and verifies recovery — an incident only closes
    after a full healthy window.  Background faults arrive from a
    rate-parameterized {!Ssx_faults.Injector.process}, applied at the
    same quiescent points.

    Because every ingredient is seeded and every host-side action sits
    at an epoch boundary, a fixed [duration] run is bit-identical
    across shard and job counts (DESIGN.md §4k; pinned by
    test_serve.ml). *)

type slo = {
  availability : float;
      (** windowed availability floor in [0, 1] (a window with no
          injected requests counts as fully available) *)
  max_p99 : int;
      (** windowed p99 latency ceiling in cluster steps; [<= 0]
          disables the latency detector *)
  window : int;
      (** SLO window length in epochs: breaches are judged over the
          trailing [window] epochs, because a single epoch's
          commit/inject ratio jitters around 1 even fault-free
          (requests in flight at the epoch edge commit in the next
          one).  The availability/latency detectors abstain until a
          full window of epochs exists — the first epochs after warmup
          under-count commits while the request pipeline fills, a
          startup transient rather than an outage; ring legality is
          judged from epoch 0 *)
  patience : int;
      (** consecutive unhealthy windows tolerated before the engine
          fires a repair (the service self-repairs most faults via its
          own watchdogs; the engine only escalates) *)
  grace : int;
      (** epochs after a fired repair before another may fire *)
}

val default_slo : slo
(** 85% availability floor, no latency ceiling, 3-epoch SLO window,
    patience 2, grace 8. *)

type incident = {
  cause : string;
      (** kind of the most recent background arrival within the
          trailing SLO window plus patience epochs — faults can sit
          dormant for an epoch or two before breaking a window — or
          ["background"] if none landed *)
  opened_at : int;  (** cluster step at detection *)
  closed_at : int option;
      (** cluster step of the verified-healthy window that closed it;
          [None] if still open at wind-down (an SLO failure) *)
  repair_fired : bool;  (** the engine escalated to a reset pulse *)
}

type mttr = {
  kind : string;
  incidents : int;
  mean_steps : float;
  max_steps : int;
}

(** Per-epoch dashboard sample, passed to [?report]. *)
type window = {
  epoch : int;
  step : int;
  w_injected : int;  (** this epoch's injections *)
  w_committed : int;  (** this epoch's commits *)
  w_availability : float;
      (** over the trailing SLO window, clamped to 1 *)
  w_p50 : int;
      (** nearest-rank over the trailing window's commits; -1 if none *)
  w_p99 : int;
  ring_legal : bool;
  healthy : bool;
  faults_landed : int;  (** background arrivals ahead of this epoch *)
}

type summary = {
  nodes : int;
  duration : int;  (** cluster steps served *)
  epochs : int;
  injected : int;
  committed : int;
  dropped : int;
  fault_arrivals : (string * int) list;  (** per kind, sorted *)
  incidents : incident list;  (** in detection order *)
  detected : int;
  repaired : int;  (** incidents closed by a verified-healthy window *)
  repairs : int;  (** engine reset pulses fired *)
  availability : float;  (** committed / injected over the whole run *)
  min_window_availability : float;
      (** worst trailing-window availability among the judged (post
          warm-in) windows; [1.0] if the run was too short to judge *)
  p50 : int;  (** exact nearest-rank over all commits; -1 if none *)
  p99 : int;
  mttr : mttr list;  (** per closed-incident cause *)
  final_legal : bool;
      (** the service re-reached full two-part legality
          ({!Ssos_rsm.Service.run_until_stable}) at wind-down *)
  slo_met : bool;
      (** overall availability at floor, no incident left open, and
          [final_legal] — the CLI's exit status *)
}

val serve :
  ?nodes:int ->
  ?rate:float ->
  ?fault_rate:float ->
  ?epoch:int ->
  ?warmup:int ->
  ?latency:int ->
  ?slo:slo ->
  ?shards:int ->
  ?jobs:int ->
  ?report:(window -> unit) ->
  duration:int ->
  seed:int64 ->
  unit ->
  summary
(** Build an [nodes]-replica service (default 5, link latency
    [latency], default 2), warm it fault-free for [warmup] cluster
    steps (default 600), then serve for [duration] steps in
    [epoch]-step windows (default 150) under request probability
    [rate] per node slot (default 0.05) and background fault
    probability [fault_rate] per step (default 0 — each arrival
    applies one random fault from a uniformly chosen node's full §5.2
    space).  [?report] is called once per window with the dashboard
    sample.  [shards]/[jobs] parallelize the stepper within epochs
    ({!Ssos_rsm.Workload.run_epochs}); the summary is bit-identical
    for any value of either.  The warmup steps on [shards] shards too;
    the wind-down ({!Ssos_rsm.Service.run_until_stable}) steps one.
    When {!Ssos_obs.Obs.enabled} the engine additionally feeds the
    [serve.*] metrics, including the [serve.window-availability],
    [serve.window-p50-steps] and [serve.window-p99-steps] gauges: the
    trailing window each epoch is judged on; at wind-down it publishes
    the service's counts ({!Ssos_rsm.Service.counts}), the same for any
    [shards]/[jobs]. *)
