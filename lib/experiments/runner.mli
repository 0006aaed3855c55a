(** Shared campaign machinery for the experiments.

    A campaign runs many independent trials of the same scenario, each
    derived deterministically from the master seed: warm the system up,
    inject a burst of random faults, run a recovery horizon, and judge
    the observation trace against a legality specification.

    There is one trial engine, {!run_trials}: snapshot reset over a
    {!Pool} of domains.  Each worker builds the system and runs the
    deterministic, fault-free warmup once, captures the warmed state,
    and restores that capture before every trial it runs instead of
    rebuilding.  This requires every piece of host-side device state to
    be restorable from the capture (see {!Ssx.Machine.add_resettable});
    all in-tree system builders satisfy it.  Results are bit-identical
    for any [jobs], and equal to building and warming a fresh system
    for every trial: [test/rebuild.ml] is that rebuild-per-trial
    oracle, and the campaign tests compare each family, and each
    builder the evaluation tables reset, against it.

    With {!Ssos_obs.Obs.enabled}, the engine publishes what it counted
    when it ends: the [counts] of its warm phase once, plus every
    trial's delta from restore to the end of the trial, summed per
    worker.  The campaign families then add per-campaign
    [campaign{id=…}] trial and recovery counters and a recovery-ticks
    histogram.  The rows are the same for any [jobs], except the
    [{host}]-marked block-table rows: each worker's table outlives its
    trials. *)

type outcome = {
  recovered : bool;
  recovery_ticks : int option;
      (** Ticks from the end of injection to the start of the final
          legal suffix ([Some 0] when behaviour never broke). *)
}

type summary = {
  trials : int;
  recoveries : int;
  mean_recovery : float option;  (** over recovered trials *)
  max_recovery : int option;
}

val summarize : outcome list -> summary
(** Single pass over the outcomes, in list order. *)

type distribution = {
  samples : int;  (** recovered trials contributing a recovery time *)
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
}
(** Convergence-time distribution over the recovered trials' recovery
    times, by exact nearest-rank percentile (sort the samples; the
    [q]-percentile is the [ceil (q * samples)]-th).  Campaign tables
    T18/T19 report these per scheduling daemon; the same data reaches
    the lib/obs [campaign{…}.recovery-ticks] histogram, whose bucketed
    {!Ssos_obs.Obs.quantile} estimates agree to bucket resolution. *)

val distribution : outcome list -> distribution option
(** [None] when no trial recovered with a recovery time. *)

val run_trials :
  ?oversubscribe:bool ->
  ?jobs:int ->
  trials:int ->
  warm:(unit -> 's) ->
  restore:('s -> unit) ->
  counts:('s -> Ssx.Counts.t) ->
  ('s -> int -> 'a) ->
  'a list
(** [run_trials ~trials ~warm ~restore ~counts trial] is
    [[trial s 0; …; trial s (trials - 1)]], in trial order.  Each
    worker evaluates [warm ()] once, on its first trial (build, warm
    up, capture), and calls [restore s] before every trial it runs;
    [trial] gets the trial index and derives its own randomness from
    it (the families use {!trial_seed}).  [restore] must return [s] to
    the state [warm] left, so that a trial's result does not depend on
    which trials its worker ran before it.  [counts s] reads the
    counts of the system [s] holds (see {!Ssos.System.counts}).  [jobs]
    defaults to {!Pool.default_jobs} (the [SSOS_JOBS] environment
    variable, else the recommended domain count); the effective domain
    count is clamped to the core count unless [oversubscribe] (see
    {!Pool.run}). *)

(** Trials over a heartbeat-observed system: the heartbeat stream must
    converge to [spec] within the horizon. *)
val heartbeat_campaign :
  build:(unit -> Ssos.System.t) ->
  space:Ssx_faults.Fault.space ->
  spec:Ssx_stab.Convergence.heartbeat_spec ->
  burst:int ->
  ?warmup:int ->
  ?horizon:int ->
  ?oversubscribe:bool ->
  ?jobs:int ->
  trials:int ->
  seed:int64 ->
  unit ->
  summary
(** [jobs] and [oversubscribe] as in {!run_trials}. *)

(** Trials over a §5.2 tiny-OS system: every process's private
    heartbeat stream must converge to its strict counter spec.  The
    fault space defaults to {!Ssos.Sched.fault_space}. *)
val sched_campaign :
  build:(unit -> Ssos.Sched.t) ->
  ?space:Ssx_faults.Fault.space ->
  burst:int ->
  ?warmup:int ->
  ?horizon:int ->
  ?max_gap:int ->
  ?window:int ->
  ?oversubscribe:bool ->
  ?jobs:int ->
  trials:int ->
  seed:int64 ->
  unit ->
  summary

(** Trials over a distributed token ring ({!Ssos_net.Net_ring}):
    legality is judged on the joint counter states sampled each cluster
    step, with {!Ssx_stab.Distributed.judge}.  [perturb] is the trial's
    fault injection — it may corrupt states and views, apply machine
    faults to individual nodes, or drive a whole message-fault phase
    (stepping the cluster itself); recovery is measured in {e cluster
    steps} from wherever the perturbation left the cluster. *)
val ring_campaign :
  build:(unit -> Ssos_net.Net_ring.t) ->
  perturb:(Ssx_faults.Rng.t -> Ssos_net.Net_ring.t -> unit) ->
  ?warmup:int ->
  ?horizon:int ->
  ?window:int ->
  ?oversubscribe:bool ->
  ?jobs:int ->
  trials:int ->
  seed:int64 ->
  unit ->
  outcome list
(** The per-trial outcomes, in trial order: {!summarize} gives the
    moments, {!distribution} the exact percentiles.  The reset is
    {!Ssos_net.Cluster.capture}/[restore], which covers node machines
    (with their NIC queues), link state including the mutable
    fault-model phase, the interleaving RNG and the step counter — so
    outcomes are bit-identical for any [jobs] count and equal to
    rebuilding per trial, like the machine campaigns above.  Each trial
    steps its cluster on one shard. *)

(** {1 Replicated state machine campaigns}

    Trials over an {!Ssos_rsm.Service}: warm the cluster up, perturb it
    (state corruption, per-node machine faults, and/or a message-fault
    phase), judge recovery with the two-part replicated-state-machine
    legality ({!Ssx_stab.Distributed.rsm_judge}), then drive a fresh
    client workload at the recovered service and check the committed
    responses for linearizability against replica 0's store. *)

type rsm_outcome = {
  base : outcome;  (** convergence, judged over the recovery horizon *)
  committed : int;  (** client requests answered during the serve phase *)
  lost : int;  (** requests accepted but never answered *)
  linearizable : bool;
      (** serve-phase responses replay cleanly against the reference
          map ({!Ssx_stab.Distributed.linearizable}) *)
}

type rsm_summary = {
  core : summary;
  mean_committed : float;  (** per trial *)
  mean_lost : float;  (** per trial *)
  linearized : int;  (** trials whose serve phase linearized *)
}

val rsm_summarize : rsm_outcome list -> rsm_summary

val rsm_campaign :
  build:(unit -> Ssos_rsm.Service.t) ->
  perturb:(Ssx_faults.Rng.t -> Ssos_rsm.Service.t -> unit) ->
  ?warmup:int ->
  ?horizon:int ->
  ?window:int ->
  ?oversubscribe:bool ->
  ?jobs:int ->
  trials:int ->
  seed:int64 ->
  unit ->
  rsm_outcome list
(** Like {!ring_campaign}, with a serve phase appended to each trial:
    after the recovery horizon is judged, a seeded open-loop workload
    (probability 0.05 of one request per node slot) runs for 1,200
    cluster steps and its responses are checked for linearizability.
    Each node draws requests for at most ⌈1,200 / n⌉ + 1 slots
    ({!Ssos_rsm.Workload.open_loop}'s
    [slots], what round-robin gives it), so a node an unfair daemon
    favours injects no more.  The request streams are derived from the
    trial seed on a fixed side stream, so outcomes are bit-identical
    for any [jobs], and equal to rebuilding per trial — the same
    guarantees as the other campaigns, extended to the traffic counts.
    {!rsm_summarize} gives the summary. *)

val trial_seed : int64 -> int -> int64
(** Derive the seed of trial [i] from the master seed — a splitmix64
    finalizer over the pair ({!Ssx_faults.Rng.derive}), so seeds are
    pairwise distinct per master and independent of execution order. *)

val scramble_processor : Ssx_faults.Rng.t -> Ssos.System.t -> unit
(** Assign arbitrary values to every soft CPU register, the halt flag,
    the NMI machinery, the watchdog and the guest RAM — an arbitrary
    initial configuration in the paper's sense. *)
