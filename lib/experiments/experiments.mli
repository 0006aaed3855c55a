(** The evaluation suite.

    The paper's own evaluation is qualitative (§3: RAM corrupted under
    an emulator, stabilization observed) and its figures are code
    listings.  Each table here quantifies one of the paper's claims;
    EXPERIMENTS.md records the mapping and the measured outcomes.

    All tables are deterministic functions of their [seed]. *)

val t1_reinstall_recovery : ?seed:int64 -> ?trials:int -> ?jobs:int -> unit -> Table.t
(** E1 — §3 Bochs experiment / Theorem 3.4: recovery rate and time of
    reinstall-and-restart vs fault-burst size. *)

val t2_lemma_bounds : ?seed:int64 -> ?trials:int -> ?jobs:int -> unit -> Table.t
(** E2 — Lemmas 3.1–3.3: from arbitrary configurations, ticks until the
    NMI handler entry and until the OS restarts, against the theoretical
    bounds. *)

val t3_approach_comparison : ?seed:int64 -> ?trials:int -> ?jobs:int -> unit -> Table.t
(** E3 — baselines vs the paper's three designs on identical fault
    campaigns. *)

val t4_period_sweep : ?seed:int64 -> ?trials:int -> ?jobs:int -> unit -> Table.t
(** E4 — availability / recovery-latency trade-off vs watchdog period. *)

val t5_primitive_fairness : ?seed:int64 -> ?trials:int -> ?jobs:int -> unit -> Table.t
(** E5 — Theorem 5.1: fairness and convergence of the primitive
    scheduler. *)

val t6_sched_stabilization : ?seed:int64 -> ?trials:int -> ?jobs:int -> unit -> Table.t
(** E6 — Lemmas 5.2–5.4 / Theorem 5.5: the self-stabilizing scheduler
    under increasing fault bursts. *)

val t7_ablations : ?seed:int64 -> ?trials:int -> ?jobs:int -> unit -> Table.t
(** E7 — design-choice ablations: cs validation, ip masking, the NMI
    counter, the hardwired NMI vector. *)

val t8_monitor_coverage : ?seed:int64 -> ?trials:int -> ?jobs:int -> unit -> Table.t
(** E8 — §4 predicate monitoring: detection and repair by fault class. *)

val t9_weak_vs_strict : ?seed:int64 -> unit -> Table.t
(** E9 — the weak/strong stabilization distinction of §2: which designs
    satisfy which legality notion on fault-free runs. *)

val t10_composition : ?seed:int64 -> unit -> Table.t
(** E10 — layered stabilization (processor -> OS -> application) after
    the fair-composition argument in §1. *)

val t11_token_ring_os : ?seed:int64 -> ?trials:int -> ?jobs:int -> unit -> Table.t
(** E11 — Dijkstra's token ring as guest processes on the §5.2
    scheduler: machine-level stabilization preservation and the full
    three-layer composition. *)

val t12_soft_error_rates : ?seed:int64 -> ?trials:int -> ?jobs:int -> unit -> Table.t
(** E12 — availability under continuous Poisson soft-error rates, the
    fault model of §1's motivation. *)

val t13_exhaustive_sweeps : ?seed:int64 -> unit -> Table.t
(** E13 — exhaustive (not sampled) sweeps: every instruction-pointer
    value under the §5.1 scheduler, every soft-state word of the §5.2
    scheduler against adversarial values, and a dense byte-corruption
    sweep of the running image under Figure 1. *)

val t14_ring_link_faults :
  ?seed:int64 -> ?trials:int -> ?jobs:int -> unit -> Table.t
(** E14 — multi-machine clusters (lib/net): Dijkstra's K-state token
    ring across 4 SSX16 machines exchanging counters over NICs,
    reconverging from joint state corruption
    ({!Ssos_net.Net_ring.corrupt}) while the links drop each message
    with increasing probability.  Like T15–T19, its clusters have link
    latency 1. *)

val t15_ring_combined_faults :
  ?seed:int64 -> ?trials:int -> ?jobs:int -> unit -> Table.t
(** E15 — composed stabilization across the network: per-node machine
    faults from the full §5.2 fault space plus a lossy/corrupting
    message phase on every link; each node's OS must self-recover and
    the distributed layer must then reconverge. *)

val t16_rsm_link_faults :
  ?seed:int64 -> ?trials:int -> ?jobs:int -> unit -> Table.t
(** E16 — the replicated key-value state machine (lib/rsm): commit
    throughput, convergence steps and serve-phase linearizability vs
    link drop rate, after arbitrary joint corruption of every replica's
    protocol state and store ({!Ssos_rsm.Service.corrupt}). *)

val t17_rsm_combined_faults :
  ?seed:int64 -> ?trials:int -> ?jobs:int -> unit -> Table.t
(** E17 — the replicated service under combined faults: per-replica
    machine faults, arbitrary state corruption and a lossy/corrupting
    message phase; measures the MTTR from the end of the message phase
    and the lost-request window, then checks that fresh client traffic
    linearizes. *)

val t18_ring_daemon_matrix :
  ?seed:int64 -> ?trials:int -> ?jobs:int -> unit -> Table.t
(** E18 — the T14 scenario re-run under the full scheduling-daemon
    matrix (round-robin, fair-random, starving, crash-and-resurrect,
    adaptive adversary; {!Ssx_stab.Adversary}) at two link drop rates,
    reporting the exact convergence distribution (nearest-rank
    p50/p90/p99/max, {!Runner.distribution}) instead of the mean. *)

val t19_rsm_daemon_matrix :
  ?seed:int64 -> ?trials:int -> ?jobs:int -> unit -> Table.t
(** E19 — the replicated state machine under the daemon matrix at a
    fixed 10% link drop rate: convergence distribution plus serve-phase
    commit/lost counts and linearizability.  Starvation kills liveness
    but never safety; recurring crash outages show up as lost
    throughput. *)

val t20_serve_fault_rates : ?seed:int64 -> ?duration:int -> unit -> Table.t
(** E20 — continuous operation ({!Ssos_serve.Engine}): overall and
    worst-window availability, latency p50/p99, detected/repaired
    incident counts and mean MTTR of the closed serve loop vs the
    background fault rate — the production scenario of §1's
    motivation, run as a deterministic simulation.  Each run is
    {!Ssos_serve.Engine.serve} at its default shard and job counts. *)

val all : (string * (?jobs:int -> unit -> Table.t)) list
(** [(id, runner)] for every table, in order.  [jobs] caps the campaign
    worker-domain count ({!Pool.default_jobs} when omitted); tables
    whose work is a single run (T9, T10, T13, T20) ignore it.  Every
    table is bit-identical for any value. *)

val find : string -> (?jobs:int -> unit -> Table.t) option
(** Case-insensitive lookup by id ("t1" … "t20"). *)
