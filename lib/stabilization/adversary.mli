(** Adversarial and unfair scheduling daemons for the cluster stepper.

    The cluster's built-in policies (round-robin, fair-random) are
    {e friendly}: every node runs infinitely often, with bounded or
    probabilistically bounded gaps.  The paper's claims quantify over
    all fair executions — and the classical counter-examples (Dolev/
    Herman's unsupportive environments, Devismes et al.'s daemon
    hierarchy) live exactly in the gap between "the schedules we
    sampled" and "any schedule".  A {!t} is a pluggable daemon for
    {!Ssos_net.Cluster}'s policy type that closes part of that gap:

    - {!starve} — an unfair daemon that never schedules one node;
    - {!crash} — crash-and-resurrect: the victim's slots are {e idle}
      for a window (the node is silent; its state is preserved, and
      message delivery continues around it);
    - {!adaptive} — a state-inspecting central daemon that looks at
      the enabled guards of the abstract ring configuration each step
      and schedules the worst enabled node, either by a
      max-distance-to-legitimate heuristic or by exact lookup in a
      {!Model.table}.

    Determinism contract: a daemon is a pure function of its {!view}
    — the step number, the cluster size, the cluster's interleaving
    RNG stream, and (for [stateful] daemons) the abstract node states.
    Pure ([stateful = false]) daemons replay identically on every
    shard of the cluster stepper, exactly like the built-in policies;
    [stateful] daemons force the stepper onto one shard, so
    digest, snapshot and jobs/shards invariance hold for every daemon
    (DESIGN.md §4j). *)

type view = {
  now : int;  (** the cluster step being scheduled *)
  size : int;  (** number of nodes *)
  rng : Ssx_faults.Rng.t;  (** the cluster interleaving RNG (shard-replayed) *)
  state : (int -> int) option;
      (** abstract per-node state (e.g. the ring counter word), when
          the owning system registered a reader
          ({!Ssos_net.Cluster.set_abstract}) *)
}

type t = {
  name : string;
  stateful : bool;
      (** true iff {!choose} reads [view.state]; stateful daemons run
          the cluster stepper on one shard *)
  choose : view -> int option;
      (** [None] idles the slot: no node runs, deliveries and the step
          counter still advance *)
}

val choose : t -> view -> int option

val starve : victim:int -> unit -> t
(** Round-robin over every node except [victim], which is never
    scheduled: an unsupportive environment. *)

val crash : ?period:int -> down_from:int -> down_for:int -> victim:int ->
  unit -> t
(** Round-robin over all nodes, but the victim's slots are idle
    ([None]) while it is down: during [[down_from, down_from +
    down_for)], and with [?period] during the first [down_for] steps
    of every [period]-step cycle from [down_from] on.  State is
    preserved across the outage (crash-and-resurrect, not reset). *)

val adaptive : ?table:Model.table -> k:int -> unit -> t
(** The state-inspecting adversary ([stateful = true]; requires an
    abstract reader, else {!choose} raises [Invalid_argument]).  Each
    step it projects the abstract states into [0, k)
    ({!Distributed.residue}), enumerates the nodes
    {!Distributed.privileged} calls enabled (no size cap: any cluster
    size works without a table), and picks the {e target}
    whose move leaves the configuration farthest from legitimacy:
    exact worst-case distance when [table] is given (divergent
    successors score infinite), else the heuristic [token_count *
    (n + 1) + distinct values].  Ties break to the lowest node index.

    Because the concrete ring is message-passing, the target only
    fires after seeing its predecessor's current value, so the daemon
    alternates by step parity: even slots schedule the target's
    predecessor (whose pass retransmits its counter), odd slots the
    target itself.  The choice is a pure function of (step, abstract
    config) — no RNG draws, no hidden daemon state — so campaigns
    under snapshot-restore and any jobs partitioning replay
    bit-identically. *)
