(** A deterministic multi-machine stepper.

    A cluster owns N machines (each with an attached {!Nic}) and a set
    of directed {!Link}s between them.  One cluster {e step}:

    + picks a node under the seeded interleaving policy,
    + runs it for [ticks_per_slot] machine ticks,
    + broadcasts everything that node transmitted onto each of its
      outgoing links, then
    + delivers every due message (on all links) into the destination
      NICs, links in creation order.

    A cluster execution is a pure function of ([seed], construction
    order, corruption calls).  {!run_sharded} is the one stepper (the
    other runs below are built on it), and its shard count changes no
    observable (DESIGN.md §4h).  The step above, read literally as a
    scan of every link every step, is the test oracle in
    [test/test_net.ml] that every shard count is checked against.

    {!capture} / {!restore} snapshot the whole system — every node (NIC
    queues ride along via the machine's resettables), every link, the
    interleaving RNG and the step counter — for snapshot-reset trial
    engines. *)

type policy =
  | Round_robin    (** node [steps mod n] runs at each step *)
  | Fair_random    (** uniformly random node, from the cluster seed *)
  | Daemon of Ssx_stab.Adversary.t
      (** an unfair/adversarial scheduling daemon (starvation,
          crash-and-resurrect, adaptive); may return no node at all —
          an {e idle slot}, in which deliveries and the step counter
          still advance.  Same determinism/digest/snapshot contracts
          as the built-ins; a [stateful] daemon forces {!run_sharded}
          onto one shard (see there). *)

type node = { machine : Ssx.Machine.t; nic : Nic.t }

type t

val create :
  ?policy:policy -> ?ticks_per_slot:int -> ?latency:int -> seed:int64 ->
  node array -> t
(** At least one node; [ticks_per_slot] defaults to 50.  [latency]
    (default 1, at least 1) is the minimum in-flight time, in cluster
    steps, of every link subsequently created by {!connect}; it is
    fixed at creation because it bounds the stepper's cross-shard
    synchronization horizon ([latency - 1] steps).  The NICs must
    already be attached to their machines. *)

val size : t -> int
val steps : t -> int
val latency : t -> int
val policy : t -> policy

val skipped_slots : t -> int
(** Slots a daemon idled so far (zero under the built-in policies);
    snapshot-restored along with the step counter. *)

val set_abstract : t -> (int -> int) -> unit
(** Register the per-node abstract state reader handed to {!Daemon}
    policies ([state] in {!Ssx_stab.Adversary.view}) — e.g.
    {!Net_ring} registers each node's raw counter word.  Stateful
    daemons raise if no reader was registered. *)

val machine : t -> int -> Ssx.Machine.t
val nic : t -> int -> Nic.t
val links : t -> Link.t array

val connect : ?faults:Link.fault_model -> t -> src:int -> dst:int -> Link.t
(** Add a directed link.  Its RNG is derived from the cluster seed and
    the link's creation index, so fault streams are per-link
    independent and reproducible. *)

(** Topologies, as directed edge lists for {!connect}. *)

val ring_edges : n:int -> (int * int) list
(** [0->1->…->n-1->0]. *)

val star_edges : n:int -> (int * int) list
(** Hub 0 linked both ways with every spoke. *)

val mesh_edges : n:int -> (int * int) list
(** Every ordered pair — O(n²) links; prefer {!torus_edges} or
    {!random_edges} beyond a few dozen nodes. *)

val torus_edges : rows:int -> cols:int -> (int * int) list
(** 2-D torus on [rows * cols] nodes (node [r*cols + c]): each node
    links to its four wraparound neighbours, deduplicated on 2-wide
    dimensions.  O(n) links, diameter [(rows + cols) / 2]. *)

val random_edges : n:int -> degree:int -> seed:int64 -> (int * int) list
(** Seeded random digraph, out-degree [degree] (in [1, n-1]) distinct
    targets per node, {e guaranteed strongly connected}: disconnected
    draws — which would make convergence experiments silently
    meaningless — are rejected and retried under seeds derived from
    [seed], up to 64 attempts.  For [degree >= 2] a retry is almost
    never needed (the failure probability per draw is well under 3/4
    even at the small-n worst case, so 64 draws are astronomically
    safe); if every attempt is disconnected (typical only for
    [degree = 1], a random functional graph) the last draw is
    {e repaired} by adding the missing ring-successor edges, raising
    some out-degrees by one.  Deterministic in the arguments either
    way. *)

val connect_many :
  ?faults:(src:int -> dst:int -> Link.fault_model) ->
  t -> (int * int) list -> unit

val run_sharded : ?shards:int -> ?jobs:int -> t -> steps:int -> unit
(** [run_sharded ~shards t ~steps] advances the cluster [steps] steps
    on [shards] logical shards (default 1, the sequential case).  Node
    states, link queues and counters, NIC streams and {!digest} are
    bit-identical for any shard count.

    [?jobs] caps the {e physical} worker-domain count (default
    {!Pool.default_jobs}): the logical shard partition — and with it
    every observable — is fixed by [shards] alone, while the shard
    bodies are multiplexed onto at most [jobs] domains.  So [jobs] is a
    pure resource knob, like the campaign runner's.  One shard runs on
    the calling domain.

    Nodes are partitioned into contiguous blocks; a link belongs to its
    destination's shard, and each shard keeps a calendar of its links'
    next delivery steps, so a step costs O(due links), not O(links).
    Shards advance freely through windows of [latency - 1] steps (the
    conservative-DES lookahead: nothing sent inside a window can come
    due before the next one) and exchange cross-shard traffic at a
    barrier between windows.  One shard has nothing to exchange and
    runs the whole call as a single window.

    When [latency] is 1 there is no lookahead and the call silently
    falls back to one shard, so callers can vary the shard count
    without caring about the topology.  A [stateful] {!Daemon} forces
    the same fallback: it inspects other nodes' live state each step,
    which only a one-shard schedule makes well-defined — so its digests
    are trivially shard-count invariant too.  Pure daemons replay on
    every shard exactly like the built-in policies.

    If a node raises mid-run, the first exception is re-raised here
    after all shards have stopped.  Some nodes have then run further
    than the step counter says, so the cluster is marked broken: every
    later run (and {!capture}) raises [Invalid_argument] until
    {!restore} puts back a snapshot. *)

val run_sharded_log :
  record:(t -> int -> 'a) -> t -> steps:int -> (int * int * 'a) list
(** {!run_sharded} on one shard, additionally calling [record t who]
    immediately after node [who]'s slot ran at each step, and
    returning the [(step, node, value)] entries in step order (one per
    step, except idle daemon slots, which — running no node — log
    nothing).  Because a node's machine state only changes while it
    runs, this is enough to reconstruct the full per-step state matrix
    an observer sampling after every step would have seen — {!replay}
    does exactly that. *)

val replay :
  record:(t -> int -> 'a) -> t -> steps:int ->
  (int -> (int * 'a) option -> unit) -> unit
(** One {!run_sharded_log} call of [steps] steps, then its log walked
    step by step: [visit after slot] for every step in order, where
    [after] is the step count once that step is done and [slot] is
    [Some (who, record t who)] for the node that ran, or [None] for an
    idle daemon slot.  {!Net_ring.observe} and
    [Ssos_rsm.Service.observe] are this plus a state matrix. *)

val replay_until :
  record:(t -> int -> 'a) -> t -> limit:int ->
  (int -> (int * 'a) option -> bool) -> int option
(** {!replay} for searches: the run goes in chunks of
    [16 * max 1 (latency - 1)] steps, up to [limit] steps, and stops at
    the first step whose [visit] returns [true], answering the steps
    from the call's start to it ([None] if no step did within
    [limit]).  Steps after it are not visited, but the cluster has
    still run to the end of its chunk: it overshoots the answer by less
    than a chunk. *)

val run_sharded_epochs :
  ?shards:int -> ?jobs:int -> epoch:int -> record:(t -> int -> 'a) ->
  on_epoch:(int -> (int * int * 'a) list -> unit) -> t -> steps:int -> unit
(** {!run_sharded_log} on [shards] shards in [epoch]-step chunks,
    calling [record t who] on the owning shard after each of [who]'s
    slots and [on_epoch index chunk_log] on the stepping domain after
    each chunk (the last may be shorter), with the chunk's entries
    merged in step order.  [record] runs on worker domains: it must
    only touch the given node and allocate its own result.  At every
    hook point all shards have joined, so the cluster is exactly the
    state the same one-shard prefix produces: the hook may mutate node
    machines — inject faults, pulse reset pins — or read joint state,
    and the run stays bit-identical for any [shards]/[jobs] provided
    the hook is deterministic.  This is the serve engine's
    execute→observe→detect→repair loop point (DESIGN.md §4k). *)

type snapshot

val capture : t -> snapshot
(** Raises [Invalid_argument] on a cluster a node raised in (see
    {!run_sharded}). *)

val restore : t -> snapshot -> unit
(** Restore into the cluster the snapshot was captured from (node
    snapshots follow {!Ssx.Snapshot.restore} semantics; link state
    restores into the captured link instances), and clear the broken
    mark a node raising mid-run leaves.  Snapshots taken at any
    step — including mid-horizon, between two sharded windows — restore
    exactly: all in-flight cross-shard traffic lives in link queues by
    the time {!run_sharded} returns. *)

val capture_node : t -> int -> Ssx.Snapshot.t
val restore_node : t -> int -> Ssx.Snapshot.t -> unit

val counts : t -> Ssx.Counts.t
(** The cluster's own counts: [net.cluster.steps], each link's
    ({!Link.counts}, labelled [src->dst]), each node NIC's
    ({!Nic.counts} as [net.nic], labelled with the node index), and a
    daemon's [net.daemon.skipped-slots] (labelled with its name).  The
    node machines belong to the systems built on them, which count
    them. *)

val digest : t -> string
(** Hash of every node's {!Ssx.Snapshot.digest} plus link occupancy and
    the step count — for cross-run determinism checks. *)
