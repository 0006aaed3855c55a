(** A self-stabilizing replicated key-value service on a {!Ssos_net}
    cluster.

    Each node is a whole SSX16 machine running the §5.2 scheduler with
    one {!Replica} guest.  The replicas run a token-sequenced
    replication protocol (see {!Replica} and DESIGN.md §4i) over the
    cluster NICs; every node additionally carries a {e client} NIC
    (ports from {!Replica.client_base_port}) through which a
    {!Workload} injects get/put requests and collects responses.

    Legality is two-part ({!Ssx_stab.Distributed.rsm_legitimate}): the
    token ring is legitimate on the true counters {e and} every
    replica's store is identical.  Both hold from the all-zero start
    and re-emerge after arbitrary transient faults. *)

type t = {
  cluster : Ssos_net.Cluster.t;
  systems : Ssos.Sched.t array;  (** node [i]'s scheduler system *)
  clients : Ssos_net.Nic.t array;  (** node [i]'s client-facing NIC *)
  n : int;
}

val build :
  ?n:int ->
  ?policy:Ssos_net.Cluster.policy ->
  ?ticks_per_slot:int ->
  ?latency:int ->
  ?watchdog_period:int ->
  ?faults:(src:int -> dst:int -> Ssos_net.Link.fault_model) ->
  seed:int64 ->
  unit ->
  t
(** An [n]-node service (default 5, at least 2), ring-linked
    [i -> i+1 mod n].  [ticks_per_slot] defaults to 600 — a replica
    pass (roughly 300–350 ticks) is longer than a {!Ssos_net.Net_ring}
    pass, since it serves clients and retransmits a whole frame, and a
    slot must fit a full pass plus a backlog-draining one.  The cluster
    NIC RX queue holds 64 words and the client NIC RX queue 8 requests
    — requests arriving into a full queue are dropped and counted
    ({!Ssos_net.Nic.stats}).  Every replica machine runs on the process
    default engine; {!Ssx.Machine.set_jit} switches one afterwards.

    The bounded-tag protocol stabilizes for [n <= Wire.k] (= 8); larger
    clusters still run deterministically for throughput measurement,
    but the Dijkstra argument needs more counter states than nodes. *)

val counts : t -> Ssx.Counts.t
(** Every replica system's counts ({!Ssos.Sched.counts}, labelled
    [rsm<i>]), each client NIC's ({!Ssos_net.Nic.counts} as
    [device.nic], labelled [client<i>]) and the cluster's
    ({!Ssos_net.Cluster.counts}). *)

val states : t -> int array
(** True replica counters, node order. *)

val views : t -> int array

val kv : t -> int -> int array
(** Node [i]'s store, one word (value byte) per key. *)

val kvs : t -> int array array

val sample : t -> Ssx_stab.Distributed.rsm_sample

val corrupt_state : t -> int -> int -> unit
val corrupt_view : t -> int -> int -> unit

val corrupt_kv : t -> int -> int -> int -> unit
(** [corrupt_kv t i key v] — overwrite one store word with a raw 16-bit
    value (replicas clamp values to a byte as frames re-arrive). *)

val corrupt_tag : t -> int -> int -> int -> unit
(** Overwrite node [i]'s received-frame tag for [key] — fakes a
    complete frame and can trigger a transiently incoherent move. *)

val corrupt : Ssx_faults.Rng.t -> t -> unit
(** The arbitrary start: node by node, arbitrary 16-bit words drawn
    from [rng] into the counter, then the view, then key by key the
    store word and its tag.  Taking [rng] first makes it a campaign
    [~perturb] as it stands. *)

val legitimate : t -> bool
(** {!Ssx_stab.Distributed.rsm_legitimate} on the current state. *)

val observe : t -> steps:int -> Ssx_stab.Distributed.rsm_sample list
(** Run [steps] cluster steps in one stepper call, sampling counters
    and stores after each.  The samples are rebuilt from the per-slot
    log ({!Ssos_net.Cluster.replay}). *)

val run_until_stable : t -> limit:int -> int option
(** First step at which the joint state is {!legitimate} (which may
    flicker while a frame is in flight — use {!observe} plus
    {!Ssx_stab.Distributed.rsm_judge} for a windowed verdict).  Chunks
    and the cluster's overshoot past the answer as
    {!Ssos_net.Net_ring.run_until_legitimate}. *)
