(** The client driver: seeded open-loop get/put traffic against a
    {!Service}, injected through the per-node client NICs while the
    cluster runs, with responses collected in exact serve order.

    The whole driver is built on the stepper's record hook
    ({!Ssos_net.Cluster.run_sharded_log} and
    {!Ssos_net.Cluster.run_sharded_epochs}) — requests are delivered
    (and responses drained) on the owning shard right after the node's
    slot, keyed off a per-node slot counter rather than wall-clock
    steps — so injection times, drops, responses, and every derived
    count are bit-identical for any shard count.

    Response order {e is} serve order: a node serves only during its
    own slot, exactly one node slot runs per cluster step, the client
    TX queue is FIFO, and the merged log is sorted by step.  Since
    replicas serve only at token moves, that order is also the token's
    total order over operations — which is what makes
    {!Ssx_stab.Distributed.linearizable} on {!ops} a sound check. *)

type t

val open_loop : ?rate:float -> ?slots:int -> seed:int64 -> Service.t -> t
(** A fresh driver over [service].  At each of its first [slots]
    slots (default unbounded), node [i] draws from its own rng stream
    (seed stream [i + 1]): with probability [rate] (default 0.05) one
    request — a put of a random value or a get, uniform over the
    {!Wire.keys} keys, request ids rolling 1..15.  A node past its
    horizon draws nothing more, so a trial's traffic does not depend
    on how many slots an unfair daemon gives each node.  Injection
    state, counters and collected responses all start empty. *)

val discard : t -> unit
(** Drain and discard whatever is sitting in the client TX queues —
    stale responses from an earlier phase (e.g. junk served from a
    corrupted staging slot during fault recovery).  Call before the
    first {!run} when the service has a past. *)

val run : t -> steps:int -> unit
(** Advance the cluster [steps] steps, injecting requests and
    accumulating responses.  May be called repeatedly; per-node slot
    counters carry across calls.  Consecutive duplicate response words
    from one node — the transmit block's replay artifact — are dropped
    exactly, since genuine consecutive responses differ in the rolling
    request id. *)

val run_epochs :
  ?shards:int -> ?jobs:int -> t -> epoch:int -> steps:int ->
  on_epoch:(int -> unit) -> unit
(** {!run} in [epoch]-step chunks on [shards] shards (default 1) and
    at most [jobs] worker domains
    ({!Ssos_net.Cluster.run_sharded_epochs}): after each chunk the
    chunk's log is merged and [on_epoch index] runs on the stepping
    domain, with all shards joined and the cluster quiescent — the
    serve engine's observe/detect/repair point.  Counters, {!committed}
    and {!take_latencies} are current as of the chunk edge, and every
    one of them is the same for any [shards] and [jobs]. *)

val responses : t -> (int * int * int) list
(** [(step, node, word)] in serve order. *)

val ops : t -> Ssx_stab.Distributed.kv_op list
(** The responses decoded for the linearizability judge. *)

val injected : t -> int
(** Requests accepted into client RX queues, as of the last {!run} /
    epoch edge. *)

val dropped : t -> int
(** Requests lost to client RX overflow (back-pressure, visible as the
    NIC drop counters under [--metrics]). *)

val committed : t -> int
(** Responses paired FIFO with the oldest unanswered injected request
    carrying the same echoed (op, id, key) byte, as of the last {!run}
    / epoch edge. *)

val take_latencies : t -> int list
(** Drain the per-request latencies (cluster steps from injection to
    the paired response) accumulated since the previous call, in
    commit order — the serve engine's window feed. *)

val lost : t -> int
(** [injected - committed]: requests accepted but never answered (e.g.
    still queued when the run ended, or popped by a replayed read). *)
