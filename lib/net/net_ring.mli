(** Dijkstra's K-state token ring across machines.

    Each node of the ring is a whole SSX16 machine running the §5.2
    self-stabilizing scheduler with a single guest process; the guests
    exchange counters over {!Nic}s and {!Link}s instead of shared
    memory (contrast {!Ssos.Token_os}, the single-machine version).
    Every loop pass a guest drains its RX queue into its {e view} of
    the predecessor's counter, makes Dijkstra's move — the bottom node
    increments modulo K when equal, the others copy when different —
    and unconditionally retransmits its own counter, so dropped or
    corrupted messages are repaired by the very next pass.

    The guest images follow the repository's replay-idempotence
    discipline: 16-byte-aligned blocks whose re-entry (after a watchdog
    preemption masks the instruction pointer back to a block start) is
    harmless, with the derivation block guarded by its own comparison
    and the commit block a bare idempotent store.

    Legality is judged on the nodes' true counter states with
    {!Ssx_stab.Distributed}. *)

val k : int
(** 8 counter states. *)

val self_addr : int
(** Physical address of a node's own counter (same on every node). *)

val view_addr : int
(** Physical address of a node's view of its predecessor's counter. *)

type t = {
  cluster : Cluster.t;
  systems : Ssos.Sched.t array;  (** node [i]'s scheduler system *)
  n : int;
}

val ring_process : bottom:bool -> index:int -> Ssos.Process.t
(** The guest source for one node ([index] only names it). *)

val build :
  ?n:int ->
  ?policy:Cluster.policy ->
  ?ticks_per_slot:int ->
  ?latency:int ->
  ?edges:(int * int) list ->
  ?capacity:int ->
  ?faults:(src:int -> dst:int -> Link.fault_model) ->
  seed:int64 ->
  unit ->
  t
(** An [n]-node ring (default 4, at least 2), nodes linked
    [i -> i+1 mod n] with per-link fault models from [faults] (benign
    when omitted).  All counters start at zero — a legitimate
    configuration with the single privilege at the bottom.

    [latency] is the cluster link latency ({!Cluster.create}); values
    above 1 give the stepper its cross-shard lookahead.  [edges] replaces
    the ring topology with an arbitrary edge list (the guests still run
    the ring protocol — useful for differential and scale tests where
    only deterministic traffic matters, not convergence). *)

val counts : t -> Ssx.Counts.t
(** Every node system's counts ({!Ssos.Sched.counts}, labelled
    [node<i>]) and the cluster's ({!Cluster.counts}). *)

val states : t -> int array
(** True counters, node order. *)

val views : t -> int array
(** Predecessor views, node order. *)

val sample : t -> Ssx_stab.Distributed.sample

val corrupt_state : t -> int -> int -> unit
(** [corrupt_state t i v] — overwrite node [i]'s counter with the raw
    16-bit [v] (the guest clamps it into range on its next pass). *)

val corrupt_view : t -> int -> int -> unit

val corrupt : Ssx_faults.Rng.t -> t -> unit
(** The arbitrary start (Dolev & Herman's corrupted configuration):
    node by node, an arbitrary 16-bit word into the counter, then one
    into the view, drawn from [rng] in that order.  Taking [rng] first
    makes it a campaign [~perturb] as it stands. *)

val token_count : t -> int
val legitimate : t -> bool

val observe : t -> steps:int -> Ssx_stab.Distributed.sample list
(** Run [steps] cluster steps in one stepper call, sampling the joint
    state after each.  The samples are rebuilt from the per-slot log
    ({!Cluster.replay}): a node's state only changes during its own
    slot. *)

type move_trace = {
  converged : int option;  (** steps to the first legitimate joint state *)
  total_moves : int;  (** projected counter changes (abstract moves) *)
  off_model_moves : int;
      (** moves that are not Dijkstra's rule applied to the true
          previous configuration — a node firing on a stale view of its
          predecessor, or a clamp healing a corrupted word *)
  tail_moves : int;
      (** model moves after the last off-model move — the quantity the
          exhaustive checker's worst-case bound dominates
          ({!Ssx_stab.Model.worst_bound}; DESIGN.md §4j) *)
}

val converge_moves : ?limit:int -> t -> move_trace
(** Run the cluster (up to [limit] steps, one shard), projecting the
    joint configuration (counters mod K) after every step and
    classifying each projected change against Dijkstra's abstract
    transition relation, until the first legitimate step.  The concrete
    ring is message-passing — a node may fire on a {e stale} view,
    which is a move the shared-memory model has no counterpart for — so
    the checker's worst-case bound applies to the move sequence
    {e after} the last off-model move ([tail_moves]), not to
    [total_moves].  The walk replays the per-step log of
    {!Cluster.replay_until}'s chunks, so the trace is exact but the
    cluster itself may have advanced past [converged], up to the end of
    the chunk (a fixed multiple of the latency horizon) containing
    it. *)

val run_until_legitimate : t -> limit:int -> int option
(** First step at which the joint state is legitimate (which may
    flicker while messages are in flight — use {!observe} plus
    {!Ssx_stab.Distributed.judge} for a windowed verdict).  The search
    runs in {!Cluster.replay_until} chunks: the returned step is exact,
    but the cluster itself may have advanced past it, up to the end of
    the chunk (a fixed multiple of the latency horizon) containing
    it. *)
