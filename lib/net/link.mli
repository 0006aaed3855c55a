(** A point-to-point message channel with a seeded fault model.

    Words sent on a link arrive after at least one cluster step, subject
    to the link's {!fault_model}: independent per-message drop and
    duplication probabilities, a bounded uniform extra delay, and a
    per-message probability of one corrupted byte.  Delivery is FIFO
    even under random delays — a message's delivery step is clamped to
    be no earlier than its predecessor's — so a stabilized ring sees a
    (possibly thinned and corrupted) {e ordered} stream, never a
    reordered one.

    All randomness comes from the link's own {!Ssx_faults.Rng.t}, seeded
    by the owning {!Cluster}, so campaigns are exactly reproducible.
    The fault-model fields are mutable on purpose: experiments flip a
    link between benign and faulty phases mid-run; {!capture} includes
    them, so snapshot-reset trials restore the phase too. *)

type fault_model = {
  mutable drop : float;       (** per-message loss probability *)
  mutable duplicate : float;  (** per-message duplication probability *)
  mutable max_delay : int;    (** uniform extra delay in [0, max_delay] steps *)
  mutable corrupt : float;    (** per-message byte-corruption probability *)
}

val benign : unit -> fault_model
(** No loss, no duplication, no extra delay, no corruption. *)

val lossy : ?drop:float -> ?duplicate:float -> ?max_delay:int ->
  ?corrupt:float -> unit -> fault_model

type t

val create :
  ?latency:int ->
  ?faults:fault_model -> rng:Ssx_faults.Rng.t -> src:int -> dst:int -> unit -> t
(** [latency] (default 1, at least 1) is the {e minimum} number of
    cluster steps a word spends in flight; random jitter from the fault
    model adds on top.  It is immutable: the cluster stepper's
    cross-shard synchronization horizon is derived from it at
    {!Cluster.create} time, so letting experiments shrink it mid-run
    would silently break the conservative-DES exchange (DESIGN.md
    §4h). *)

val src : t -> int
val dst : t -> int
val latency : t -> int
val faults : t -> fault_model

val send : t -> now:int -> int -> unit
(** Submit one word at cluster step [now]; it becomes deliverable at
    step [now + latency] or later, per the fault model. *)

val due : t -> now:int -> int list
(** Pop every message whose delivery step has arrived, in order. *)

val next_deliver_at : t -> int option
(** Delivery step of the earliest in-flight message, if any — a peek,
    nothing is popped.  Per-link delivery steps are non-decreasing (the
    FIFO clamp), so this is the step at which {!due} next returns
    something.  The cluster stepper uses it to keep a calendar of each
    link's next delivery instead of scanning every link every step
    (DESIGN.md §4h). *)

val in_flight : t -> int

val sent : t -> int
(** Words submitted (before drop/duplication). *)

val dropped : t -> int

val delivered : t -> int
(** Words actually handed to the receiver by {!due}. *)

val corrupted : t -> int
(** Words that had a byte garbled in flight (they still count as
    delivered when they arrive). *)

val counts : t -> Ssx.Counts.t
(** [net.link.sent], [.delivered], [.dropped] and [.corrupted]. *)

val capture : t -> unit -> unit
(** Record the link's full state — queue, FIFO clamp, fault-model
    fields, RNG — and return a thunk restoring exactly that state
    (callable any number of times), in the style of
    {!Ssx.Machine.add_resettable}. *)
