(** Fault injection.

    Three shapes, all drawing from a supplied {!Rng}, so a campaign is
    a pure function of its seed: a one-shot burst ({!inject_now}), a
    per-tick Poisson stream on one machine that the injector runs
    itself ({!run_poisson}), and a host-level process over many systems
    advanced by its caller ({!process}).  None of them hooks the
    machine: faults land between ticks, where the caller's run
    stopped. *)

val inject_now : Fault.system -> rng:Rng.t -> space:Fault.space -> int -> Fault.t list
(** Immediately apply [n] random faults; returns those actually applied. *)

val run_poisson :
  Fault.system ->
  rng:Rng.t ->
  space:Fault.space ->
  rate:float ->
  ticks:int ->
  (int * Fault.t) list
(** Run the system's machine for [ticks] ticks under a Poisson fault
    stream: after each tick, one {!Rng.float} draw; when it is below
    [rate], one random fault from [space] (drawn from the same [rng])
    lands before the next tick.  The machine runs with {!Ssx.Machine.run}
    between arrivals.  Returns the faults that landed, as
    [(tick, fault)] with the machine's tick count, oldest first.
    [Invalid_argument] for a [rate] outside [0, 1] or negative
    [ticks]. *)

(** {1 Continuous fault processes}

    The host-level generalization of {!run_poisson}: a
    rate-parameterized Bernoulli arrival process over a {e set} of
    target systems, advanced explicitly by its caller, which runs the
    machines.  Each covered step faults with
    probability [rate]; an arrival picks a uniform target and applies
    one random fault from that target's space.  Because the caller
    chooses when to [advance] — the serve engine does it at epoch
    boundaries, while the cluster is quiescent — the arrival stream is
    a pure function of the process rng, independent of shard or job
    counts. *)

type process

val process :
  rate:float -> rng:Rng.t -> (Fault.system * Fault.space) array -> process
(** [rate] in [0, 1]; at least one target. *)

val advance : process -> steps:int -> (int * int * Fault.t) list
(** Cover [steps] more process steps, applying the faults that arrive;
    returns the landed arrivals as [(step, target, fault)], oldest
    first (steps count from the process's creation).  Every landed
    fault counts into the [fault.injected] counters (and
    [fault.injected{kind=…}]), exactly like {!run_poisson} and
    {!inject_now}, without consuming randomness. *)
