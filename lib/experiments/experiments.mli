(** The evaluation suite: tables T1–T20.

    The paper's own evaluation is qualitative (§3: RAM corrupted under
    an emulator, stabilization observed) and its figures are code
    listings.  Each table here quantifies one of the paper's claims;
    EXPERIMENTS.md records the mapping, the parameters and the measured
    outcomes.

    Every table is a deterministic function of its fixed seed, trial
    count and horizons.  Every repeated trial runs on the one trial
    engine ({!Runner.run_trials}): the campaign families (T1, T3, T4,
    T6, T7, T14–T19) and the tables' own trials alike — T2, T5, T7's
    wedge and NMI rows, T8, T11, T12, and each of T13's three sweeps,
    whose trials are its cases. *)

val all : (string * (?jobs:int -> unit -> Table.t)) list
(** [(id, runner)] for every table, in order.  [jobs] caps the
    trial-engine worker-domain count ({!Pool.default_jobs} when
    omitted); the tables whose work is a single run (T9, T10 and T20,
    which runs {!Ssos_serve.Engine.serve} at its default shard and job
    counts) ignore it.  Every table is bit-identical for any value. *)

val find : string -> (?jobs:int -> unit -> Table.t) option
(** Case-insensitive lookup by id ("t1" … "t20"). *)
