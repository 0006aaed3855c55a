(** Coverage-guided differential fuzzing of [Machine] against
    {!Ref_interp}.

    Each trial loads one {!Gen.program} into a production machine and
    into the oracle, gives both the same initial register file and
    interrupt-vector image, and steps them in lock-step: events first,
    then the whole register/control state every tick, then all of RAM
    at the end of the trial.  The first mismatch is a divergence; the
    offending program is shrunk (block-and-byte minimisation plus
    schedule thinning, while the divergence still reproduces) and
    reported with an [.ssx]-format reproducer.

    The corpus is coverage-guided on a cheap execution signature:
    opcode-pair bigrams plus the set of flags transitions observed
    (the 7 architectural flag bits before and after each tick).  A
    trial that lights up a new signature point enters the corpus;
    later iterations mutate corpus members about twice as often as
    they generate fresh programs.

    Campaigns shard across {!Pool} with a shard count that depends
    only on [iters], each shard seeded by [Rng.derive seed shard], so
    results are identical for any [jobs] value. *)

type divergence = {
  program : Gen.program;  (** shrunk reproducer *)
  original : Gen.program;  (** as first found *)
  seed : int64;
  shard : int;
  iter : int;  (** shard-local iteration *)
  tick : int;
  detail : string;
}

type summary = {
  programs : int;  (** trials executed (excluding shrink re-runs) *)
  total_ticks : int;
  corpus_size : int;
  coverage_points : int;  (** distinct signature bits lit *)
  divergences : divergence list;
}

val run : ?jobs:int -> ?jit:bool -> seed:int64 -> iters:int -> unit -> summary
(** Run a campaign of [iters] differential trials.  [jit] selects the
    machine-side block compiler (default: the process-wide
    {!Ssx.Machine} default); summaries are bit-identical either way,
    and for any [jobs]. *)

val run_program : ?jit:bool -> Gen.program -> (int * string) option
(** One differential trial; [Some (tick, detail)] on divergence.
    [jit] selects the machine-side engine (the oracle is always
    {!Ref_interp}). *)

val prepare_machine : Gen.program -> Ssx.Machine.t
(** A fresh machine in the fuzzer's initial trial state (vector image,
    program code, trial register file) without stepping it — for tests
    that want fuzz-shaped machines to snapshot or trace.  It runs on the
    process default engine; {!Ssx.Machine.set_jit} switches it. *)

val trial_code_base : int
(** Physical load address of [Gen.program.code] in a trial. *)

val shrink :
  reproduces:(Gen.program -> bool) -> Gen.program -> Gen.program
(** Minimise a program under [reproduces] (which must hold for the
    input): repeated block removal at halving granularity, nop/zero
    byte normalisation, schedule thinning.  Bounded number of
    predicate evaluations. *)

val reproducer_text : divergence -> string
(** The checked-in reproducer format: a commented [.ssx] file whose
    [db] lines reassemble to the program bytes, with steps, schedule,
    seed and divergence detail in comment headers. *)

val program_of_reproducer : string -> Gen.program
(** Parse a reproducer produced by {!reproducer_text} (runs the real
    assembler over the text, so hand-edited reproducers also work).
    @raise Failure on a text without the fuzzer's headers. *)

val replay : string -> (int * string) option
(** [replay text] re-runs a reproducer differentially, on the process
    default engine. *)

val pp_divergence : Format.formatter -> divergence -> unit
val pp_summary : Format.formatter -> summary -> unit
