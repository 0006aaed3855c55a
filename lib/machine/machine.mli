(** The whole system: <processor, memory, I/O connectors> (§2).

    A machine owns a CPU, its memory and a set of devices.  One machine
    {e tick} runs every device once and then performs one processor
    step.  There are two ways to run it: {!tick}, one tick that returns
    its {!Cpu.event}, and {!run}, many ticks at once (a jit machine's
    through the block compiler's windowed runner, a raw one's tick by
    tick).  A tool that needs every event — a tracer, a fault
    schedule, a measurement — drives the machine with {!tick}, or with
    {!run} between the ticks it cares about; the one observer inside a
    run is {!Cpu.field-on_trap}. *)

type t

val create : ?config:Cpu.config -> unit -> t
(** Fresh machine with empty memory and no devices.  It runs on the
    basic-block compiler ({!Block_compiler}) when the process default
    says so ({!jit_default_enabled}: on unless the [SSOS_JIT]
    environment variable is "0", "false" or empty); otherwise every
    step decodes the raw bytes in memory (the reference interpreter
    the differential tests compare against).  {!set_jit} switches a
    built machine either way at any time — observable execution never
    changes, only speed. *)

val cpu : t -> Cpu.t
val memory : t -> Memory.t
val ticks : t -> int
(** Number of ticks executed: the CPU's step counter, which a snapshot
    restore rewinds with the rest of the architectural state. *)

val jit : t -> Block_compiler.t option
(** The machine's block compiler, if enabled (for stats and tests). *)

val set_jit : t -> bool -> unit
(** Enable (fresh, empty) or disable the block compiler at any time.
    Either way the observable execution is unchanged — only speed. *)

val set_jit_default : bool -> unit
(** Override the process-wide engine default (initially the [SSOS_JIT]
    environment setting).  Affects machines created afterwards; the
    CLI's [--no-jit] flag calls this. *)

val jit_default_enabled : unit -> bool
(** The current process-wide engine default. *)

val tick_counters : t -> Tick_counters.t
(** The machine's step-event counters: every tick since creation, on
    either run path.  Unlike {!ticks} they are host state, which a
    snapshot restore leaves alone. *)

val counts : t -> Counts.t
(** The machine's counts, named [machine.*]: the {!tick_counters}
    ([ticks], [executed], [interrupts], [nmis], [exceptions], [idle],
    [resets]), the memory's [mem.writes] and [mem.rom-refusals], and the
    block table's [jit.blocks-built], [jit.retranslations] and
    [jit.block-ticks] (0 without a block compiler). *)

val is_host_count : string * int -> bool
(** Whether a count is the block table's ([machine.jit.*], labelled or
    not).  Those are host state: a table outlives snapshot restores, so
    what it has compiled depends on what the machine ran before, not on
    the run since the restore. *)

val add_device : t -> Device.t -> unit

val register_port :
  t ->
  port:int ->
  read:(Instruction.width -> int) ->
  write:(Instruction.width -> int -> unit) ->
  unit
(** Attach handlers for one I/O port; later registrations override. *)

val add_resettable : t -> (unit -> unit -> unit) -> unit
(** [add_resettable m capture] registers host-side device state with the
    snapshot machinery.  [capture ()] must record the device's current
    state and return a thunk that restores exactly that state.  Devices
    holding mutable state outside the machine's RAM and registers — the
    heartbeat sample buffer, the watchdog countdown, the console buffer
    — register themselves here when attached, so {!Snapshot.capture} /
    {!Snapshot.restore} cover everything a fault-injection trial can
    mutate.  (The restore thunks act on the captured device instances:
    device state always restores into the machine it was captured
    from.) *)

val resettable_count : t -> int
(** How many resettable capture hooks are registered — {!Snapshot}
    records it at capture time and refuses to restore a machine that
    has since gained devices (their state would silently escape the
    reset). *)

val capture_device_state : t -> (unit -> unit) array
(** Run every registered capture hook now; the returned thunks restore
    each device to its state at this instant (used by {!Snapshot}). *)

val tick : t -> Cpu.event
(** Run one clock tick (devices, then one CPU step). *)

val run : t -> ticks:int -> unit
(** Run exactly [ticks] clock ticks, with the same result as [ticks]
    calls of {!tick}. *)

val run_until : t -> limit:int -> (t -> bool) -> int option
(** Tick until the predicate holds (checked after each tick); returns
    the number of ticks consumed, or [None] if [limit] was reached. *)
