(** §5.2 — The self-stabilizing scheduler (Figures 2–5).

    The scheduler is the NMI handler: on every watchdog pulse it
    (Figure 2) re-establishes the fixed stack and data segments while
    parking ax/bx/ds near the stack top, (Figure 3) saves the
    interrupted process's registers into its record in the process
    table, (Figure 4) advances the process index round-robin modulo N,
    optionally refreshes the next process's code image from ROM (the
    paper's "the code of each process will be repeatedly read by the
    scheduler from a secondary memory device"), and (Figure 5) loads the
    next process's record, {e validating} the loaded [cs] against the
    ROM [processLimits] table and masking the loaded [ip] so that it is
    an instruction-start inside the process's window, before switching
    with [iret].

    Knobs reproduce the paper's design choices and expose ablations:

    - [cs_check]: [Strict_eq] (reset [cs] unless it equals the table
      entry), [Paper_jb] (Figure 5's published [jb] comparison, which
      accepts any [cs] {e below} the entry — measurably weaker, see
      EXPERIMENTS.md), or [No_check].
    - [ip_mask]: [Windowed] (confine to the 4 KiB window, 16-aligned),
      [Paper_mask] (the published 0xFFF0: 16-aligned only), or
      [No_mask]. *)

type cs_check = Strict_eq | Paper_jb | No_check
type ip_mask = Windowed | Paper_mask | No_mask

val source :
  n:int -> cs_check:cs_check -> ip_mask:ip_mask -> refresh:bool -> string
(** The scheduler's assembly, annotated with the paper's line numbers.
    [n] must be a power of two between 1 and 8. *)

val figures_2_to_5_source : string
(** The published variant for N = 4: [Paper_jb], [Paper_mask], no
    refresh — Figures 2–5 as printed. *)

type t = {
  machine : Ssx.Machine.t;
  watchdog : Ssx_devices.Watchdog.t;
  heartbeats : Ssx_devices.Heartbeat.t array;  (** one per process *)
  processes : Process.t array;
  n : int;
}

val build :
  ?n:int ->
  ?cs_check:cs_check ->
  ?ip_mask:ip_mask ->
  ?refresh:bool ->
  ?watchdog_period:int ->
  ?processes:Process.t array ->
  unit ->
  t
(** Assemble the tiny OS: scheduler in ROM, N golden process images in
    ROM, their working copies pre-installed in RAM, the processLimits
    table, watchdog on the NMI pin.  Defaults: n = 4, [Strict_eq],
    [Windowed], refresh on, period 20000, counter processes (override
    with [processes], which must have length [n]).  All soft state
    (process table, index) starts zeroed and the scheduler bootstraps
    from it — no initialisation step exists, as self-stabilization
    demands. *)

val counts : t -> Ssx.Counts.t
(** The machine's counts ({!Ssx.Machine.counts}), the watchdog's bites
    and each process's heartbeat count (labelled with its index). *)

val initialize_records : t -> unit
(** Write each process's fixed [cs] and a zero [ip] into its record.
    The default (strict) scheduler bootstraps from all-zero records on
    its own; the published [Paper_jb] comparison accepts any [cs] below
    the table entry — including the zeroed record's 0 — and therefore
    cannot bootstrap without this initialisation (one of the findings
    recorded in EXPERIMENTS.md). *)

val fault_system : t -> Ssx_faults.Fault.system

val fault_space : t -> Ssx_faults.Fault.space
(** Process code and data segments, scheduler stack and data, registers
    and control state. *)

val process_record_addr : int -> int
(** Physical address of process [i]'s record in the process table. *)

val process_index_addr : int
(** Physical address of the scheduler's [processIndex] variable. *)

val default_watchdog_period : int
