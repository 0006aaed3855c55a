(** The self-stabilizing watchdog (§2).

    A countdown device wired to the processor's NMI pin (or, for the
    reinstall-and-restart scheme, the RESET pin).  Its only state is the
    countdown register, clamped to the period on every tick, so that
    {e starting from any state a signal is triggered within the desired
    interval time and no premature signal is triggered thereafter} —
    the paper's self-stabilization requirement for the watchdog itself. *)

type target = Nmi_pin | Reset_pin

type t

val create : period:int -> target:target -> t
(** A watchdog firing every [period] ticks.  [period] must be positive. *)

val pet : t -> unit
(** Reload the countdown (the conventional software-kicked watchdog
    discipline).  The paper's designs never pet: their watchdog fires
    unconditionally, because software healthy enough to pet reliably is
    exactly what cannot be assumed after a transient fault.  Exposed for
    the petted-watchdog baseline. *)

val device : t -> Ssx.Device.t
(** The pluggable device (register with {!Ssx.Machine.add_device}). *)

val resettable : t -> unit -> unit -> unit
(** Snapshot hook covering the countdown and fired count (register with
    {!Ssx.Machine.add_resettable} alongside {!device}). *)

val counter : t -> int
(** Current countdown value (observable state). *)

val corrupt : t -> int -> unit
(** Overwrite the countdown register — transient-fault injection.  The
    clamping on the next tick bounds the damage to one early signal. *)

val period : t -> int
val fired_count : t -> int
(** Number of signals raised since creation (for tests/experiments). *)

val counts : t -> Ssx.Counts.t
(** [device.watchdog.bites]: the {!fired_count}. *)
