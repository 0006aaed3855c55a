(** Common plumbing for assembled systems.

    Every design in the repository produces the same bundle: a machine,
    a watchdog, observation devices, the non-volatile store and the
    guest it runs.  The per-approach modules ({!Reinstall}, {!Monitor},
    {!Baselines}, …) build the ROM and choose the wiring; this module
    holds the shared construction and the observation helpers the
    experiments use. *)

type t = {
  machine : Ssx.Machine.t;
  watchdog : Ssx_devices.Watchdog.t option;
  heartbeat : Ssx_devices.Heartbeat.t;
  console : Ssx_devices.Console.t;
  nvstore : Ssx_devices.Nvstore.t;
  guest : Guest.t;
  obs_label : string;  (** names the block-table rows of {!counts} *)
}

val build :
  ?nmi_counter_enabled:bool ->
  ?hardwired_nmi:bool ->
  ?obs_label:string ->
  ?watchdog:[ `Nmi of int | `Reset of int | `None ] ->
  rom:Rom_builder.t ->
  guest:Guest.t ->
  unit ->
  t
(** Create the machine, install the ROM, wire watchdog/console/heartbeat
    and set the IDTR to the ROM IDT.  [`Nmi period] (the default wiring
    in the paper's designs) or [`Reset period] choose the watchdog pin.
    The CPU starts at the reset vector; nothing is pre-installed in RAM
    unless the caller does so.  [obs_label] (default none) tells apart
    the block tables of systems built alike, such as a campaign's
    workers: see {!counts}. *)

val counts : t -> Ssx.Counts.t
(** The machine's counts ({!Ssx.Machine.counts}), the watchdog's bites
    and the heartbeat count.  The block-table rows
    ([machine.jit.*]) carry [{id=obs_label}] when the system has a
    label; the others never do. *)

val fault_system : t -> Ssx_faults.Fault.system

val default_fault_space : Ssx_faults.Fault.space
(** Faults over the guest RAM segment plus registers, control state and
    the watchdog — the space used by the comparison experiments. *)

val ram_only_fault_space : Ssx_faults.Fault.space
(** Only RAM bit flips/bytes in the guest segment — the soft-error model
    of the paper's Bochs experiment. *)

val install_guest : t -> unit
(** Copy the guest image directly into RAM at {!Layout.os_segment} (used
    by baselines whose ROM does not reinstall at boot). *)

val run : t -> ticks:int -> unit
