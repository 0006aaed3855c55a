(** Comparison baselines.

    The paper positions self-stabilizing reinstall against existing
    practice: plain systems with no automatic recovery, watchdog reboots
    that do not refresh the code, and checkpointing systems (Windows XP,
    EROS/KeyKOS are cited).  Each baseline here runs the same guest on
    the same machine so the approach-comparison experiment (E3) is
    apples-to-apples.

    - {!none}: the guest alone; exceptions halt the processor.
    - {!reset_only}: a watchdog wired to the RESET pin reboots the
      machine, jumping to the OS entry point {e without} reinstalling —
      corrupted code or data stays corrupted.
    - {!checkpoint}: the watchdog NMI handler checks a guest liveness
      word; on progress it copies the whole OS image to a checkpoint
      area in RAM and records the liveness value; on stall it rolls the
      image back from the checkpoint and restarts the guest.  The
      checkpoint itself lives in corruptible RAM — the design's
      characteristic weakness. *)

val checkpoint_source : string
(** The NMI checkpoint/rollback handler. *)

val none : ?guest:Guest.t -> unit -> System.t
val reset_only : ?watchdog_period:int -> ?guest:Guest.t -> unit -> System.t
val checkpoint : ?watchdog_period:int -> ?guest:Guest.t -> unit -> System.t

val pet_port : int
(** I/O port the petting guest kicks its watchdog through. *)

val petting_guest : unit -> Guest.t
(** The heartbeat kernel extended with a watchdog kick each iteration. *)

val petted_watchdog : ?watchdog_period:int -> ?guest:Guest.t -> unit -> System.t
(** The conventional embedded-systems design: the watchdog only fires
    when the guest stops kicking it, and a firing reboots {e and
    reinstalls} (best case for the baseline).  Its characteristic
    failure: corruption that leaves the kick inside a wedged loop — or
    wild execution that happens to hit the kick port — suppresses
    recovery forever.  Contrast with the paper's unconditionally
    periodic watchdog. *)

val checkpoint_fault_space : Ssx_faults.Fault.space
(** {!System.default_fault_space} extended with the checkpoint area, so
    faults can hit the saved state. *)
