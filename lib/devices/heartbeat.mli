(** Heartbeat capture device.

    Guests report liveness and progress by writing 16-bit values to a
    heartbeat port; the device timestamps each write with the machine
    tick.  Convergence analysis (see {!Ssx_stab.Convergence}) judges
    stabilization from this trace. *)

type sample = { tick : int; value : int }

type t

val default_port : int
(** Port 0x12. *)

val create : unit -> t

val attach : t -> ?port:int -> Ssx.Machine.t -> unit
(** Register the heartbeat's port handler on a machine, and its sample
    buffer with the machine's snapshot machinery
    ({!Ssx.Machine.add_resettable}) so snapshot restore rewinds it. *)

val samples : t -> sample list
(** All samples, oldest first. *)

val last : t -> sample option
val count : t -> int

val counts : t -> Ssx.Counts.t
(** [device.heartbeat.count]: the {!count}. *)
