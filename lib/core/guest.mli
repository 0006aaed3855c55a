(** Guest operating systems.

    The recovery layers of §3 and §4 treat the operating system as a
    black box; these are the black boxes — small kernels written in
    SSX16 assembly whose observable behaviour (a heartbeat stream) has a
    precise legal-execution specification, so that stabilization can be
    judged from outside, exactly as the paper defines it.

    The {e heartbeat kernel} is the minimal guest: it increments a
    counter in its data area and reports it.  The {e task kernel} is a
    richer guest with the data structures §4's monitor guards: a task
    table, a round-robin index, a divisor (so corruption can raise
    divide faults) and a liveness word (used by the checkpoint
    baseline's progress check). *)

type t = {
  name : string;
  source : string;  (** assembly, origin 0, for {!Layout.os_segment} *)
  symbols : (string * int) list;  (** extra constants the source needs *)
}

val heartbeat_kernel : ?work_units:int -> unit -> t
(** Beats every [work_units]+constant ticks (default 100). *)

val task_kernel : ?tasks:int -> unit -> t
(** Round-robin task-table kernel (default 4 tasks). *)

val journal_kernel : unit -> t
(** A guest with a checksummed append-only journal ring: each iteration
    writes [(seq, seq xor journal_mac)] into one of {!journal_slots}
    slots, advances a naive (exact-boundary) write pointer and reports
    the sequence number — a second, structurally different guest for
    the §4 monitor (see {!Monitor.build_custom} and
    {!journal_predicates}). *)

val journal_slots : int
val journal_mac : int
val seq_addr : int
val write_ptr_addr : int
val journal_addr : int
(** Physical addresses of the journal kernel's data structures. *)

val preemptive_kernel : unit -> t
(** A guest that uses the maskable timer interrupt: the main loop beats
    like {!heartbeat_kernel} with interrupts enabled, and a handler at
    {!timer_handler_offset} counts preemptions in the data area.  Wire a
    {!Ssx_devices.Timer} and point IDT vector {!Layout.timer_vector} at
    the handler (see {!Reinstall.build} with [with_timer]). *)

val timer_handler_offset : int
(** Offset of the preemptive kernel's timer handler within the image. *)

val preempt_count_addr : int
(** Physical address of the preemptive kernel's preemption counter. *)

val work_total : int
(** Dividend of the task kernel's work computation. *)

val task_divisor : int
(** Golden divisor value in every task-table entry. *)

val assemble : t -> Ssx_asm.Assemble.image

val image_bytes : t -> string
(** Assembled image zero-padded to {!Layout.os_image_size}. *)

val symbol : t -> string -> int
(** Value of a label/constant in the assembled guest. *)

(** Guest data-structure addresses (physical), derived from the image. *)

val counter_addr : int
val task_index_addr : int
val liveness_addr : int
val task_table_addr : int
