(** The SSX16 processor.

    Implements the paper's processor model (§2): a clock tick triggers a
    processor step; the step is a transition function of the current
    state and inputs.  The processor supports maskable interrupts (INTR,
    gated by the interrupt flag), the non-maskable interrupt (NMI) and
    exceptions, all dispatched through the interrupt descriptor table
    addressed by the IDTR.

    One host-side observer can live inside a step: {!field-on_trap},
    called at the end of every interrupt or exception entry (the §4
    monitor checks its predicates there).

    Two of the paper's proposed hardware augmentations are implemented
    and individually switchable so that ablation experiments can
    demonstrate their necessity:

    - the {e NMI counter}: a countdown register decremented on every
      clock tick; the NMI is accepted only when the counter is zero, the
      counter is raised to its maximum when the NMI is taken and cleared
      by [iret].  When disabled, the processor instead uses the
      conventional "in-NMI until iret" latch whose corruption can mask
      NMIs forever — the flaw the paper points out.
    - a {e hardwired NMI vector}: the NMI handler address is read from a
      fixed (ROM) IDT ignoring the corruptible IDTR. *)

type nmi_dispatch =
  | Hardwired_idt of int
      (** Physical base of a fixed IDT used for NMI dispatch only. *)
  | Via_idtr  (** Use the (corruptible) IDTR like any other vector. *)

type config = {
  nmi_counter_enabled : bool;
  nmi_counter_max : int;
      (** Chosen greater than the longest NMI-handler execution, per §2. *)
  nmi_dispatch : nmi_dispatch;
  reset_vector : Word.t * Word.t;  (** [(cs, ip)] loaded on reset. *)
}

val default_config : config
(** NMI counter enabled with max 200000, hardwired IDT at 0xF0000,
    reset vector F000:0000. *)

type io = {
  io_in : int -> Instruction.width -> int;
      (** [io_in port width] — value read by [in]. *)
  io_out : int -> Instruction.width -> int -> unit;
      (** [io_out port width value] — effect of [out]. *)
}

(** What a single step did, for tracing and measurement. *)
type event =
  | Executed of Instruction.t
  | Took_interrupt of { vector : int; nmi : bool }
  | Took_exception of int
  | Halted_idle
  | Did_reset

type t = {
  regs : Registers.t;
  mem : Memory.t;
  config : config;
  mutable idtr : int;  (** IDT physical base; corruptible, as in §1. *)
  mutable nmi_pin : bool;
  mutable in_nmi : bool;
      (** Conventional NMI latch, used when the counter is disabled. *)
  mutable intr : int option;  (** Pending maskable interrupt vector. *)
  mutable reset_pin : bool;
  mutable halted : bool;
  mutable io : io;
  mutable steps : int;  (** Clock ticks executed so far. *)
  mutable on_trap : event -> unit;
      (** Called with the [Took_interrupt] or [Took_exception] event at
          the end of every interrupt or exception entry, on both
          engines and inside the block compiler's quiet windows: the
          handler address is loaded and the handler has not run.  One
          slot; setting it replaces the old callback (initially
          [ignore]).  It runs inside the step, so it may read and write
          memory and registers, but must not raise pins or touch
          devices: inside a quiet window the host-side device state
          lags until the window ends. *)
}

(** Vector numbers for machine exceptions (IA-32 numbering). *)
val vec_divide_error : int

val vec_nmi : int
val vec_invalid_opcode : int

val create : ?config:config -> Memory.t -> t
(** Processor in its power-on state attached to [mem]. *)

val reset : t -> unit
(** Apply the reset sequence (also triggered by the reset pin). *)

val raise_nmi : t -> unit
(** Assert the NMI pin (edge-triggered; latched until accepted). *)

val raise_intr : t -> int -> unit
(** Request a maskable interrupt with the given vector. *)

val step : t -> event
(** Execute one clock tick: decrement the NMI counter, accept pending
    interrupts, then fetch-decode-execute one instruction (or one
    iteration of a [rep]-prefixed string instruction).
    [step cpu = step_with cpu exec_one]. *)

val step_with : t -> (t -> event) -> event
(** [step_with cpu execute] is one clock tick with [execute] as its
    execute stage: the reset pin, the NMI counter and interrupt
    acceptance as in {!step}, then [execute cpu] when no interrupt was
    taken and the processor is not halted.  [execute] must behave as
    {!exec_one}; the block compiler passes its table lookup. *)

(** {1 Execution internals}

    Exported for {!Block_compiler}, which pre-compiles straight-line
    instruction runs into closures and therefore needs the same
    primitive operations the interpreter's [execute] uses.  Nothing
    else should call these. *)

exception Fault of int
(** Machine exception raised mid-execution; vectors through the IDT. *)

val service : t -> int -> nmi:bool -> return_ip:Word.t -> unit
(** Deliver an interrupt/exception: push psw/cs/[return_ip], clear IF,
    arm the NMI counter (when [nmi]) and load the handler address (two
    {!Memory.read_word}s of the IDT entry: offset, then segment). *)

val take_exception : t -> int -> return_ip:Word.t -> event
(** [take_exception cpu vector ~return_ip] is one exception entry:
    {!service}, then {!field-on_trap} with the [Took_exception vector]
    event, which it returns.  Like the events of interrupt entries, it
    is built once per vector 0-255, so an entry allocates nothing and
    raises nothing: its cost is the three stack words and the IDT read.
    The block compiler compiles [Invalid] to this. *)

val execute : t -> Instruction.t -> ip0:Word.t -> len:int -> unit
(** Run one already-decoded instruction.  [r.ip] must already be
    advanced to [ip0 + len]; may raise {!Fault}. *)

val dispatch : t -> Instruction.t -> ip0:Word.t -> len:int -> event -> event
(** Advance [ip] past the instruction, {!execute} it, and turn a
    {!Fault} into {!take_exception} at [ip0].  [event] is the prebuilt
    [Executed] value returned on normal completion. *)

val exec_one : t -> event
(** Fetch-decode-execute at the current [cs:ip], decoding the raw bytes
    now in memory.  The execute stage of {!step}, without the interrupt
    prologue. *)

val nmi_acceptable : t -> bool
(** Whether a pending NMI would be accepted this step. *)

val effective_address : t -> Instruction.mem -> int
val alu16 : t -> Instruction.alu_op -> int -> int -> int
val alu8 : t -> Instruction.alu_op -> int -> int -> int
(** ALU with flag update; return the value to store back, or {!no_store}
    for the compare/test forms. *)

val no_store : int

val cond_holds : t -> Instruction.cond -> bool
val push : t -> Word.t -> unit
val pop : t -> Word.t
