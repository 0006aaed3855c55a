(** Basic-block threaded-code compiler (ROADMAP item 2, DESIGN §4g).

    Discovers basic blocks — straight-line runs ending at control
    transfers, port I/O, [iret]/[int], CS writes, [hlt], or a length
    cap — and compiles each into an array of closures with operands and
    successor-ip constants pre-resolved, keyed by the physical address
    of the first opcode byte.  Executing compiled code skips
    fetch/decode/dispatch entirely.

    The §5.2 self-modifying-code contract is preserved: every change to
    memory gives its page a fresh generation ({!Memory}); a block runs
    only while its recorded code bytes are proven identical to memory
    (fresh generations, or a direct byte comparison that tolerates
    unrelated writes into the same page).  Freshness is rechecked at
    block entry, after each memory-writing instruction, and on every
    single-stepped tick — guest stores into compiled code, including
    the currently executing block, force re-translation at the next
    instruction boundary.  The table survives reset pins (they change
    no memory byte) and snapshot restores ({!Memory.restore_pages}
    gives every page it copies a fresh generation, so the blocks on it
    revalidate by byte comparison).

    Observable behaviour — events, architectural state after every
    tick, device and port interleaving — is identical to the
    interpreter; only speed changes.  The jit-on/jit-off differential
    suite asserts this. *)

type t

val create : Memory.t -> t
(** Empty block table for the machine whose memory is given: it reads
    that memory's page generations.  One per machine (see
    {!Machine.set_jit}). *)

val step_cpu : t -> Cpu.t -> Cpu.event
(** One clock tick: {!Cpu.step_with} with the block table as the
    execute stage.  Uncompilable positions (wrapping decode windows)
    fall back to the interpreter. *)

val run_quiet :
  t ->
  Cpu.t ->
  devices:Device.t array ->
  counters:Tick_counters.t ->
  budget:int ->
  unit
(** Run exactly [budget] ticks of a machine, with the same result as
    [budget] rounds of "every device ticks, then {!step_cpu}".  One loop serves every machine: it takes the
    joint quiescence window — the smallest {!Device.quiescent} over
    [devices], [max_int] with none, 0 while a pin is pending — and
    runs compiled blocks inside it with no device calls and no pin
    polling: one closure call per op, self-targeting [loop]s and [hlt]
    idle in closed form, and [rep movs/stos/lods] as bursts (every byte
    still through {!Memory.write_byte}; a burst ends when [cx] drains
    or a write changes the block's own bytes).  An undecodable opcode
    enters #UD through {!Cpu.take_exception}, without a raise; a fault
    whose handler is the first op of its own block re-enters that block
    in place while its bytes are unchanged (the block the table lookup
    would find), so a self-vectoring exception storm stays in the
    window at the cost of each entry's real {!Cpu.service}.  The
    window's ticks are then applied to every device with
    {!Device.advance}.  A window stops
    before port I/O and uncompilable positions, and that tick runs
    through the per-tick path, so port handlers see exactly the device
    state, [steps] and NMI countdown they would under the interpreter.
    Every tick's event is counted into [counters], a window's ticks
    at once. *)

(** {1 Stats} *)

val built : t -> int
(** Blocks compiled since creation (including re-translations). *)

val retranslations : t -> int
(** Blocks recompiled over a predecessor at the same address — the
    §5.2 path: code bytes changed under a compiled block, by a guest
    store, a fault, or a snapshot restore that put back other bytes. *)

val block_ticks : t -> int
(** Ticks executed through compiled ops (vs interpreter fallback). *)

val loop_ticks : t -> int
(** Ticks executed through closed-form self-targeting [loop]s inside
    quiescence windows (a subset of {!block_ticks}). *)

val burst_ticks : t -> int
(** Ticks executed through [rep] string bursts inside quiescence
    windows (a subset of {!block_ticks}). *)
