(** A machine's step-event counts.

    Every machine owns one record and counts every tick into it, always:
    the per-tick path bumps one field per event, and the block
    compiler's windowed runner bumps them once per straight-line run.
    {!Machine.counts} reads them out with the machine's other counts.
    See DESIGN.md §4f. *)

type t = {
  mutable ticks : int;
  mutable executed : int;
  mutable interrupts : int;
  mutable nmis : int;
  mutable exceptions : int;
  mutable idle : int;
  mutable resets : int;
}

val make : unit -> t
(** All-zero counters. *)

val note : t -> Cpu.event -> unit
(** Count one step event. *)
