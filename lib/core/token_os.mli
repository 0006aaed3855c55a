(** Dijkstra's K-state token ring running {e as guest processes} on the
    §5.2 self-stabilizing scheduler.

    Each ring machine is a scheduler process that reads its
    predecessor's counter from a shared RAM segment, takes Dijkstra's
    move when privileged, and reports each move on its private port.
    §5.2 warns that "when there is a mixture of data space it is
    possible that stabilization of each process when executed
    separately may not imply stabilization when scheduled" — Dijkstra's
    ring is exactly an algorithm {e designed} for shared read/write
    variables, so the composed system (stabilizing processor →
    stabilizing scheduler → stabilizing distributed algorithm) converges
    from any joint state: the full three-layer composition of §1.

    The counter modulus is fixed at K = 8 (a power of two, so the move
    is a mask), satisfying Dijkstra's K >= N requirement for every
    supported ring size. *)

val k : int
(** 8. *)

val shared_segment : int
(** RAM segment holding the ring counters (one word per machine). *)

val shared_addr : int -> int
(** Physical address of machine [i]'s counter. *)

val ring_process : n:int -> index:int -> Process.t
(** The SSX16 program of ring machine [index] (machine 0 is Dijkstra's
    bottom machine).  Replay-safe under the scheduler's ip mask. *)

val build : ?n:int -> unit -> Sched.t
(** The tiny OS scheduling an [n]-machine ring (default 4), with
    {!Sched.build}'s defaults. *)

val states : Sched.t -> int array
(** Current ring counters read from shared memory. *)

val corrupt_state : Sched.t -> int -> int -> unit
(** Overwrite machine [i]'s shared counter. *)

val legitimate : Sched.t -> bool
(** Exactly one machine is privileged, by {!Ssx_stab.Distributed}'s
    rule on the raw counter words (not reduced modulo K). *)

val run_until_legitimate : Sched.t -> limit:int -> int option
(** Tick until the ring is legitimate; ticks consumed, or [None]. *)
