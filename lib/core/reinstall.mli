(** §3 — Periodical reinstall and restart.

    The simplest recovery design: a watchdog periodically triggers the
    NMI, whose handler — the watchdog/reinstall procedure of Figure 1,
    resident in ROM — copies the whole operating-system image (code and
    data) from ROM into RAM, rebuilds the stack and transfers control to
    the operating system's first instruction with an [iret].

    Two variants, as in the paper:
    - {!Restart}: Figure 1 verbatim — reinstall, then start from the OS
      entry point.  Weakly self-stabilizing: executions are infinite
      concatenations of prefixes of legal executions.
    - {!Continue}: reinstall the image, then [iret] back to the
      interrupted instruction, preserving registers saved on the
      (possibly corrupt) guest stack.

    The reset vector and every exception vector also lead to the
    reinstall procedure, so the system boots through it and recovers
    from stray exceptions the same way. *)

type variant = Restart | Continue

val figure1_source : string
(** The watchdog/reinstall procedure, line-for-line after Figure 1 of
    the paper. *)

val continue_source : string
(** The reinstall-and-continue NMI handler (§3, second design). *)

type wiring = Nmi_wired | Reset_wired
(** §2 allows the watchdog to "trigger the reset pin instead" for the
    first two schemes: [Reset_wired] reboots through the reset vector,
    which leads to the same reinstall procedure. *)

val build :
  ?nmi_counter_enabled:bool ->
  ?hardwired_nmi:bool ->
  ?obs_label:string ->
  ?watchdog_period:int ->
  ?variant:variant ->
  ?wiring:wiring ->
  ?timer_period:int ->
  ?guest:Guest.t ->
  unit ->
  System.t
(** Assemble the complete system.  Defaults: NMI counter on, hardwired
    NMI vector, watchdog period {!Layout.default_watchdog_period},
    [Restart] variant, NMI wiring, no timer, heartbeat-kernel guest.
    [timer_period] adds a periodic maskable timer whose IDT vector
    points at the guest's handler (use {!Guest.preemptive_kernel}).
    The machine starts at the reset vector; run it and the reinstall
    procedure boots the guest. *)

val weak_spec : ?window:int -> unit -> Ssx_stab.Convergence.heartbeat_spec
(** Weak legality for the heartbeat kernel under periodic restart:
    heartbeats increment by one, or restart from 1 (a new prefix of a
    legal execution), at most 8,000 ticks apart; [window] (default
    20,000) is the legal suffix a run must end with. *)

val strict_spec : unit -> Ssx_stab.Convergence.heartbeat_spec
(** Strict legality: heartbeats increment by one (no restarts), gap and
    window as in {!weak_spec}. *)
