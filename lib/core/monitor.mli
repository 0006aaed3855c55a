(** §4 — Reinstall executable and monitor state.

    The fully-self-stabilizing refinement of §3: the NMI handler
    (1) refreshes only the {e code} portion of the operating system from
    ROM, leaving the data structures alive; (2) validates that the
    interrupted address lies within the operating-system code and
    otherwise restarts from the first command (through the Figure 1
    procedure); and (3) runs consistency checks over the operating
    system's state, taking repair actions graduated to the violation.

    The code refresh and return-address validation are ROM-resident
    assembly (see {!monitor_source}); the data-consistency checks are
    host-level predicates evaluated at each NMI, modelling the
    "monitor/restarter … various consistency checks" the paper
    describes in prose. *)

type detection = {
  tick : int;
  violated : string list;  (** names of predicates that failed *)
}

type t = {
  system : System.t;
  predicates : Ssx_stab.Predicate.t list;
  mutable detections : detection list;  (** newest first *)
  mutable checks : int;  (** NMI-time predicate evaluations so far *)
}

val monitor_source : string
(** The NMI handler: code-only refresh + return-frame validation. *)

val guest_predicates : tasks:int -> Ssx_stab.Predicate.t list
(** Consistency predicates for the {!Guest.task_kernel} state: the task
    index is in range, the task table holds its golden entries, and the
    stack registers are sane. *)

val journal_predicates : unit -> Ssx_stab.Predicate.t list
(** Consistency predicates for the {!Guest.journal_kernel} state: the
    write pointer is in range and every written journal entry carries a
    valid MAC (repair recomputes it). *)

val build : unit -> t
(** Full §4 system over the four-task kernel: {!build_custom} with
    {!guest_predicates} and the golden-image predicate.  The ablation
    that keeps only the assembly-level refresh/validation is
    [build_custom ~guest:(Guest.task_kernel ()) ~predicates:[]
    ~code_integrity:false ()]. *)

val build_custom :
  ?code_integrity:bool ->
  guest:Guest.t ->
  predicates:Ssx_stab.Predicate.t list ->
  unit ->
  t
(** The §4 recovery layer around {e any} guest: ROM refresh + frame
    validation + your consistency predicates (checked at every NMI and
    exception entry), on the default NMI wiring and watchdog period.
    [code_integrity] (default true) adds the detection-only
    golden-image predicate. *)

val detections : t -> detection list
(** Oldest first. *)
