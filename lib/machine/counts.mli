(** Event counts, read from their owners on demand.

    Every counting structure in the reproduction keeps its counts as
    plain fields that are always on: a machine's {!Tick_counters}, a
    memory's writes, a watchdog's bites, a link's and a NIC's traffic.
    Each owner reads them out as a list of named counts, and a
    composite (a system, a cluster, a service) concatenates its parts'
    lists, tagging repeated parts with {!label}.  Nothing here
    publishes: whoever owns a run hands the list to the metric registry
    once, when the run ends. *)

type t = (string * int) list
(** Count name and value, in a fixed order for a given owner. *)

val label : string -> t -> t
(** [label id counts] names the instance each count belongs to:
    [machine.ticks] becomes [machine.ticks{id=<id>}], and a count
    already labelled [{id=x}] becomes [{id=<id>/x}] (node [rsm0]'s
    process-0 heartbeat is [device.heartbeat.count{id=rsm0/0}]).
    Owners name their counts without braces, so a label is a name's
    only brace group, and its base name — the name with the braces
    removed — stays the owner's. *)

val indexed : (int -> string) -> ('a -> t) -> 'a array -> t
(** [indexed name counts parts] is every part's counts in order, part
    [i]'s labelled [name i]. *)
