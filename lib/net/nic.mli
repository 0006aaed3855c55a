(** A port-mapped network interface.

    The NIC occupies a block of three consecutive I/O ports:

    - [base]     — TX data: [out] enqueues one word for transmission;
                   [in] reads the number of words awaiting pickup.
    - [base + 1] — RX data: [in] pops the oldest received word
                   (0 when the queue is empty).
    - [base + 2] — RX status: [in] reads the number of queued words.

    The host side of the device is symmetric: {!drain_tx} collects what
    the guest transmitted (a {!Cluster} broadcasts it onto the node's
    outgoing links) and {!deliver} pushes an arriving word into the
    bounded RX queue, dropping — and counting — overflow.

    {!attach} wires the ports, registers a standard {!Ssx.Device.t}
    (which raises the optional RX interrupt while data is pending) and
    registers the queues with the snapshot machinery
    ({!Ssx.Machine.add_resettable}), so {!Ssx.Snapshot.capture} /
    [restore] cover the NIC like any other device. *)

type t

type stats = {
  tx_words : int;     (** words the guest transmitted *)
  rx_delivered : int; (** words accepted into the RX queue *)
  rx_dropped : int;   (** words lost to RX-queue overflow *)
  rx_read : int;      (** words the guest consumed *)
  rx_hwm : int;       (** deepest RX-queue occupancy ever reached *)
}

val default_base_port : int
(** 0x30. *)

val default_capacity : int
(** 16 words of RX buffering. *)

val create : ?base_port:int -> ?capacity:int -> ?rx_irq:int -> unit -> t
(** [rx_irq] — maskable-interrupt vector asserted while the RX queue is
    non-empty; omit it for polled operation. *)

val attach : t -> Ssx.Machine.t -> unit
(** Register the three ports and the resettable state.  Only a NIC
    with [rx_irq] also adds a device: its per-tick interrupt check,
    quiescent ({!Ssx.Device.quiescent} [= max_int]) while the RX queue
    is empty.  A polled NIC adds none. *)

val base_port : t -> int
val tx_port : t -> int
val rx_port : t -> int
val status_port : t -> int

val deliver : t -> int -> bool
(** Host-side arrival of one word; [false] when the bounded RX queue
    was full and the word was dropped. *)

val drain_tx : t -> int list
(** Pop everything the guest has transmitted, oldest first. *)

val pending_rx : t -> int
val pending_tx : t -> int
val stats : t -> stats

val counts : family:string -> t -> Ssx.Counts.t
(** [tx-words], [rx-delivered], [rx-dropped] and [rx-read] from
    {!stats}, named [<family>.<count>]: a cluster's NICs count as
    [net.nic], a replica's client NIC as [device.nic].  (The high-water
    mark is a maximum, not a count: read it from {!stats}.) *)
