type t = {
  base_port : int;
  capacity : int;
  rx_irq : int option;
  tx : int Queue.t;
  rx : int Queue.t;
  mutable tx_words : int;
  mutable rx_delivered : int;
  mutable rx_dropped : int;
  mutable rx_read : int;
  mutable rx_hwm : int;
}

type stats = {
  tx_words : int;
  rx_delivered : int;
  rx_dropped : int;
  rx_read : int;
  rx_hwm : int;
}

let default_base_port = 0x30
let default_capacity = 16

let create ?(base_port = default_base_port) ?(capacity = default_capacity)
    ?rx_irq () =
  if capacity <= 0 then invalid_arg "Nic.create: capacity must be positive";
  { base_port; capacity; rx_irq;
    tx = Queue.create (); rx = Queue.create ();
    tx_words = 0; rx_delivered = 0; rx_dropped = 0; rx_read = 0; rx_hwm = 0 }

let base_port t = t.base_port
let tx_port t = t.base_port
let rx_port t = t.base_port + 1
let status_port t = t.base_port + 2
let pending_rx t = Queue.length t.rx
let pending_tx t = Queue.length t.tx

let stats (t : t) : stats =
  { tx_words = t.tx_words; rx_delivered = t.rx_delivered;
    rx_dropped = t.rx_dropped; rx_read = t.rx_read; rx_hwm = t.rx_hwm }

let deliver t word =
  if Queue.length t.rx >= t.capacity then begin
    t.rx_dropped <- t.rx_dropped + 1;
    false
  end
  else begin
    Queue.push (Ssx.Word.mask word) t.rx;
    t.rx_delivered <- t.rx_delivered + 1;
    let depth = Queue.length t.rx in
    if depth > t.rx_hwm then t.rx_hwm <- depth;
    true
  end

let counts ~family (t : t) =
  [ (family ^ ".tx-words", t.tx_words);
    (family ^ ".rx-delivered", t.rx_delivered);
    (family ^ ".rx-dropped", t.rx_dropped);
    (family ^ ".rx-read", t.rx_read) ]

let drain_tx t =
  let rec pop acc =
    if Queue.is_empty t.tx then List.rev acc else pop (Queue.pop t.tx :: acc)
  in
  pop []

let refill dst saved =
  Queue.clear dst;
  Queue.iter (fun w -> Queue.push w dst) saved

let attach t machine =
  Ssx.Machine.register_port machine ~port:(tx_port t)
    ~read:(fun _ -> Queue.length t.tx)
    ~write:(fun _ v ->
      Queue.push (Ssx.Word.mask v) t.tx;
      t.tx_words <- t.tx_words + 1);
  Ssx.Machine.register_port machine ~port:(rx_port t)
    ~read:(fun _ ->
      match Queue.pop t.rx with
      | w ->
        t.rx_read <- t.rx_read + 1;
        w
      | exception Queue.Empty -> 0)
    ~write:(fun _ _ -> ());
  Ssx.Machine.register_port machine ~port:(status_port t)
    ~read:(fun _ -> Queue.length t.rx)
    ~write:(fun _ _ -> ());
  (* Only an interrupting NIC needs the clock.  Its RX queue fills from
     the host between runs and drains through port reads, which end a
     quiescence window, so an empty queue stays silent for any number
     of ticks. *)
  Option.iter
    (fun vector ->
      Ssx.Machine.add_device machine
        (Ssx.Device.make ~name:"nic"
           ~quiescent:(fun () -> if Queue.is_empty t.rx then max_int else 0)
           ~tick:(fun cpu ->
             if (not (Queue.is_empty t.rx)) && cpu.Ssx.Cpu.intr = None then
               Ssx.Cpu.raise_intr cpu vector)
           ()))
    t.rx_irq;
  Ssx.Machine.add_resettable machine (fun () ->
      let tx = Queue.copy t.tx and rx = Queue.copy t.rx in
      let tx_words = t.tx_words and rx_delivered = t.rx_delivered
      and rx_dropped = t.rx_dropped and rx_read = t.rx_read
      and rx_hwm = t.rx_hwm in
      fun () ->
        refill t.tx tx;
        refill t.rx rx;
        t.tx_words <- tx_words;
        t.rx_delivered <- rx_delivered;
        t.rx_dropped <- rx_dropped;
        t.rx_read <- rx_read;
        t.rx_hwm <- rx_hwm)
