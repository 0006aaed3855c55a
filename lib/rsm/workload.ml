(* One source: per-node rng streams drawn one slot at a time, so a
   serve run needs no horizon decided up front, while a trial bounds
   each node to [slots] slots.  Node [i]'s stream is seed stream
   [i + 1]; the draw sequence per slot is pinned against a test-side
   schedule oracle in test_serve.ml. *)
type t = {
  service : Service.t;
  rate : float;
  slots : int;
  rngs : Ssx_faults.Rng.t array;
  rid : int array;  (* per node, the rolling request id *)
  slot : int array;
  dropped : int array;
  last_word : int array;  (* per node, for consecutive-duplicate dedup *)
  mutable responses : (int * int * int) list;  (* newest first *)
  (* Windowed accounting, maintained incrementally at log-merge time on
     the stepping domain: per node, the injection steps of not-yet-
     answered requests keyed by the echoed (op, id, key) byte. *)
  pending : (int, int Queue.t) Hashtbl.t array;
  mutable injected : int;
  mutable committed : int;
  mutable latencies : int list;  (* newest first, drained by callers *)
}

let open_loop ?(rate = 0.05) ?(slots = max_int) ~seed service =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Workload.open_loop: rate";
  let n = service.Service.n in
  { service;
    rate;
    slots;
    rngs =
      Array.init n (fun node ->
          Ssx_faults.Rng.create (Ssx_faults.Rng.derive seed (node + 1)));
    rid = Array.make n 0;
    slot = Array.make n 0;
    dropped = Array.make n 0;
    last_word = Array.make n 0;
    responses = [];
    pending = Array.init n (fun _ -> Hashtbl.create 16);
    injected = 0;
    committed = 0;
    latencies = [] }

let discard t =
  Array.iter
    (fun client -> ignore (Ssos_net.Nic.drain_tx client))
    t.service.Service.clients

(* Runs on the owning worker domain right after node [who]'s slot: it
   touches only [who]'s cells of the per-node arrays and allocates its
   own result, as {!Ssos_net.Cluster.run_sharded_epochs} requires —
   which is what makes the whole workload shard-count invariant.  The
   entry carries both directions of that slot's client traffic:
   responses drained, then the request injected (drained words were
   transmitted before this slot's deliveries, so within an entry that
   order is the causal one). *)
let record t _cluster who =
  t.slot.(who) <- t.slot.(who) + 1;
  let injected =
    let rng = t.rngs.(who) in
    if t.slot.(who) <= t.slots && Ssx_faults.Rng.float rng < t.rate then begin
      let put = Ssx_faults.Rng.bool rng in
      let key = Ssx_faults.Rng.int rng Wire.keys in
      let value = if put then Ssx_faults.Rng.int rng 256 else 0 in
      t.rid.(who) <- (t.rid.(who) mod 15) + 1;
      let word = Wire.request ~put ~rid:t.rid.(who) ~key ~value in
      if Ssos_net.Nic.deliver t.service.Service.clients.(who) word then
        Some word
      else begin
        t.dropped.(who) <- t.dropped.(who) + 1;
        None
      end
    end
    else None
  in
  (Ssos_net.Nic.drain_tx t.service.Service.clients.(who), injected)

(* Merge a chunk of the step-ordered log.  A replica's transmit block
   may replay after a watchdog preemption and emit the same response
   word twice in a row; genuine consecutive responses always differ in
   the rolling request id, so dropping per-node consecutive duplicates
   is exact.  Each surviving response is paired FIFO with the oldest
   unanswered request carrying the same echoed (op, id, key) byte,
   which yields the commit count and a per-request latency in cluster
   steps. *)
let merge t log =
  List.iter
    (fun (step, who, (drained, injected)) ->
      List.iter
        (fun word ->
          if word <> t.last_word.(who) then begin
            t.last_word.(who) <- word;
            t.responses <- (step, who, word) :: t.responses;
            match Hashtbl.find_opt t.pending.(who) (Wire.match_byte word) with
            | Some q when not (Queue.is_empty q) ->
              let injected_at = Queue.pop q in
              t.committed <- t.committed + 1;
              t.latencies <- (step - injected_at) :: t.latencies
            | Some _ | None -> ()
          end)
        drained;
      Option.iter
        (fun word ->
          t.injected <- t.injected + 1;
          let byte = Wire.match_byte word in
          let q =
            match Hashtbl.find_opt t.pending.(who) byte with
            | Some q -> q
            | None ->
              let q = Queue.create () in
              Hashtbl.replace t.pending.(who) byte q;
              q
          in
          Queue.push step q)
        injected)
    log

let run t ~steps =
  merge t
    (Ssos_net.Cluster.run_sharded_log ~record:(record t)
       t.service.Service.cluster ~steps)

let run_epochs ?(shards = 1) ?jobs t ~epoch ~steps ~on_epoch =
  Ssos_net.Cluster.run_sharded_epochs ~shards ?jobs ~epoch ~record:(record t)
    ~on_epoch:(fun index log ->
      merge t log;
      on_epoch index)
    t.service.Service.cluster ~steps

let responses t = List.rev t.responses

let ops t =
  List.rev_map
    (fun (_, _, word) ->
      let op = Wire.decode word in
      { Ssx_stab.Distributed.is_put = op.Wire.put;
        key = op.Wire.key;
        value = op.Wire.value })
    t.responses

let injected t = t.injected

let dropped t = Array.fold_left ( + ) 0 t.dropped

let committed t = t.committed

let take_latencies t =
  let l = List.rev t.latencies in
  t.latencies <- [];
  l

let lost t = t.injected - t.committed
