type t = {
  cluster : Ssos_net.Cluster.t;
  systems : Ssos.Sched.t array;
  clients : Ssos_net.Nic.t array;
  n : int;
}

(* One replica pass — drain a 9-word frame, run the completeness check,
   serve clients, retransmit 9 words — costs roughly 300-350 ticks.  The
   slot must fit at least one full pass, or nodes structurally fall
   behind the predecessor's one-frame-per-slot output and the RX queue
   backlogs into drops; 600 leaves room for a backlog-draining pass. *)
let default_ticks_per_slot = 600

(* Words a replica's cluster NIC queues, and client requests its
   client NIC queues, before it drops. *)
let cluster_capacity = 64
let client_capacity = 8

let build ?(n = 5) ?policy ?(ticks_per_slot = default_ticks_per_slot) ?latency
    ?watchdog_period ?faults ~seed () =
  if n < 2 then invalid_arg "Service.build: need at least two nodes";
  let systems =
    Array.init n (fun index ->
        Ssos.Sched.build ~n:1 ?watchdog_period
          ~processes:[| Replica.process ~bottom:(index = 0) ~index |] ())
  in
  (* The client NIC attaches first so each machine's port map and
     resettable order are fixed by construction, independent of later
     cluster wiring. *)
  let clients =
    Array.map
      (fun sched ->
        let client =
          Ssos_net.Nic.create ~base_port:Replica.client_base_port
            ~capacity:client_capacity ()
        in
        Ssos_net.Nic.attach client sched.Ssos.Sched.machine;
        client)
      systems
  in
  let nodes =
    Array.map
      (fun sched ->
        let nic = Ssos_net.Nic.create ~capacity:cluster_capacity () in
        Ssos_net.Nic.attach nic sched.Ssos.Sched.machine;
        { Ssos_net.Cluster.machine = sched.Ssos.Sched.machine; nic })
      systems
  in
  let cluster =
    Ssos_net.Cluster.create ?policy ~ticks_per_slot ?latency ~seed nodes
  in
  (* Adversarial daemons see the abstract ring state — each replica's
     raw token counter word. *)
  Ssos_net.Cluster.set_abstract cluster (fun i ->
      Ssx.Memory.read_word
        (Ssx.Machine.memory (Ssos_net.Cluster.machine cluster i))
        Replica.self_addr);
  Ssos_net.Cluster.connect_many ?faults cluster
    (Ssos_net.Cluster.ring_edges ~n);
  { cluster; systems; clients; n }

let counts t =
  Ssx.Counts.indexed (Printf.sprintf "rsm%d") Ssos.Sched.counts t.systems
  @ Ssx.Counts.indexed (Printf.sprintf "client%d")
      (Ssos_net.Nic.counts ~family:"device.nic")
      t.clients
  @ Ssos_net.Cluster.counts t.cluster

let node_memory t i = Ssx.Machine.memory (Ssos_net.Cluster.machine t.cluster i)

let states t =
  Array.init t.n (fun i -> Ssx.Memory.read_word (node_memory t i) Replica.self_addr)

let views t =
  Array.init t.n (fun i -> Ssx.Memory.read_word (node_memory t i) Replica.view_addr)

let kv t i =
  let mem = node_memory t i in
  Array.init Wire.keys (fun key -> Ssx.Memory.read_word mem (Replica.kv_addr key))

let kvs t = Array.init t.n (kv t)

let sample t =
  { Ssx_stab.Distributed.step = Ssos_net.Cluster.steps t.cluster;
    states = states t;
    kvs = kvs t }

let corrupt_state t i v =
  Ssx.Memory.write_word (node_memory t i) Replica.self_addr (Ssx.Word.mask v)

let corrupt_view t i v =
  Ssx.Memory.write_word (node_memory t i) Replica.view_addr (Ssx.Word.mask v)

let corrupt_kv t i key v =
  Ssx.Memory.write_word (node_memory t i) (Replica.kv_addr key) (Ssx.Word.mask v)

let corrupt_tag t i key v =
  Ssx.Memory.write_word (node_memory t i) (Replica.seent_addr key) (Ssx.Word.mask v)

let corrupt rng t =
  let word () = Ssx_faults.Rng.int rng 0x10000 in
  for i = 0 to t.n - 1 do
    corrupt_state t i (word ());
    corrupt_view t i (word ());
    for key = 0 to Wire.keys - 1 do
      corrupt_kv t i key (word ());
      corrupt_tag t i key (word ())
    done
  done

let legitimate t =
  Ssx_stab.Distributed.rsm_legitimate ~states:(states t) ~kvs:(kvs t)

(* [record] for the runs below: the node's counter plus a copy of its
   store, read right after the node's slot.  A
   node's memory only changes while it runs (delivery just queues words
   in the destination NIC), so the per-step log reconstructs the exact
   (states, kvs) matrices an observer sampling after every step would
   see. *)
let record_node cluster who =
  let mem = Ssx.Machine.memory (Ssos_net.Cluster.machine cluster who) in
  ( Ssx.Memory.read_word mem Replica.self_addr,
    Array.init Wire.keys (fun key ->
        Ssx.Memory.read_word mem (Replica.kv_addr key)) )

let observe t ~steps =
  let states = states t and kvs = kvs t in
  let acc = ref [] in
  Ssos_net.Cluster.replay ~record:record_node t.cluster ~steps
    (fun step slot ->
      Option.iter
        (fun (who, (state, kv)) ->
          states.(who) <- state;
          kvs.(who) <- kv)
        slot;
      acc :=
        { Ssx_stab.Distributed.step;
          states = Array.copy states;
          kvs = Array.map Array.copy kvs }
        :: !acc);
  List.rev !acc

let run_until_stable t ~limit =
  let states = states t and kvs = kvs t in
  Ssos_net.Cluster.replay_until ~record:record_node t.cluster ~limit
    (fun _ slot ->
      match slot with
      | None -> false
      | Some (who, (state, kv)) ->
        states.(who) <- state;
        kvs.(who) <- kv;
        Ssx_stab.Distributed.rsm_legitimate ~states ~kvs)
