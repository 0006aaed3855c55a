(* lib/net — NIC, lossy links, the cluster stepper against its scan
   oracle, and the distributed token ring. *)

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

module Nic = Ssos_net.Nic
module Link = Ssos_net.Link
module Cluster = Ssos_net.Cluster
module Net_ring = Ssos_net.Net_ring
module Rng = Ssx_faults.Rng

(* --- NIC ------------------------------------------------------------ *)

let test_nic_guest_io () =
  (* A guest reads a delivered word through the dx-named RX port and
     echoes it back out of the TX port. *)
  let machine, _ =
    Helpers.machine_with
      "mov dx, 0x31\n\
       in ax, dx\n\
       mov bx, ax\n\
       mov dx, 0x30\n\
       out dx, ax\n\
       out 0x30, ax\n\
       hlt\n"
  in
  let nic = Nic.create () in
  Nic.attach nic machine;
  check_bool "delivered" true (Nic.deliver nic 0x1234);
  Helpers.run_to_halt machine;
  check_int "guest read the word" 0x1234 (Helpers.regs machine).Ssx.Registers.bx;
  (match Nic.drain_tx nic with
  | [ 0x1234; 0x1234 ] -> ()
  | words ->
    Alcotest.failf "unexpected TX drain: [%s]"
      (String.concat "; " (List.map string_of_int words)));
  let stats = Nic.stats nic in
  check_int "tx counted" 2 stats.Nic.tx_words;
  check_int "rx read counted" 1 stats.Nic.rx_read

let test_nic_overflow () =
  let machine, _ = Helpers.machine_with "hlt\n" in
  let nic = Nic.create ~capacity:2 () in
  Nic.attach nic machine;
  check_bool "first fits" true (Nic.deliver nic 1);
  check_bool "second fits" true (Nic.deliver nic 2);
  check_bool "third dropped" false (Nic.deliver nic 3);
  check_int "pending" 2 (Nic.pending_rx nic);
  check_int "dropped counted" 1 (Nic.stats nic).Nic.rx_dropped

let test_nic_hwm_and_drops () =
  (* The RX high-water mark records the deepest queue occupancy ever
     reached — not the current depth — and overflow drops are counted
     among the NIC's counts (the high-water mark, a maximum, is not
     one). *)
  let machine, _ =
    Helpers.machine_with "mov dx, 0x31\nin ax, dx\nin ax, dx\nhlt\n"
  in
  let nic = Nic.create ~capacity:3 () in
  Nic.attach nic machine;
  check_int "hwm starts at zero" 0 (Nic.stats nic).Nic.rx_hwm;
  check_bool "first fits" true (Nic.deliver nic 1);
  check_bool "second fits" true (Nic.deliver nic 2);
  check_int "hwm tracks occupancy" 2 (Nic.stats nic).Nic.rx_hwm;
  check_bool "third fits" true (Nic.deliver nic 3);
  check_bool "fourth dropped" false (Nic.deliver nic 4);
  Helpers.run_to_halt machine;
  check_int "guest drained two words" 1 (Nic.pending_rx nic);
  let stats = Nic.stats nic in
  check_int "hwm is the deepest occupancy, not the current" 3 stats.Nic.rx_hwm;
  check_int "overflow counted" 1 stats.Nic.rx_dropped;
  check_bool "counts under the given family" true
    (Nic.counts ~family:"device.nic" nic
    = [ ("device.nic.tx-words", 0); ("device.nic.rx-delivered", 3);
        ("device.nic.rx-dropped", 1); ("device.nic.rx-read", 2) ])

let test_nic_empty_rx_reads_zero () =
  let machine, _ =
    Helpers.machine_with "mov dx, 0x31\nin ax, dx\nmov dx, 0x32\nin ax, dx\nhlt\n"
  in
  let nic = Nic.create () in
  Nic.attach nic machine;
  Helpers.run_to_halt machine;
  check_int "empty queue reads zero, status zero" 0
    (Helpers.regs machine).Ssx.Registers.ax

let test_nic_rx_interrupt () =
  let machine, _ = Helpers.machine_with "cli\nhlt\n" in
  let nic = Nic.create ~rx_irq:0x21 () in
  Nic.attach nic machine;
  Helpers.run_to_halt machine;
  let cpu = Ssx.Machine.cpu machine in
  check_bool "no interrupt while empty" true (cpu.Ssx.Cpu.intr = None);
  ignore (Nic.deliver nic 7);
  ignore (Ssx.Machine.tick machine);
  check_bool "interrupt asserted while pending" true
    (cpu.Ssx.Cpu.intr = Some 0x21)

let test_nic_snapshot_roundtrip () =
  let machine, _ = Helpers.machine_with "hlt\n" in
  let nic = Nic.create () in
  Nic.attach nic machine;
  ignore (Nic.deliver nic 11);
  let snap = Ssx.Snapshot.capture machine in
  ignore (Nic.deliver nic 22);
  ignore (Nic.deliver nic 33);
  Ssx.Snapshot.restore snap machine;
  check_int "rx queue rewound" 1 (Nic.pending_rx nic);
  check_int "stats rewound" 1 (Nic.stats nic).Nic.rx_delivered

let test_late_attached_device_refused () =
  (* The regression this guards: a snapshot captured before a device is
     attached has no restore thunk for it; restore must refuse rather
     than silently leak the device's state across trials. *)
  let machine, _ = Helpers.machine_with "hlt\n" in
  check_int "no resettables yet" 0 (Ssx.Machine.resettable_count machine);
  let snap = Ssx.Snapshot.capture machine in
  let nic = Nic.create () in
  Nic.attach nic machine;
  check_int "nic registered" 1 (Ssx.Machine.resettable_count machine);
  ignore (Nic.deliver nic 42);
  (match Ssx.Snapshot.restore snap machine with
  | () -> Alcotest.fail "restore over a late-attached NIC must be refused"
  | exception Invalid_argument _ -> ());
  check_int "nic state untouched by the refusal" 1 (Nic.pending_rx nic)

(* --- Link ----------------------------------------------------------- *)

let drain_until link ~last =
  let out = ref [] in
  for now = 0 to last do
    out := !out @ Link.due link ~now
  done;
  !out

let test_link_fifo_under_jitter () =
  let rng = Rng.create 7L in
  let faults = Link.lossy ~max_delay:9 () in
  let link = Link.create ~faults ~rng ~src:0 ~dst:1 () in
  for i = 0 to 49 do
    Link.send link ~now:i i
  done;
  let received = drain_until link ~last:200 in
  check_int "nothing lost" 50 (List.length received);
  check_bool "delivered in send order despite jitter" true
    (received = List.init 50 Fun.id);
  check_int "queue empty" 0 (Link.in_flight link)

let test_link_faults_deterministic () =
  let make () =
    let faults = Link.lossy ~drop:0.3 ~duplicate:0.2 ~max_delay:4 ~corrupt:0.2 () in
    Link.create ~faults ~rng:(Rng.create 99L) ~src:0 ~dst:1 ()
  in
  let run link =
    for i = 0 to 99 do
      Link.send link ~now:i (i * 31)
    done;
    drain_until link ~last:300
  in
  let a = run (make ()) and b = run (make ()) in
  check_bool "same seed, same stream" true (a = b);
  check_bool "drops happened" true (List.length a < 100)

let test_link_never_delivers_same_step () =
  let link = Link.create ~rng:(Rng.create 1L) ~src:0 ~dst:1 () in
  Link.send link ~now:5 77;
  check_int "not due at the send step" 0 (List.length (Link.due link ~now:5));
  check_int "due next step" 1 (List.length (Link.due link ~now:6))

let test_link_capture_restores_fault_phase () =
  let faults = Link.benign () in
  let link = Link.create ~faults ~rng:(Rng.create 3L) ~src:0 ~dst:1 () in
  Link.send link ~now:0 1;
  let restore = Link.capture link in
  faults.Link.drop <- 1.0;
  Link.send link ~now:1 2;
  Link.send link ~now:2 3;
  restore ();
  check_bool "fault phase restored" true (faults.Link.drop = 0.0);
  check_int "in-flight restored" 1 (Link.in_flight link);
  check_int "sent counter restored" 1 (Link.sent link)

(* --- guest image discipline ----------------------------------------- *)

let block_labels =
  [ "start"; "poll"; "take"; "load"; "derive"; "commit"; "announce"; "emit" ]

let test_ring_guest_blocks () =
  List.iter
    (fun bottom ->
      let process = Net_ring.ring_process ~bottom ~index:0 in
      let image =
        Ssx_asm.Assemble.assemble ~origin:0
          ~instr_align:Ssos.Layout.instr_align
          ~symbols:(Ssos.Rom_builder.layout_symbols @ process.Ssos.Process.symbols)
          process.Ssos.Process.source
      in
      (* Every block starts 16-aligned and fits in one 16-byte window —
         the replay-idempotence discipline depends on it. *)
      List.iteri
        (fun i label ->
          check_int
            (Printf.sprintf "%s at block %d (bottom=%b)" label i bottom)
            (i * 16)
            (Ssx_asm.Assemble.symbol image label))
        block_labels;
      match
        Ssos.Process.validate ~model:Ssos.Process.Scheduled
          ~code_len:(String.length image.Ssx_asm.Assemble.bytes)
          image.Ssx_asm.Assemble.bytes
      with
      | Ok () -> ()
      | Error problems ->
        Alcotest.failf "guest violates process restrictions: %s"
          (String.concat "; " problems))
    [ true; false ]

(* --- cluster + ring ------------------------------------------------- *)

let test_ring_fault_free_stays_legal () =
  let ring = Net_ring.build ~n:4 ~seed:11L () in
  let samples = Net_ring.observe ring ~steps:800 in
  check_bool "never illegitimate from the zero state" true
    (List.for_all
       (fun (s : Ssx_stab.Distributed.sample) ->
         Ssx_stab.Distributed.legitimate ~states:s.states)
       samples)

let test_ring_token_circulates () =
  (* The privilege must move around the whole ring, not sit still. *)
  let ring = Net_ring.build ~n:4 ~seed:12L () in
  let seen = Array.make 4 false in
  let samples = Net_ring.observe ring ~steps:2_000 in
  List.iter
    (fun (s : Ssx_stab.Distributed.sample) ->
      for i = 0 to 3 do
        if Ssx_stab.Distributed.privileged ~states:s.states i then
          seen.(i) <- true
      done)
    samples;
  check_bool "every node held the privilege" true (Array.for_all Fun.id seen)

let test_cluster_determinism () =
  let run () =
    let ring = Net_ring.build ~n:3 ~seed:21L ~policy:Cluster.Fair_random () in
    Cluster.run_sharded ring.Net_ring.cluster ~steps:600;
    Cluster.digest ring.Net_ring.cluster
  in
  Helpers.check_string "identical seeds, identical executions" (run ()) (run ())

let convergence_bound = 1_200
(* cluster steps; generous — observed worst cases are well under it *)

let test_ring_converges_from_corruption () =
  (* Acceptance: from >= 20 random joint corruptions the ring reconverges
     to a single privilege, within a stated bound. *)
  let ring = Net_ring.build ~n:4 ~seed:31L () in
  Cluster.run_sharded ring.Net_ring.cluster ~steps:200;
  let rng = Rng.create 0xC0FFEEL in
  for trial = 1 to 24 do
    Net_ring.corrupt rng ring;
    let samples = Net_ring.observe ring ~steps:(convergence_bound + 600) in
    match Ssx_stab.Distributed.judge ~window:600 ~samples
            ~end_step:(Cluster.steps ring.Net_ring.cluster)
    with
    | Ssx_stab.Convergence.Converged { at_tick; _ } ->
      let started = Cluster.steps ring.Net_ring.cluster
                    - (convergence_bound + 600) in
      let took = max 0 (at_tick - started) in
      if took > convergence_bound then
        Alcotest.failf "trial %d converged only after %d steps" trial took
    | verdict ->
      Alcotest.failf "trial %d: %s" trial
        (Format.asprintf "%a" Ssx_stab.Convergence.pp_verdict verdict)
  done

let test_ring_converges_under_lossy_links () =
  let faults ~src:_ ~dst:_ = Link.lossy ~drop:0.2 ~max_delay:3 () in
  let ring = Net_ring.build ~n:4 ~seed:41L ~faults () in
  Cluster.run_sharded ring.Net_ring.cluster ~steps:200;
  let rng = Rng.create 0xBEEFL in
  for trial = 1 to 6 do
    Net_ring.corrupt rng ring;
    let samples = Net_ring.observe ring ~steps:3_000 in
    match Ssx_stab.Distributed.judge ~window:600 ~samples
            ~end_step:(Cluster.steps ring.Net_ring.cluster)
    with
    | Ssx_stab.Convergence.Converged _ -> ()
    | verdict ->
      Alcotest.failf "lossy trial %d: %s" trial
        (Format.asprintf "%a" Ssx_stab.Convergence.pp_verdict verdict)
  done

let test_cluster_snapshot_reset () =
  (* Restoring a cluster snapshot must reproduce the continuation
     bit-exactly, including link and NIC state. *)
  let ring = Net_ring.build ~n:3 ~seed:51L ~faults:(fun ~src:_ ~dst:_ ->
      Link.lossy ~drop:0.1 ~max_delay:2 ()) ()
  in
  Cluster.run_sharded ring.Net_ring.cluster ~steps:300;
  let snap = Cluster.capture ring.Net_ring.cluster in
  let continue () =
    Net_ring.corrupt_state ring 1 0x7777;
    Cluster.run_sharded ring.Net_ring.cluster ~steps:400;
    Cluster.digest ring.Net_ring.cluster
  in
  let first = continue () in
  Cluster.restore ring.Net_ring.cluster snap;
  let second = continue () in
  Helpers.check_string "continuation reproduced after restore" first second

(* The one arbitrary start against the hand loop it replaced: node by
   node, the counter's word, then the view's.  The same words land in
   the same cells and the rng is left at the same point. *)
let test_corrupt_draw_order () =
  let build () = Net_ring.build ~n:5 ~seed:89L () in
  let hand = build () and one = build () in
  let hand_rng = Rng.create 0xD1CEL and one_rng = Rng.create 0xD1CEL in
  for i = 0 to hand.Net_ring.n - 1 do
    Net_ring.corrupt_state hand i (Rng.int hand_rng 0x10000);
    Net_ring.corrupt_view hand i (Rng.int hand_rng 0x10000)
  done;
  Net_ring.corrupt one_rng one;
  check_bool "counters corrupted" true
    (Array.exists (fun v -> v >= Net_ring.k) (Net_ring.states hand));
  check_bool "same counters" true (Net_ring.states one = Net_ring.states hand);
  check_bool "same views" true (Net_ring.views one = Net_ring.views hand);
  check_bool "rng left at the same point" true
    (Rng.next_int64 one_rng = Rng.next_int64 hand_rng)

(* --- the scan oracle -------------------------------------------------- *)

(* The cluster step as Cluster's docs define it, written against the
   public Machine/Nic/Link/Adversary APIs only: pick a node under the
   policy, run its slot, broadcast what it sent onto its outgoing links
   in creation order, then scan every link in creation order and
   deliver whatever is due.  O(links) per step, and nothing shared with
   the stepper's calendars, windows or outboxes.  [of_cluster] drives
   a freshly built cluster that was seeded with [seed] and runs
   [ticks_per_slot] ticks per slot, with a stateful daemon reading node
   [i]'s abstract state as [state i]; [create] is that for a ring at
   the default 50 ticks per slot, whose daemons read each node's
   counter, as Net_ring registers it for the stepper. *)
module Scan = struct
  type t = {
    cluster : Cluster.t;
    state : int -> int;
    ticks_per_slot : int;
    rng : Rng.t;
    mutable now : int;
    mutable skipped : int;
  }

  let of_cluster ~ticks_per_slot ~state ~seed cluster =
    if Cluster.steps cluster <> 0 then invalid_arg "Scan.of_cluster: stepped";
    { cluster; state; ticks_per_slot; rng = Rng.create (Rng.derive seed 0);
      now = 0; skipped = 0 }

  let create ~seed ring =
    let cluster = ring.Net_ring.cluster in
    of_cluster ~ticks_per_slot:50 ~seed cluster ~state:(fun i ->
        Ssx.Memory.read_word (Ssx.Machine.memory (Cluster.machine cluster i))
          Net_ring.self_addr)

  let step o =
    let c = o.cluster in
    let size = Cluster.size c in
    let chosen =
      match Cluster.policy c with
      | Cluster.Round_robin -> Some (o.now mod size)
      | Cluster.Fair_random -> Some (Rng.int o.rng size)
      | Cluster.Daemon d ->
        Ssx_stab.Adversary.choose d
          { Ssx_stab.Adversary.now = o.now; size; rng = o.rng;
            state = Some o.state }
    in
    (match chosen with
    | None -> o.skipped <- o.skipped + 1
    | Some who ->
      Ssx.Machine.run (Cluster.machine c who) ~ticks:o.ticks_per_slot;
      let words = Nic.drain_tx (Cluster.nic c who) in
      Array.iter
        (fun link ->
          if Link.src link = who then
            List.iter (fun w -> Link.send link ~now:o.now w) words)
        (Cluster.links c));
    o.now <- o.now + 1;
    Array.iter
      (fun link ->
        List.iter
          (fun w -> ignore (Nic.deliver (Cluster.nic c (Link.dst link)) w))
          (Link.due link ~now:o.now))
      (Cluster.links c)

  let run o ~steps =
    for _ = 1 to steps do
      step o
    done
end

(* What the oracle and the stepper are compared on: the step and idle
   slot counts, every node's machine digest (registers and RAM), every
   NIC's queues and counters, and every link's counters and
   occupancy. *)
let fingerprint ~steps ~skipped c =
  let node i =
    let nic = Cluster.nic c i in
    let s = Nic.stats nic in
    Printf.sprintf "node %d %s tx=%d rx=%d/%d/%d hwm=%d pending=%d/%d" i
      (Ssx.Snapshot.digest (Ssx.Snapshot.capture (Cluster.machine c i)))
      s.Nic.tx_words s.Nic.rx_delivered s.Nic.rx_dropped s.Nic.rx_read
      s.Nic.rx_hwm (Nic.pending_rx nic) (Nic.pending_tx nic)
  in
  let link l =
    Printf.sprintf "link %d->%d sent=%d delivered=%d dropped=%d corrupted=%d \
                    in-flight=%d"
      (Link.src l) (Link.dst l) (Link.sent l) (Link.delivered l)
      (Link.dropped l) (Link.corrupted l) (Link.in_flight l)
  in
  String.concat "\n"
    ((Printf.sprintf "steps=%d skipped=%d" steps skipped
     :: List.init (Cluster.size c) node)
    @ Array.to_list (Array.map link (Cluster.links c)))

let stepped c =
  fingerprint ~steps:(Cluster.steps c) ~skipped:(Cluster.skipped_slots c) c

let scanned (o : Scan.t) =
  fingerprint ~steps:o.Scan.now ~skipped:o.Scan.skipped o.Scan.cluster

(* --- the stepper against the oracle ---------------------------------- *)

let lossy_faults ~src:_ ~dst:_ = Link.lossy ~drop:0.15 ~max_delay:2 ()

(* Each (name, n, edges) triple is a topology the stepper must
   reproduce bit-exactly.  The guests always run the ring protocol; for
   the non-ring shapes only deterministic traffic matters. *)
let diff_topologies =
  [ ("ring", 8, Cluster.ring_edges ~n:8);
    ("star", 8, Cluster.star_edges ~n:8);
    ("torus", 9, Cluster.torus_edges ~rows:3 ~cols:3);
    ("random", 8, Cluster.random_edges ~n:8 ~degree:3 ~seed:0xD1CEL) ]

let policy_label = function
  | Cluster.Round_robin -> "rr"
  | Cluster.Fair_random -> "fair"
  | Cluster.Daemon d -> d.Ssx_stab.Adversary.name

let test_sharded_digest_matrix () =
  (* Acceptance: the scan oracle vs shards 1/2/4/8, every topology,
     every policy — the built-ins and the adversarial daemons — with
     lossy links throughout: identical fingerprints.  The pure daemons
     replay on every shard like the built-ins; the stateful adaptive
     adversary exercises the forced one-shard fallback. *)
  let ring8 = Cluster.ring_edges ~n:8 in
  let configs =
    List.concat_map
      (fun (name, n, edges) ->
        List.map
          (fun policy -> (name, n, edges, policy, Some lossy_faults))
          [ Cluster.Round_robin; Cluster.Fair_random ])
      diff_topologies
    @ [ ("ring-benign", 8, ring8, Cluster.Round_robin, None);
        ( "ring",
          8,
          ring8,
          Cluster.Daemon (Ssx_stab.Adversary.starve ~victim:2 ()),
          Some lossy_faults );
        ( "ring",
          8,
          ring8,
          Cluster.Daemon
            (Ssx_stab.Adversary.crash ~victim:5 ~down_from:100 ~down_for:120
               ()),
          Some lossy_faults );
        ( "ring",
          8,
          ring8,
          Cluster.Daemon (Ssx_stab.Adversary.adaptive ~k:Net_ring.k ()),
          Some lossy_faults ) ]
  in
  List.iter
    (fun (name, n, edges, policy, faults) ->
      let build () =
        Net_ring.build ~n ~policy ~latency:4 ~edges ?faults ~seed:81L ()
      in
      let reference =
        let oracle = Scan.create ~seed:81L (build ()) in
        Scan.run oracle ~steps:400;
        scanned oracle
      in
      List.iter
        (fun shards ->
          let ring = build () in
          Cluster.run_sharded ~shards ring.Net_ring.cluster ~steps:400;
          Helpers.check_string
            (Printf.sprintf "%s/%s: oracle = shards:%d" name
               (policy_label policy) shards)
            reference
            (stepped ring.Net_ring.cluster))
        [ 1; 2; 4; 8 ])
    configs

let test_sharded_snapshot_mid_horizon () =
  (* Capture after a sharded run whose last window was partial (95 is
     not a multiple of the horizon 7), then show the same continuation
     comes out of a sharded run and a one-shard run from the restored
     point, and out of the oracle run straight through. *)
  let build () =
    Net_ring.build ~n:6 ~latency:8 ~faults:lossy_faults ~seed:82L ()
  in
  let ring = build () in
  Cluster.run_sharded ~shards:4 ring.Net_ring.cluster ~steps:95;
  let snap = Cluster.capture ring.Net_ring.cluster in
  Cluster.run_sharded ~shards:2 ring.Net_ring.cluster ~steps:101;
  let sharded = stepped ring.Net_ring.cluster in
  Cluster.restore ring.Net_ring.cluster snap;
  Cluster.run_sharded ring.Net_ring.cluster ~steps:101;
  Helpers.check_string
    "mid-horizon snapshot: shards:2 and shards:1 continuations agree"
    sharded (stepped ring.Net_ring.cluster);
  let oracle = Scan.create ~seed:82L (build ()) in
  Scan.run oracle ~steps:196;
  Helpers.check_string "mid-horizon snapshot: the oracle agrees" sharded
    (scanned oracle)

let test_observe_matches_oracle () =
  (* The sample stream rebuilt from the stepper's log equals the
     oracle's, sampled after every step, and the cluster it leaves is
     the oracle's. *)
  let build () =
    Net_ring.build ~n:5 ~policy:Cluster.Fair_random ~latency:4
      ~faults:lossy_faults ~seed:83L ()
  in
  let ring = build () in
  let oracle = Scan.create ~seed:83L ring in
  let reference =
    List.init 300 (fun _ ->
        Scan.step oracle;
        { Ssx_stab.Distributed.step = oracle.Scan.now;
          states = Net_ring.states ring })
  in
  let ring = build () in
  check_bool "samples identical" true
    (Net_ring.observe ring ~steps:300 = reference);
  Helpers.check_string "oracle = cluster after observe" (scanned oracle)
    (stepped ring.Net_ring.cluster)

let test_convergence_step_matches_oracle () =
  (* run_until_legitimate returns the oracle's exact first legitimate
     step, and the cluster it leaves behind, past that step to the end
     of its chunk, is the oracle's at the same step. *)
  let build () = Net_ring.build ~n:4 ~latency:4 ~seed:84L () in
  let corrupt ring = Net_ring.corrupt (Rng.create 0xABBAL) ring in
  let ring = build () in
  let oracle = Scan.create ~seed:84L ring in
  Scan.run oracle ~steps:200;
  corrupt ring;
  let rec first_legitimate taken =
    if taken >= 4_000 then None
    else begin
      Scan.step oracle;
      if Net_ring.legitimate ring then Some (taken + 1)
      else first_legitimate (taken + 1)
    end
  in
  let expected = first_legitimate 0 in
  check_bool "the oracle converged" true (expected <> None);
  let stepper = build () in
  let c = stepper.Net_ring.cluster in
  Cluster.run_sharded c ~steps:200;
  corrupt stepper;
  check_bool "same first legitimate step" true
    (Net_ring.run_until_legitimate stepper ~limit:4_000 = expected);
  Scan.run oracle ~steps:(Cluster.steps c - oracle.Scan.now);
  Helpers.check_string "oracle = cluster after the search" (scanned oracle)
    (stepped c)

let test_converge_moves_matches_oracle () =
  (* converge_moves rebuilds each step's joint state from the stepper's
     log, in latency-sized chunks; here the oracle is sampled directly
     after every step and its projected moves classified by Dijkstra's
     rule.  The traces must agree exactly under a daemon with idle
     slots (a crashed node's steps log nothing) and under the stateful
     adaptive daemon, and the cluster left at its chunk end must be the
     oracle's at the same step. *)
  let k = Net_ring.k in
  let oracle_trace oracle ring ~limit =
    let n = ring.Net_ring.n in
    let proj () = Array.map (fun w -> w mod k) (Net_ring.states ring) in
    let total = ref 0 and off = ref 0 and tail = ref 0 in
    let rec walk prev taken =
      if taken >= limit then None
      else begin
        Scan.step oracle;
        let next = proj () in
        for i = 0 to n - 1 do
          if next.(i) <> prev.(i) then begin
            incr total;
            let pred = prev.((i + n - 1) mod n) in
            let fired =
              if i = 0 then prev.(0) = pred && next.(0) = (pred + 1) mod k
              else prev.(i) <> pred && next.(i) = pred
            in
            if fired then incr tail
            else begin
              incr off;
              tail := 0
            end
          end
        done;
        if Net_ring.legitimate ring then Some (taken + 1)
        else walk next (taken + 1)
      end
    in
    let converged = walk (proj ()) 0 in
    { Net_ring.converged;
      total_moves = !total;
      off_model_moves = !off;
      tail_moves = !tail }
  in
  List.iter
    (fun daemon ->
      let label what =
        Printf.sprintf "%s: %s" daemon.Ssx_stab.Adversary.name what
      in
      let build () =
        Net_ring.build ~n:5 ~policy:(Cluster.Daemon daemon) ~latency:4
          ~faults:lossy_faults ~seed:88L ()
      in
      let corrupt ring = Net_ring.corrupt (Rng.create 0x5EEDL) ring in
      let oracle_ring = build () in
      let oracle = Scan.create ~seed:88L oracle_ring in
      Scan.run oracle ~steps:200;
      corrupt oracle_ring;
      let expected = oracle_trace oracle oracle_ring ~limit:6_000 in
      check_bool (label "the oracle converged") true
        (expected.Net_ring.converged <> None);
      let ring = build () in
      let c = ring.Net_ring.cluster in
      Cluster.run_sharded c ~steps:200;
      corrupt ring;
      let idle_before = Cluster.skipped_slots c in
      let trace = Net_ring.converge_moves ~limit:6_000 ring in
      check_bool (label "same converged step") true
        (trace.Net_ring.converged = expected.Net_ring.converged);
      check_int (label "total moves") expected.Net_ring.total_moves
        trace.Net_ring.total_moves;
      check_int (label "off-model moves") expected.Net_ring.off_model_moves
        trace.Net_ring.off_model_moves;
      check_int (label "tail moves") expected.Net_ring.tail_moves
        trace.Net_ring.tail_moves;
      if not daemon.Ssx_stab.Adversary.stateful then
        check_bool (label "idle slots during the walk") true
          (Cluster.skipped_slots c > idle_before);
      Scan.run oracle ~steps:(Cluster.steps c - oracle.Scan.now);
      Helpers.check_string (label "oracle = cluster after the walk")
        (scanned oracle) (stepped c))
    [ Ssx_stab.Adversary.crash ~period:90 ~down_from:200 ~down_for:30
        ~victim:3 ();
      Ssx_stab.Adversary.adaptive ~k ~table:(Ssx_stab.Model.analyze ~n:5 ~k) () ]

let test_raise_refuses_until_restore () =
  (* A node that raises mid-run leaves the cluster partially stepped:
     some nodes ran further than the step counter says.  Every later
     run must refuse until a snapshot is restored, and the restored
     cluster must then run exactly as the oracle does.  The fuse is a
     device on node 2 that raises once, on node 2's 1,000th tick (its
     20th slot, about step 78 of 440). *)
  let build () =
    Net_ring.build ~n:4 ~latency:4 ~faults:lossy_faults ~seed:86L ()
  in
  List.iter
    (fun shards ->
      let label what = Printf.sprintf "shards:%d: %s" shards what in
      let ring = build () in
      let c = ring.Net_ring.cluster in
      let node = Cluster.machine c 2 in
      let armed = ref true in
      Ssx.Machine.add_device node
        (Ssx.Device.make ~name:"fuse"
           ~tick:(fun _ ->
             if !armed && Ssx.Machine.ticks node >= 1_000 then begin
               armed := false;
               failwith "fuse"
             end)
           ());
      Cluster.run_sharded ~shards c ~steps:40;
      let snap = Cluster.capture c in
      (match Cluster.run_sharded ~shards c ~steps:400 with
      | () -> Alcotest.fail (label "the fuse did not blow")
      | exception Failure _ -> ());
      let refused what f =
        match f () with
        | () -> Alcotest.fail (label (what ^ " accepted a broken cluster"))
        | exception Invalid_argument _ -> ()
      in
      refused "run_sharded" (fun () ->
          Cluster.run_sharded ~shards c ~steps:100);
      refused "observe" (fun () -> ignore (Net_ring.observe ring ~steps:10));
      refused "capture" (fun () -> ignore (Cluster.capture c));
      Cluster.restore c snap;
      Cluster.run_sharded ~shards c ~steps:400;
      let oracle = Scan.create ~seed:86L (build ()) in
      Scan.run oracle ~steps:440;
      Helpers.check_string (label "restored run = oracle") (scanned oracle)
        (stepped c))
    [ 1; 2 ]

(* Pop the hub's RX queue through its RX port, as its guest would. *)
let read_rx ring i =
  let c = ring.Net_ring.cluster in
  let nic = Cluster.nic c i in
  let io = (Ssx.Machine.cpu (Cluster.machine c i)).Ssx.Cpu.io in
  let words = ref [] in
  while Nic.pending_rx nic > 0 do
    words :=
      io.Ssx.Cpu.io_in (Nic.rx_port nic) Ssx.Instruction.Word_ :: !words
  done;
  List.rev !words

let test_shared_destination_delivery_order () =
  (* Due messages reach a shared destination links in creation order.
     A starved hub never reads its RX queue, so the queue keeps the
     exact interleaving of the five spokes' streams; jitter makes
     several links come due in the same step.  Spoke i is set to send
     the word i, so the interleaving shows in the words themselves,
     which no node digest covers. *)
  let n = 6 in
  let build () =
    Net_ring.build ~n ~edges:(Cluster.star_edges ~n)
      ~policy:(Cluster.Daemon (Ssx_stab.Adversary.starve ~victim:0 ()))
      ~capacity:64 ~latency:4
      ~faults:(fun ~src:_ ~dst:_ -> Link.lossy ~max_delay:3 ())
      ~seed:87L ()
  in
  (* [runner ring] is the stepping function under test for [ring]. *)
  let hub_stream runner =
    let ring = build () in
    let run = runner ring in
    run 1_200;
    ignore (read_rx ring 0);
    for i = 1 to n - 1 do
      Net_ring.corrupt_state ring i i;
      Net_ring.corrupt_view ring i i
    done;
    run 60;
    read_rx ring 0
  in
  let reference =
    hub_stream (fun ring ->
        let oracle = Scan.create ~seed:87L ring in
        fun steps -> Scan.run oracle ~steps)
  in
  check_bool "every spoke's word reached the hub" true
    (List.for_all (fun i -> List.mem i reference) [ 1; 2; 3; 4; 5 ]);
  List.iter
    (fun shards ->
      check_bool
        (Printf.sprintf "hub RX stream: oracle = shards:%d" shards)
        true
        (hub_stream (fun ring steps ->
             Cluster.run_sharded ~shards ring.Net_ring.cluster ~steps)
        = reference))
    [ 1; 2; 4 ]

(* One random cluster scenario: topology, size, latency, policy, link
   faults and shard count, run by the oracle and by the stepper. *)
type scenario = {
  topology : string;
  n : int;
  edges : (int * int) list;
  latency : int;
  policy : Cluster.policy;
  lossy : bool;
  shards : int;
  steps : int;
  seed : int64;
}

let gen_scenario =
  let open QCheck.Gen in
  let* topology = oneofl [ "ring"; "star"; "torus"; "random" ] in
  let* n, edges =
    match topology with
    | "torus" ->
      let* rows = int_range 2 3 in
      let+ cols = int_range 2 (9 / rows) in
      (rows * cols, Cluster.torus_edges ~rows ~cols)
    | "random" ->
      let* n = int_range 3 9 in
      let* degree = int_range 1 (min 3 (n - 1)) in
      let+ seed = int_bound 0xFFFF in
      (n, Cluster.random_edges ~n ~degree ~seed:(Int64.of_int seed))
    | "star" ->
      let+ n = int_range 3 9 in
      (n, Cluster.star_edges ~n)
    | _ ->
      let+ n = int_range 3 9 in
      (n, Cluster.ring_edges ~n)
  in
  let* policy =
    let* victim = int_bound (n - 1) in
    let* down_from = int_bound 150 and* down_for = int_range 1 150 in
    oneofl
      [ Cluster.Round_robin;
        Cluster.Fair_random;
        Cluster.Daemon (Ssx_stab.Adversary.starve ~victim ());
        Cluster.Daemon
          (Ssx_stab.Adversary.crash ~victim ~down_from ~down_for ()) ]
  in
  let* latency = int_range 1 8 and* lossy = bool and* shards = int_range 1 4 in
  let+ steps = int_range 100 300 and+ seed = int_bound 0xFFFFFF in
  { topology; n; edges; latency; policy; lossy; shards; steps;
    seed = Int64.of_int seed }

let print_scenario s =
  Printf.sprintf "%s n=%d latency=%d policy=%s %s shards=%d steps=%d seed=%Ld"
    s.topology s.n s.latency (policy_label s.policy)
    (if s.lossy then "lossy" else "benign")
    s.shards s.steps s.seed

let prop_stepper_matches_oracle =
  QCheck.Test.make ~count:25 ~name:"stepper = scan oracle on random scenarios"
    (QCheck.make ~print:print_scenario gen_scenario)
    (fun s ->
      let build () =
        let faults ~src:_ ~dst:_ =
          if s.lossy then
            Link.lossy ~drop:0.15 ~duplicate:0.05 ~max_delay:3 ~corrupt:0.05 ()
          else Link.benign ()
        in
        Net_ring.build ~n:s.n ~edges:s.edges ~latency:s.latency
          ~policy:s.policy ~faults ~seed:s.seed ()
      in
      let oracle = Scan.create ~seed:s.seed (build ()) in
      Scan.run oracle ~steps:s.steps;
      let ring = build () in
      Cluster.run_sharded ~shards:s.shards ring.Net_ring.cluster ~steps:s.steps;
      scanned oracle = stepped ring.Net_ring.cluster)

(* --- sparse topologies ----------------------------------------------- *)

let degrees ~n edges =
  let out = Array.make n 0 and in_ = Array.make n 0 in
  List.iter
    (fun (s, d) ->
      out.(s) <- out.(s) + 1;
      in_.(d) <- in_.(d) + 1)
    edges;
  (out, in_)

let reachable ~n edges ~from =
  let adj = Array.make n [] in
  List.iter (fun (s, d) -> adj.(s) <- d :: adj.(s)) edges;
  let seen = Array.make n false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter visit adj.(i)
    end
  in
  visit from;
  Array.for_all Fun.id seen

let test_torus_topology () =
  let rows = 4 and cols = 5 in
  let n = rows * cols in
  let edges = Cluster.torus_edges ~rows ~cols in
  let out, in_ = degrees ~n edges in
  check_bool "out-degree 4 everywhere" true (Array.for_all (( = ) 4) out);
  check_bool "in-degree 4 everywhere" true (Array.for_all (( = ) 4) in_);
  check_bool "no self loops" true (List.for_all (fun (s, d) -> s <> d) edges);
  check_bool "strongly connected" true
    (List.for_all (fun from -> reachable ~n edges ~from) (List.init n Fun.id));
  (* 2-wide dimensions deduplicate the wraparound pair. *)
  let out2, _ = degrees ~n:6 (Cluster.torus_edges ~rows:2 ~cols:3) in
  check_bool "rows=2 dedupes to out-degree 3" true
    (Array.for_all (( = ) 3) out2)

let test_random_topology () =
  let n = 32 and degree = 4 in
  let edges = Cluster.random_edges ~n ~degree ~seed:0xFEEDL in
  let out, _ = degrees ~n edges in
  check_bool "exact out-degree" true (Array.for_all (( = ) degree) out);
  check_bool "no self loops" true (List.for_all (fun (s, d) -> s <> d) edges);
  check_int "no duplicate edges" (List.length edges)
    (List.length (List.sort_uniq compare edges));
  check_bool "strongly connected" true
    (List.for_all (fun from -> reachable ~n edges ~from) (List.init n Fun.id));
  check_bool "deterministic in the seed" true
    (edges = Cluster.random_edges ~n ~degree ~seed:0xFEEDL);
  check_bool "seed changes the graph" true
    (edges <> Cluster.random_edges ~n ~degree ~seed:0xBEEFL)

let test_random_topology_properties () =
  (* Across small sizes, degrees and many seeds, every draw must be a
     simple strongly connected digraph.  Out-degree is [>= degree], not
     [=]: disconnected degree-1 draws are repaired by adding
     ring-successor edges, which can only raise degrees. *)
  for n = 4 to 12 do
    for degree = 1 to 3 do
      for seed = 1 to 20 do
        let label = Printf.sprintf "n=%d degree=%d seed=%d" n degree seed in
        let edges =
          Cluster.random_edges ~n ~degree
            ~seed:(Int64.of_int ((n * 1000) + (degree * 100) + seed))
        in
        let out, _ = degrees ~n edges in
        check_bool (label ^ ": out-degree covers the request") true
          (Array.for_all (fun d -> d >= degree) out);
        check_bool (label ^ ": no self loops") true
          (List.for_all (fun (s, d) -> s <> d) edges);
        check_int (label ^ ": no duplicate edges") (List.length edges)
          (List.length (List.sort_uniq compare edges));
        check_bool (label ^ ": strongly connected") true
          (List.for_all
             (fun from -> reachable ~n edges ~from)
             (List.init n Fun.id))
      done
    done
  done

let test_cluster_counts () =
  (* One labelled row per link count and per node NIC count, summing
     to the link totals; the cluster counts no node machine (the
     systems on the nodes do). *)
  let ring = Net_ring.build ~n:4 ~faults:lossy_faults ~seed:85L () in
  Cluster.run_sharded ring.Net_ring.cluster ~steps:500;
  let counts = Cluster.counts ring.Net_ring.cluster in
  let links = Cluster.links ring.Net_ring.cluster in
  let total base =
    List.fold_left
      (fun acc (name, v) ->
        if String.starts_with ~prefix:(base ^ "{id=") name then acc + v else acc)
      0 counts
  in
  let sum read = Array.fold_left (fun acc l -> acc + read l) 0 links in
  check_int "total sent" (sum Link.sent) (total "net.link.sent");
  check_int "total dropped" (sum Link.dropped) (total "net.link.dropped");
  check_int "total delivered" (sum Link.delivered) (total "net.link.delivered");
  check_bool "the lossy links dropped something" true (sum Link.dropped > 0);
  check_int "one row per link count and NIC count, plus the steps"
    ((4 * Array.length links) + (4 * 4) + 1)
    (List.length counts);
  check_bool "no machine rows" true
    (List.for_all
       (fun (name, _) -> not (String.starts_with ~prefix:"machine." name))
       counts);
  check_bool "steps" true (List.assoc "net.cluster.steps" counts = 500);
  check_bool "link rows are labelled src->dst" true
    (List.mem_assoc
       (Printf.sprintf "net.link.sent{id=%d->%d}" (Link.src links.(0))
          (Link.dst links.(0)))
       counts)

(* A T14/T15-style campaign in miniature: lossy links, joint
   corruption plus a message-fault phase that mutates the link fault
   models mid-trial (so snapshot reset must restore that too). *)
let campaign_build () =
  Net_ring.build ~n:3 ~seed:61L
    ~faults:(fun ~src:_ ~dst:_ -> Link.lossy ~drop:0.1 ~max_delay:2 ())
    ()

let campaign_perturb rng ring =
  Net_ring.corrupt rng ring;
  let links = Cluster.links ring.Net_ring.cluster in
  Array.iter (fun l -> (Link.faults l).Link.drop <- 0.5) links;
  Cluster.run_sharded ring.Net_ring.cluster ~steps:50;
  Array.iter (fun l -> (Link.faults l).Link.drop <- 0.1) links

let campaign ~jobs () =
  Ssos_experiments.Runner.summarize
    (Ssos_experiments.Runner.ring_campaign ~build:campaign_build
       ~perturb:campaign_perturb ~warmup:150 ~horizon:1_500 ~window:500
       ~oversubscribe:true ~jobs ~trials:6 ~seed:71L ())

let test_campaign_jobs_invariance () =
  (* Acceptance: the same campaign is bit-identical under jobs:1 and
     jobs:4 — parallelism lives across trials only. *)
  let one = campaign ~jobs:1 () in
  let four = campaign ~jobs:4 () in
  check_bool "summary identical for jobs:1 and jobs:4" true (one = four);
  check_int "every trial judged" 6 one.Ssos_experiments.Runner.trials

let test_campaign_rebuild_oracle () =
  (* Acceptance: rebuilding per trial (the oracle) and restoring a
     cluster snapshot per trial produce the same summary — T14/T15 are
     reproducible under snapshot reset. *)
  let rebuild =
    Ssos_experiments.Runner.summarize
      (Rebuild.campaign ~trials:6 ~seed:71L
         (Rebuild.ring ~build:campaign_build ~perturb:campaign_perturb
            ~warmup:150 ~horizon:1_500 ~window:500))
  in
  check_bool "summary identical for rebuild and snapshot reset" true
    (rebuild = campaign ~jobs:3 ())

let test_campaign_obs_invariance () =
  (* Cluster digests and campaign summaries are bit-identical with
     metrics on or off: counting is always on, and nothing on the
     send/deliver path consumes extra randomness. *)
  let module Obs = Ssos_obs.Obs in
  Obs.reset ();
  Obs.set_enabled false;
  let off = campaign ~jobs:2 () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let on_ = campaign ~jobs:2 () in
      check_bool "summary identical with metrics on" true (off = on_);
      Obs.reset ();
      let ring = Net_ring.build ~n:3 ~seed:61L () in
      Cluster.run_sharded ring.Net_ring.cluster ~steps:400;
      Obs.publish (Net_ring.counts ring);
      (* The published per-link rows agree with the link counters. *)
      let rows = (Obs.snapshot ()).Obs.rows in
      let counter name =
        match
          List.find_opt (fun (r : Obs.row) -> r.Obs.name = name) rows
        with
        | Some { Obs.value = Obs.Counter v; _ } -> v
        | Some _ | None -> Alcotest.failf "no counter %s" name
      in
      let link = (Cluster.links ring.Net_ring.cluster).(0) in
      let row stat =
        Printf.sprintf "net.link.%s{id=%d->%d}" stat (Link.src link) (Link.dst link)
      in
      check_int "sent row tracks the link" (Link.sent link) (counter (row "sent"));
      check_int "delivered row tracks the link" (Link.delivered link)
        (counter (row "delivered"));
      check_int "cluster step row" 400 (counter "net.cluster.steps");
      check_int "node machines are labelled"
        (Ssx.Machine.tick_counters (Cluster.machine ring.Net_ring.cluster 1))
          .Ssx.Tick_counters.ticks
        (counter "machine.ticks{id=node1}");
      (* Word conservation: everything submitted was delivered, dropped
         or is still in flight (corruption garbles, it never consumes). *)
      Array.iter
        (fun l ->
          check_int "sent = delivered + dropped + in-flight" (Link.sent l)
            (Link.delivered l + Link.dropped l + Link.in_flight l))
        (Cluster.links ring.Net_ring.cluster))

let suite =
  [ case "nic: guest port I/O" test_nic_guest_io;
    case "nic: bounded RX queue drops and counts" test_nic_overflow;
    case "nic: RX high-water mark and drop counts" test_nic_hwm_and_drops;
    case "nic: empty RX reads zero" test_nic_empty_rx_reads_zero;
    case "nic: RX interrupt" test_nic_rx_interrupt;
    case "nic: snapshot round-trip" test_nic_snapshot_roundtrip;
    case "snapshot refuses late-attached devices" test_late_attached_device_refused;
    case "link: FIFO under delay jitter" test_link_fifo_under_jitter;
    case "link: seeded faults are deterministic" test_link_faults_deterministic;
    case "link: at least one step of latency" test_link_never_delivers_same_step;
    case "link: capture restores the fault phase" test_link_capture_restores_fault_phase;
    case "ring guest: 16-byte replay blocks" test_ring_guest_blocks;
    case "ring: fault-free run stays legal" test_ring_fault_free_stays_legal;
    case "ring: the token circulates" test_ring_token_circulates;
    case "cluster: deterministic execution" test_cluster_determinism;
    case "ring: converges from 24 joint corruptions" test_ring_converges_from_corruption;
    case "ring: converges under lossy links" test_ring_converges_under_lossy_links;
    case "cluster: snapshot reset reproduces continuations" test_cluster_snapshot_reset;
    case "corrupt: the hand loop's draws, in its order" test_corrupt_draw_order;
    case "sharded: digest matrix vs sequential" test_sharded_digest_matrix;
    case "sharded: mid-horizon snapshot round-trip" test_sharded_snapshot_mid_horizon;
    case "observe: samples match the oracle's" test_observe_matches_oracle;
    case "run_until_legitimate: the oracle's first legitimate step"
      test_convergence_step_matches_oracle;
    case "converge_moves: trace matches the oracle's"
      test_converge_moves_matches_oracle;
    case "stepper: a raising node refuses runs until restore"
      test_raise_refuses_until_restore;
    case "stepper: delivery order at a shared destination"
      test_shared_destination_delivery_order;
    case "topology: torus degree and connectivity" test_torus_topology;
    case "topology: random graph degree and connectivity" test_random_topology;
    case "topology: random graphs are simple and connected across seeds"
      test_random_topology_properties;
    case "cluster counts: labelled rows sum to the link totals"
      test_cluster_counts;
    case "campaign: bit-identical across jobs" test_campaign_jobs_invariance;
    case "campaign: snapshot reset against rebuild oracle"
      test_campaign_rebuild_oracle;
    case "campaign: bit-identical with metrics on; rows published"
      test_campaign_obs_invariance ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_stepper_matches_oracle ]
