(* lib/rsm — the self-stabilizing replicated key-value service: clean
   traffic linearizes, the protocol reconverges from arbitrary replica
   state, the judge is not vacuous, snapshots round-trip mid-protocol,
   and the acceptance matrix (seeds x drop rates, with machine faults)
   recovers and serves. *)

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

module Service = Ssos_rsm.Service
module Workload = Ssos_rsm.Workload
module Wire = Ssos_rsm.Wire
module Cluster = Ssos_net.Cluster
module Distributed = Ssx_stab.Distributed
module Convergence = Ssx_stab.Convergence
module Rng = Ssx_faults.Rng
module Runner = Ssos_experiments.Runner
module Nic = Ssos_net.Nic
module Scan = Test_net.Scan

(* --- clean traffic --------------------------------------------------- *)

let test_clean_traffic_linearizes () =
  let service = Service.build ~n:5 ~seed:3L () in
  Cluster.run_sharded service.Service.cluster ~steps:400;
  check_bool "warmed-up service is legitimate" true (Service.legitimate service);
  let w = Workload.open_loop ~rate:0.08 ~slots:80 ~seed:5L service in
  let init = Array.copy (Service.kv service 0) in
  Workload.run w ~steps:2_000;
  check_bool "requests injected" true (Workload.injected w > 0);
  check_int "nothing dropped at the client NICs" 0 (Workload.dropped w);
  check_int "every accepted request commits" (Workload.injected w)
    (Workload.committed w);
  check_bool "responses linearize against the pre-serve store" true
    (Distributed.linearizable ~init ~ops:(Workload.ops w) = None);
  (* And the serve phase left the replicas coherent again. *)
  check_bool "stores coherent after serving" true
    (Distributed.coherent ~kvs:(Service.kvs service))

(* --- convergence from arbitrary state -------------------------------- *)

let test_converges_from_arbitrary_state () =
  List.iter
    (fun seed ->
      let service =
        Service.build ~n:5 ~seed:(Rng.derive seed 1) ()
      in
      Cluster.run_sharded service.Service.cluster ~steps:400;
      let rng = Rng.create (Rng.derive seed 2) in
      Service.corrupt rng service;
      let faults_end = Cluster.steps service.Service.cluster in
      let samples = Service.observe service ~steps:2_500 in
      let verdict =
        Distributed.rsm_judge ~window:400 ~samples
          ~end_step:(Cluster.steps service.Service.cluster)
      in
      let label = Printf.sprintf "seed %Ld" seed in
      check_bool (label ^ ": converged") true (Convergence.converged verdict);
      match Convergence.recovery_time ~faults_end verdict with
      | Some t -> check_bool (label ^ ": recovery time sane") true (t >= 0)
      | None -> Alcotest.failf "%s: no recovery time" label)
    [ 21L; 22L; 23L ]

(* --- the linearizability judge is not vacuous ------------------------- *)

let test_judge_rejects_stale_read () =
  let init = Array.make Wire.keys 0 in
  let put v = { Distributed.is_put = true; key = 0; value = v } in
  let get v = { Distributed.is_put = false; key = 0; value = v } in
  check_bool "fresh read accepted" true
    (Distributed.linearizable ~init ~ops:[ put 5; get 5 ] = None);
  (* A get that returns the pre-put value after the put was served is a
     stale read; the judge must name the offending index. *)
  check_bool "stale read flagged at its index" true
    (Distributed.linearizable ~init ~ops:[ put 5; get 0 ] = Some 1);
  check_bool "phantom write flagged" true
    (Distributed.linearizable ~init ~ops:[ get 9 ] = Some 0)

(* --- snapshot round-trip mid-protocol --------------------------------- *)

let test_snapshot_roundtrip_mid_protocol () =
  let service = Service.build ~n:5 ~seed:11L () in
  Cluster.run_sharded service.Service.cluster ~steps:400;
  (* Park the protocol mid-flight: dense traffic, stopped at an
     arbitrary step, with frames and responses still in the queues. *)
  let w0 = Workload.open_loop ~rate:0.2 ~slots:30 ~seed:12L service in
  Workload.run w0 ~steps:137;
  let snapshot = Cluster.capture service.Service.cluster in
  let run_phase () =
    let w = Workload.open_loop ~rate:0.1 ~slots:60 ~seed:13L service in
    Workload.discard w;
    Workload.run w ~steps:800;
    (Workload.responses w, Cluster.digest service.Service.cluster)
  in
  let responses1, digest1 = run_phase () in
  check_bool "mid-protocol phase served something" true (responses1 <> []);
  Cluster.restore service.Service.cluster snapshot;
  let responses2, digest2 = run_phase () in
  check_bool "responses identical after restore" true
    (responses1 = responses2);
  check_bool "digest identical after restore" true (digest1 = digest2)

(* --- the one arbitrary start ------------------------------------------ *)

(* Service.corrupt against the hand loop it replaced: node by node the
   counter, the view, then key by key the store word and its tag.  The
   same words land in the same cells and the rng is left at the same
   point. *)
let test_corrupt_draw_order () =
  let build () = Service.build ~n:4 ~seed:17L () in
  let hand = build () and one = build () in
  let hand_rng = Rng.create 0xC0DEL and one_rng = Rng.create 0xC0DEL in
  for i = 0 to hand.Service.n - 1 do
    Service.corrupt_state hand i (Rng.int hand_rng 0x10000);
    Service.corrupt_view hand i (Rng.int hand_rng 0x10000);
    for key = 0 to Wire.keys - 1 do
      Service.corrupt_kv hand i key (Rng.int hand_rng 0x10000);
      Service.corrupt_tag hand i key (Rng.int hand_rng 0x10000)
    done
  done;
  Service.corrupt one_rng one;
  let tags t =
    Array.init t.Service.n (fun i ->
        let mem = Ssx.Machine.memory (Cluster.machine t.Service.cluster i) in
        Array.init Wire.keys (fun key ->
            Ssx.Memory.read_word mem (Ssos_rsm.Replica.seent_addr key)))
  in
  check_bool "stores corrupted" true
    (Array.exists (Array.exists (fun v -> v > 0xff)) (Service.kvs hand));
  check_bool "same counters" true (Service.states one = Service.states hand);
  check_bool "same views" true (Service.views one = Service.views hand);
  check_bool "same stores" true (Service.kvs one = Service.kvs hand);
  check_bool "same tags" true (tags one = tags hand);
  check_bool "rng left at the same point" true
    (Rng.next_int64 one_rng = Rng.next_int64 hand_rng)

(* --- the observers against the scan oracle ----------------------------- *)

(* A service the scan oracle can drive: fair-random scheduling, lossy
   links, latency 2, and its client NICs.  [oracle] steps it from step
   0 with the daemons' abstract state read as Service registers it. *)
let oracle_ticks = 600

let oracle_build () =
  Service.build ~n:5 ~policy:Cluster.Fair_random
    ~ticks_per_slot:oracle_ticks ~latency:2
    ~faults:(fun ~src:_ ~dst:_ -> Ssos_net.Link.lossy ~drop:0.15 ~max_delay:2 ())
    ~seed:92L ()

let oracle (service : Service.t) =
  let cluster = service.Service.cluster in
  Scan.of_cluster ~ticks_per_slot:oracle_ticks ~seed:92L cluster
    ~state:(fun i ->
      Ssx.Memory.read_word (Ssx.Machine.memory (Cluster.machine cluster i))
        Ssos_rsm.Replica.self_addr)

let clients (service : Service.t) =
  Array.map
    (fun c -> (Nic.stats c, Nic.pending_rx c, Nic.pending_tx c))
    service.Service.clients

let test_observe_matches_oracle () =
  (* One put queued at every client NIC after warmup, so the replicas
     serve through the observed steps. *)
  let load (service : Service.t) =
    Array.iteri
      (fun i c ->
        ignore
          (Nic.deliver c
             (Wire.request ~put:true ~rid:1 ~key:(i mod Wire.keys)
                ~value:(0x40 + i))))
      service.Service.clients
  in
  let reference_service = oracle_build () in
  let scan = oracle reference_service in
  Scan.run scan ~steps:400;
  load reference_service;
  let reference =
    List.init 300 (fun _ ->
        Scan.step scan;
        { Distributed.step = scan.Scan.now;
          states = Service.states reference_service;
          kvs = Service.kvs reference_service })
  in
  let service = oracle_build () in
  Cluster.run_sharded service.Service.cluster ~steps:400;
  load service;
  check_bool "samples identical" true
    (Service.observe service ~steps:300 = reference);
  check_bool "a client put was served" true
    (Array.exists (fun (_, _, tx) -> tx > 0) (clients service));
  check_bool "same client NIC queues and counters" true
    (clients service = clients reference_service);
  Helpers.check_string "oracle = cluster after observe" (Test_net.scanned scan)
    (Test_net.stepped service.Service.cluster)

let test_run_until_stable_matches_oracle () =
  (* The oracle's first step of two-part legality after the arbitrary
     start, and the cluster the search leaves behind at its chunk end. *)
  let corrupt service = Service.corrupt (Rng.create 0x5AB1EL) service in
  let reference_service = oracle_build () in
  let scan = oracle reference_service in
  Scan.run scan ~steps:400;
  corrupt reference_service;
  let rec first_stable taken =
    if taken >= 6_000 then None
    else begin
      Scan.step scan;
      if Service.legitimate reference_service then Some (taken + 1)
      else first_stable (taken + 1)
    end
  in
  let expected = first_stable 0 in
  check_bool "the oracle stabilized" true (expected <> None);
  let service = oracle_build () in
  let c = service.Service.cluster in
  Cluster.run_sharded c ~steps:400;
  corrupt service;
  check_bool "same first stable step" true
    (Service.run_until_stable service ~limit:6_000 = expected);
  Scan.run scan ~steps:(Cluster.steps c - scan.Scan.now);
  Helpers.check_string "oracle = cluster after the search"
    (Test_net.scanned scan) (Test_net.stepped c)

(* --- acceptance: seeds x drop rates, with machine faults -------------- *)

let test_recovers_and_serves_under_faults () =
  List.iter
    (fun (seed, drop) ->
      let build () =
        Service.build ~n:5
          ~faults:(fun ~src:_ ~dst:_ ->
            Ssos_net.Link.lossy ~drop ~max_delay:1 ())
          ~seed:(Rng.derive seed 7) ()
      in
      let perturb rng (service : Service.t) =
        (* Four machine faults from the full 5.2 soft-state space,
           spread over random replicas, on top of joint state
           corruption — the T17 fault model in miniature. *)
        for _ = 1 to 4 do
          let i = Rng.int rng service.Service.n in
          let sched = service.Service.systems.(i) in
          ignore
            (Ssx_faults.Fault.apply
               (Ssos.Sched.fault_system sched)
               (Ssx_faults.Fault.random rng (Ssos.Sched.fault_space sched)))
        done;
        Service.corrupt rng service
      in
      let outcome =
        Rebuild.rsm ~build ~perturb ~warmup:400 ~horizon:2_500 ~window:400
          ~rate:0.05 ~serve_steps:1_200 (Rng.derive seed 8)
      in
      let label = Printf.sprintf "seed %Ld drop %.0f%%" seed (100. *. drop) in
      check_bool (label ^ ": recovered") true
        outcome.Runner.base.Runner.recovered;
      check_bool (label ^ ": committed traffic") true
        (outcome.Runner.committed > 0);
      check_bool (label ^ ": linearizable") true outcome.Runner.linearizable)
    [ (101L, 0.0); (102L, 0.15); (103L, 0.3);
      (104L, 0.0); (105L, 0.15); (106L, 0.3);
      (107L, 0.0); (108L, 0.15); (109L, 0.3) ]

let suite =
  [ case "clean traffic commits and linearizes" test_clean_traffic_linearizes;
    case "converges from arbitrary replica state"
      test_converges_from_arbitrary_state;
    case "linearizability judge rejects stale reads"
      test_judge_rejects_stale_read;
    case "snapshot round-trip mid-protocol"
      test_snapshot_roundtrip_mid_protocol;
    case "corrupt: the hand loop's draws, in its order" test_corrupt_draw_order;
    case "observe: samples match the oracle's (client NICs, lossy links)"
      test_observe_matches_oracle;
    case "run_until_stable: the oracle's first stable step"
      test_run_until_stable_matches_oracle;
    case "acceptance: recovery and linearizable serving under faults"
      test_recovers_and_serves_under_faults ]
