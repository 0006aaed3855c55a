(* The continuous-operation engine (lib/serve): bit-identity of the
   closed loop across shard and job counts (the DESIGN.md §4k
   argument), the full execute→observe→detect→repair→verify cycle
   under a background fault process, the open-loop workload against
   the fixed-schedule driver it replaced (kept here as the oracle), and
   the serve.* metric registry. *)

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

module Engine = Ssos_serve.Engine
module Workload = Ssos_rsm.Workload
module Service = Ssos_rsm.Service
module Wire = Ssos_rsm.Wire
module Cluster = Ssos_net.Cluster
module Nic = Ssos_net.Nic
module Rng = Ssx_faults.Rng

(* The fixed-schedule client driver the open-loop source replaced,
   kept as its oracle (as [Scan] keeps the O(links) stepper and
   [Rebuild] the per-trial rebuild): per-node [(slot, word)] schedules
   drawn up front over [slots] slots, delivered by a record hook on the
   public stepper, and the batch multiset matcher that counted
   commits.  Public APIs only. *)
module Fixed = struct
  let schedule ~rate ~n ~slots ~seed =
    Array.init n (fun node ->
        let rng = Rng.create (Rng.derive seed (node + 1)) in
        let rid = ref 0 in
        let acc = ref [] in
        for slot = 1 to slots do
          if Rng.float rng < rate then begin
            let put = Rng.bool rng in
            let key = Rng.int rng Wire.keys in
            let value = if put then Rng.int rng 256 else 0 in
            rid := (!rid mod 15) + 1;
            acc := (slot, Wire.request ~put ~rid:!rid ~key ~value) :: !acc
          end
        done;
        Array.of_list (List.rev !acc))

  type run = {
    injected : int list array;  (* per node, newest first *)
    dropped : int;
    responses : (int * int * int) list;
        (* serve order, consecutive per-node duplicates dropped *)
    slots_run : int array;
  }

  (* After each of node [who]'s slots: deliver its words scheduled up
     to that slot, then drain its client TX queue. *)
  let run (service : Service.t) schedule ~steps =
    let n = service.Service.n in
    let slot = Array.make n 0 and cursor = Array.make n 0 in
    let injected = Array.make n [] and dropped = ref 0 in
    let record _ who =
      slot.(who) <- slot.(who) + 1;
      let sched = schedule.(who) in
      while
        cursor.(who) < Array.length sched
        && fst sched.(cursor.(who)) <= slot.(who)
      do
        let word = snd sched.(cursor.(who)) in
        cursor.(who) <- cursor.(who) + 1;
        if Nic.deliver service.Service.clients.(who) word then
          injected.(who) <- word :: injected.(who)
        else incr dropped
      done;
      Nic.drain_tx service.Service.clients.(who)
    in
    let log = Cluster.run_sharded_log ~record service.Service.cluster ~steps in
    let last = Array.make n 0 in
    let responses = ref [] in
    List.iter
      (fun (step, who, drained) ->
        List.iter
          (fun word ->
            if word <> last.(who) then begin
              last.(who) <- word;
              responses := (step, who, word) :: !responses
            end)
          drained)
      log;
    { injected; dropped = !dropped; responses = List.rev !responses;
      slots_run = slot }

  let injected run =
    Array.fold_left (fun acc words -> acc + List.length words) 0 run.injected

  (* Responses paired 1:1 with injected requests per node, as multisets
     of the echoed (op, id, key) byte, over the whole run. *)
  let matched run =
    let tables =
      Array.map
        (fun words ->
          let table = Hashtbl.create 16 in
          List.iter
            (fun word ->
              let byte = Wire.match_byte word in
              Hashtbl.replace table byte
                (1 + Option.value ~default:0 (Hashtbl.find_opt table byte)))
            words;
          table)
        run.injected
    in
    List.fold_left
      (fun acc (_, who, word) ->
        let table = tables.(who) in
        let byte = Wire.match_byte word in
        match Hashtbl.find_opt table byte with
        | Some count when count > 0 ->
          Hashtbl.replace table byte (count - 1);
          acc + 1
        | Some _ | None -> acc)
      0 run.responses
end

(* Two identically built and warmed services: one for the workload
   under test, one for the oracle. *)
let warmed_service ?policy () =
  let service = Service.build ~n:5 ?policy ~latency:2 ~seed:42L () in
  Cluster.run_sharded service.Service.cluster ~steps:600;
  Array.iter (fun c -> ignore (Nic.drain_tx c)) service.Service.clients;
  service

let serve ~shards ~jobs =
  Engine.serve ~nodes:5 ~rate:0.08 ~fault_rate:0.002 ~duration:1500 ~shards
    ~jobs ~seed:7L ()

(* Tentpole pin: a fixed-duration serve run is bit-identical across
   shard and job counts.  Every host-side action — fault arrivals,
   metric windows, repair pulses — lands at a quiescent epoch boundary
   where the stepper's state is the same for every shard count, so
   neither the shard partition nor the worker-domain count can leak
   into observables. *)
let test_determinism_across_shards_and_jobs () =
  let reference = serve ~shards:1 ~jobs:1 in
  check_bool "traffic flowed" true (reference.Engine.injected > 0);
  check_bool "background faults landed" true
    (reference.Engine.fault_arrivals <> []);
  List.iter
    (fun (shards, jobs) ->
      let s = serve ~shards ~jobs in
      check_bool
        (Printf.sprintf "summary bit-identical at shards=%d jobs=%d" shards
           jobs)
        true (s = reference))
    [ (1, 4); (4, 1); (4, 4) ]

(* The closed loop, end to end: a fault process breaks a window, the
   breach outlasts the patience, the engine escalates to a reset pulse
   (the paper's reinstall-and-restart path), and the incident closes
   only after a verified-healthy window — with the SLO still met over
   the whole run. *)
let test_closed_loop_detects_and_repairs () =
  let s =
    Engine.serve ~nodes:5 ~rate:0.08 ~fault_rate:0.008 ~duration:2400
      ~seed:3L ()
  in
  check_bool "faults landed" true (s.Engine.fault_arrivals <> []);
  check_int "incident detected" 1 s.Engine.detected;
  check_int "incident repaired" 1 s.Engine.repaired;
  check_int "engine escalated to a reset pulse" 1 s.Engine.repairs;
  check_bool "every incident closed by a verified-healthy window" true
    (List.for_all
       (fun (i : Engine.incident) -> i.Engine.closed_at <> None)
       s.Engine.incidents);
  check_bool "per-cause mttr reported" true (s.Engine.mttr <> []);
  check_bool "mttr positive" true
    (List.for_all (fun (m : Engine.mttr) -> m.Engine.mean_steps > 0.) s.Engine.mttr);
  check_bool "availability held above the SLO floor" true
    (s.Engine.availability >= Engine.default_slo.Engine.availability);
  check_bool "final two-part legality re-verified" true s.Engine.final_legal;
  check_bool "slo met" true s.Engine.slo_met

(* Fault-free serve: no detector may fire (in particular the startup
   pipeline-fill transient must not read as an outage), and the run
   must end SLO-clean. *)
let test_fault_free_run_is_clean () =
  let s = Engine.serve ~nodes:5 ~rate:0.08 ~duration:1500 ~seed:7L () in
  check_bool "no arrivals" true (s.Engine.fault_arrivals = []);
  check_int "no incidents detected" 0 s.Engine.detected;
  check_int "no engine resets" 0 s.Engine.repairs;
  check_int "nothing dropped" 0 s.Engine.dropped;
  check_bool "availability near 1 (in-flight tail only)" true
    (s.Engine.availability >= 0.95);
  check_bool "slo met" true s.Engine.slo_met

(* The open-loop source performs exactly the draw sequence of the
   fixed schedule: the same per-node streams, the same per-slot draws.
   Driven from identically warmed services, the open loop and a long
   enough fixed schedule inject the same words and produce the same
   responses, and the streaming commit counter agrees with the batch
   multiset matcher it replaced. *)
let test_open_loop_matches_schedule () =
  let steps = 1_200 in
  let open_wl =
    Workload.open_loop ~rate:0.08 ~seed:9L (warmed_service ())
  in
  Workload.run open_wl ~steps;
  let oracle =
    Fixed.run (warmed_service ())
      (Fixed.schedule ~rate:0.08 ~n:5 ~slots:steps ~seed:9L)
      ~steps
  in
  check_bool "traffic flowed" true (Workload.injected open_wl > 0);
  check_int "same injections" (Fixed.injected oracle)
    (Workload.injected open_wl);
  check_int "same drops" oracle.Fixed.dropped (Workload.dropped open_wl);
  check_bool "same responses" true
    (Workload.responses open_wl = oracle.Fixed.responses);
  check_int "streaming commits equal the batch multiset matching"
    (Fixed.matched oracle) (Workload.committed open_wl);
  check_int "lost = injected - committed"
    (Workload.injected open_wl - Workload.committed open_wl)
    (Workload.lost open_wl);
  check_bool "latencies drained once, all positive" true
    (let lats = Workload.take_latencies open_wl in
     List.length lats = Workload.committed open_wl
     && List.for_all (fun l -> l > 0) lats
     && Workload.take_latencies open_wl = [])

(* The slot horizon: under a daemon that gives some replicas more than
   [slots] slots, each replica draws requests for its first [slots]
   slots and no more — exactly the oracle schedule's words. *)
let test_slot_horizon policy () =
  let slots = 60 and steps = 600 in
  let wl =
    Workload.open_loop ~rate:0.1 ~slots ~seed:9L (warmed_service ~policy ())
  in
  Workload.run wl ~steps;
  let oracle =
    Fixed.run (warmed_service ~policy ())
      (Fixed.schedule ~rate:0.1 ~n:5 ~slots ~seed:9L)
      ~steps
  in
  check_bool "a replica ran past the horizon" true
    (Array.exists (fun s -> s > slots) oracle.Fixed.slots_run);
  check_bool "traffic flowed" true (Fixed.injected oracle > 0);
  check_int "same injections" (Fixed.injected oracle) (Workload.injected wl);
  check_int "same drops" oracle.Fixed.dropped (Workload.dropped wl);
  check_bool "same responses" true
    (Workload.responses wl = oracle.Fixed.responses);
  check_int "commits equal the multiset matching" (Fixed.matched oracle)
    (Workload.committed wl)

(* The serve.* registry under --metrics: counters and the trailing
   window's availability and latency gauges all register, and the
   latency gauges hold the last epoch's judged percentiles. *)
let test_serve_metrics_registry () =
  Ssos_obs.Obs.reset ();
  Ssos_obs.Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Ssos_obs.Obs.set_enabled false;
      Ssos_obs.Obs.reset ())
    (fun () ->
      let last = ref None in
      let s =
        Engine.serve ~nodes:5 ~rate:0.08 ~fault_rate:0.008 ~duration:2400
          ~report:(fun w -> last := Some w)
          ~seed:3L ()
      in
      let snap = Ssos_obs.Obs.snapshot () in
      let find name =
        List.find_opt
          (fun (r : Ssos_obs.Obs.row) -> r.Ssos_obs.Obs.name = name)
          snap.Ssos_obs.Obs.rows
      in
      List.iter
        (fun name ->
          check_bool ("row " ^ name) true (find name <> None))
        [ "serve.injected"; "serve.committed"; "serve.incidents";
          "serve.repairs"; "serve.window-availability"; "serve.step";
          "serve.window-p50-steps"; "serve.window-p99-steps" ];
      (match find "serve.injected" with
      | Some { Ssos_obs.Obs.value = Ssos_obs.Obs.Counter n; _ } ->
        check_int "injected counter matches the summary" s.Engine.injected n
      | _ -> Alcotest.fail "serve.injected is not a counter");
      let w =
        match !last with
        | Some w -> w
        | None -> Alcotest.fail "no window reported"
      in
      check_bool "the last window judged commits" true (w.Engine.w_p50 > 0);
      let gauge name expected =
        match find name with
        | Some { Ssos_obs.Obs.value = Ssos_obs.Obs.Gauge v; _ } ->
          check_bool (name ^ " holds the last window's value") true
            (v = expected)
        | _ -> Alcotest.failf "%s is not a gauge" name
      in
      gauge "serve.window-availability" w.Engine.w_availability;
      gauge "serve.window-p50-steps" (float_of_int w.Engine.w_p50);
      gauge "serve.window-p99-steps" (float_of_int w.Engine.w_p99))

let test_argument_validation () =
  let invalid name thunk =
    match thunk () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  invalid "negative duration" (fun () ->
      Engine.serve ~duration:(-1) ~seed:1L ());
  invalid "bad fault rate" (fun () ->
      Engine.serve ~fault_rate:1.5 ~duration:100 ~seed:1L ());
  invalid "bad rate" (fun () ->
      Engine.serve ~rate:(-0.1) ~duration:100 ~seed:1L ());
  invalid "zero epoch" (fun () ->
      Engine.serve ~epoch:0 ~duration:100 ~seed:1L ());
  invalid "open_loop bad rate" (fun () ->
      Workload.open_loop ~rate:2.0 ~seed:1L (Service.build ~n:3 ~seed:1L ()))

let suite =
  [ case "bit-identical across shard and job counts"
      test_determinism_across_shards_and_jobs;
    case "closed loop: detect, escalate, repair, verify"
      test_closed_loop_detects_and_repairs;
    case "fault-free run stays clean" test_fault_free_run_is_clean;
    case "open loop performs the schedule's draw sequence"
      test_open_loop_matches_schedule;
    case "open loop: slot horizon under starve{1}"
      (test_slot_horizon
         (Cluster.Daemon (Ssx_stab.Adversary.starve ~victim:1 ())));
    case "open loop: slot horizon under fair-random"
      (test_slot_horizon Cluster.Fair_random);
    case "serve.* metric registry" test_serve_metrics_registry;
    case "argument validation" test_argument_validation ]
