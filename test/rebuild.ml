(* The rebuild-per-trial oracle for the campaign engine.

   [Runner]'s campaigns warm one system per worker domain and restore a
   snapshot of it before every trial.  This module is the slow,
   assumption-free reference they are compared against: every trial
   builds and warms a fresh system, then runs the same fault burst,
   horizon and judge.  It is written only against public APIs (the
   system and cluster steppers, [Injector.inject_now], the convergence
   judges and the rsm [Workload]), so it shares no trial code with the
   engine under test.  Each trial function takes its trial seed last
   and returns the outcome type of the matching campaign; [trials]
   runs the evaluation tables' own index-keyed trials. *)

module Runner = Ssos_experiments.Runner
module Rng = Ssx_faults.Rng
module Convergence = Ssx_stab.Convergence
module Distributed = Ssx_stab.Distributed
module Cluster = Ssos_net.Cluster
module Net_ring = Ssos_net.Net_ring
module Service = Ssos_rsm.Service
module Workload = Ssos_rsm.Workload

(* Trial [i] of a [trials]-trial campaign on master [seed], in trial
   order, one at a time. *)
let campaign ~trials ~seed trial =
  List.init trials (fun i -> trial (Runner.trial_seed seed i))

(* A table's own trials, which take their index: trial [i] of [trials],
   in order, each on a freshly built system whose [machine] has run
   [warmup] fault-free ticks. *)
let trials ~trials ~build ~machine ~warmup trial =
  List.init trials (fun i ->
      let system = build () in
      Ssx.Machine.run (machine system) ~ticks:warmup;
      trial system i)

let outcome ~faults_end verdict =
  { Runner.recovered = Convergence.converged verdict;
    recovery_ticks = Convergence.recovery_time ~faults_end verdict }

(* [heartbeat_campaign]'s trial. *)
let heartbeat ~build ~space ~spec ~burst ~warmup ~horizon seed =
  let system = build () in
  Ssos.System.run system ~ticks:warmup;
  ignore
    (Ssx_faults.Injector.inject_now (Ssos.System.fault_system system)
       ~rng:(Rng.create seed) ~space burst);
  Ssos.System.run system ~ticks:horizon;
  outcome ~faults_end:warmup
    (Convergence.judge ~spec
       ~samples:(Ssx_devices.Heartbeat.samples system.Ssos.System.heartbeat)
       ~end_tick:(Ssx.Machine.ticks system.Ssos.System.machine))

(* [sched_campaign]'s trial: every process's stream must converge; the
   system recovers when its slowest process has. *)
let sched ~build ~space ~burst ~warmup ~horizon ~max_gap ~window seed =
  let sched = build () in
  let machine = sched.Ssos.Sched.machine in
  Ssx.Machine.run machine ~ticks:warmup;
  ignore
    (Ssx_faults.Injector.inject_now (Ssos.Sched.fault_system sched)
       ~rng:(Rng.create seed) ~space burst);
  Ssx.Machine.run machine ~ticks:horizon;
  let spec = { (Convergence.counter_spec ()) with max_gap; window } in
  let outcomes =
    Array.map
      (fun hb ->
        outcome ~faults_end:warmup
          (Convergence.judge ~spec
             ~samples:(Ssx_devices.Heartbeat.samples hb)
             ~end_tick:(Ssx.Machine.ticks machine)))
      sched.Ssos.Sched.heartbeats
  in
  if Array.for_all (fun o -> o.Runner.recovered) outcomes then
    { Runner.recovered = true;
      recovery_ticks =
        Array.fold_left
          (fun acc o ->
            match (acc, o.Runner.recovery_ticks) with
            | Some a, Some b -> Some (max a b)
            | None, some | some, None -> some)
          None outcomes }
  else { Runner.recovered = false; recovery_ticks = None }

(* [ring_campaign]'s trial.  Recovery counts in cluster steps from
   wherever the perturbation left the cluster. *)
let ring ~build ~perturb ~warmup ~horizon ~window seed =
  let ring = build () in
  let cluster = ring.Net_ring.cluster in
  Cluster.run_sharded cluster ~steps:warmup;
  perturb (Rng.create seed) ring;
  let faults_end = Cluster.steps cluster in
  let samples = Net_ring.observe ring ~steps:horizon in
  outcome ~faults_end
    (Distributed.judge ~window ~samples ~end_step:(Cluster.steps cluster))

(* [rsm_campaign]'s trial: the ring trial judged with [rsm_judge], then
   a serve phase whose request streams come from the trial seed's side
   stream 0x5e12e, checked for linearizability from replica 0's
   store. *)
let rsm ~build ~perturb ~warmup ~horizon ~window ~rate ~serve_steps seed =
  let service = build () in
  let cluster = service.Service.cluster in
  Cluster.run_sharded cluster ~steps:warmup;
  perturb (Rng.create seed) service;
  let faults_end = Cluster.steps cluster in
  let samples = Service.observe service ~steps:horizon in
  let base =
    outcome ~faults_end
      (Distributed.rsm_judge ~window ~samples ~end_step:(Cluster.steps cluster))
  in
  let n = service.Service.n in
  let wl =
    Workload.open_loop ~rate
      ~slots:(((serve_steps + n - 1) / n) + 1)
      ~seed:(Rng.derive seed 0x5e12e) service
  in
  Workload.discard wl;
  let init = Service.kv service 0 in
  Workload.run wl ~steps:serve_steps;
  { Runner.base;
    committed = Workload.committed wl;
    lost = Workload.lost wl;
    linearizable =
      Distributed.linearizable ~init ~ops:(Workload.ops wl) = None }
