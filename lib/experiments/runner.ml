type outcome = {
  recovered : bool;
  recovery_ticks : int option;
}

type summary = {
  trials : int;
  recoveries : int;
  mean_recovery : float option;
  max_recovery : int option;
}

let summarize outcomes =
  (* One pass: trial count, recovery count, and the recovery-time
     sum/count/max all accumulate in a single fold. *)
  let trials, recoveries, time_sum, time_count, max_recovery =
    List.fold_left
      (fun (trials, recoveries, time_sum, time_count, max_recovery) o ->
        let trials = trials + 1 in
        if not o.recovered then
          (trials, recoveries, time_sum, time_count, max_recovery)
        else
          match o.recovery_ticks with
          | None -> (trials, recoveries + 1, time_sum, time_count, max_recovery)
          | Some t ->
            let max_recovery =
              Some (match max_recovery with None -> t | Some m -> max m t)
            in
            (trials, recoveries + 1, time_sum + t, time_count + 1, max_recovery))
      (0, 0, 0, 0, None) outcomes
  in
  let mean_recovery =
    if time_count = 0 then None
    else Some (float_of_int time_sum /. float_of_int time_count)
  in
  { trials; recoveries; mean_recovery; max_recovery }

type distribution = {
  samples : int;
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
}

(* Exact nearest-rank percentile over the sorted recovery times: the
   q-percentile is the ceil(q * samples)-th smallest. *)
let nearest_rank sorted q =
  let count = Array.length sorted in
  let rank = int_of_float (ceil (q *. float_of_int count)) in
  sorted.(max 0 (min (count - 1) (rank - 1)))

let distribution outcomes =
  let times =
    List.filter_map
      (fun o -> if o.recovered then o.recovery_ticks else None)
      outcomes
  in
  match times with
  | [] -> None
  | times ->
    let sorted = Array.of_list times in
    Array.sort compare sorted;
    Some
      { samples = Array.length sorted;
        p50 = nearest_rank sorted 0.5;
        p90 = nearest_rank sorted 0.9;
        p99 = nearest_rank sorted 0.99;
        max = sorted.(Array.length sorted - 1) }

(* Campaign telemetry.  [summarize] stays a pure fold over outcomes —
   the summary a caller sees is computed the same way with metrics on
   or off — and the observability layer is fed afterwards, from the
   same outcomes: per-campaign trial/recovery counters and a
   recovery-time histogram, whose exact count/sum/max side-cars carry
   everything the summary holds.  Outcomes arrive in trial order, so
   the histogram's float sum does not depend on the worker split. *)
let publish ~campaign outcomes summary =
  if Ssos_obs.Obs.enabled () then begin
    let name stat = Printf.sprintf "campaign{id=%s}.%s" campaign stat in
    Ssos_obs.Obs.incr ~by:summary.trials
      (Ssos_obs.Obs.counter (name "trials"));
    Ssos_obs.Obs.incr ~by:summary.recoveries
      (Ssos_obs.Obs.counter (name "recoveries"));
    let hist = Ssos_obs.Obs.histogram (name "recovery-ticks") in
    List.iter
      (fun o ->
        match o.recovery_ticks with
        | Some t when o.recovered -> Ssos_obs.Obs.observe hist (float_of_int t)
        | Some _ | None -> ())
      outcomes;
    Ssos_obs.Obs.event "campaign.summary"
      ~fields:
        [ ("campaign", campaign);
          ("trials", string_of_int summary.trials);
          ("recoveries", string_of_int summary.recoveries) ]
  end;
  summary

let trial_seed = Ssx_faults.Rng.derive

(* What one worker counted, when metrics are on: the counts its warm
   phase left (the same on every worker), the sum of its trials'
   deltas position by position, and a reader for its block table's
   totals. *)
type ledger = {
  warm : Ssx.Counts.t;
  trials : int array;
  read : unit -> Ssx.Counts.t;
}

(* The campaign's counts: the warm phase once, plus every trial's delta
   from restore to judge.  Sums do not depend on order, so any split
   of trials across workers publishes the same rows; only the block
   tables' rows, marked [{host}], are per worker. *)
let publish_counts = function
  | [] -> ()
  | first :: _ as ledgers ->
    let total = Array.make (List.length first.warm) 0 in
    List.iter
      (fun l -> Array.iteri (fun k v -> total.(k) <- total.(k) + v) l.trials)
      ledgers;
    Ssos_obs.Obs.publish
      (List.filter
         (fun count -> not (Ssx.Machine.is_host_count count))
         (List.mapi (fun k (name, v) -> (name, v + total.(k))) first.warm));
    List.iter
      (fun l ->
        Ssos_obs.Obs.publish
          (List.filter_map
             (fun ((name, v) as count) ->
               if Ssx.Machine.is_host_count count then Some (name ^ "{host}", v)
               else None)
             (l.read ())))
      ledgers

(* The one trial engine.  Each worker domain evaluates [warm] once,
   lazily on its first task: build the system, run the deterministic,
   fault-free warmup and capture it.  Every trial then starts with
   [restore], back to that capture, which is observationally identical
   to rebuilding and re-warming (test/rebuild.ml is the
   rebuild-per-trial oracle the campaign tests compare against), so
   outcomes are bit-identical for any [jobs].  With metrics on, each
   trial also adds its delta of [counts] to its worker's ledger. *)
let run_trials ?oversubscribe ?jobs ~trials ~warm ~restore ~counts trial =
  let ledgers = Atomic.make [] in
  let init () =
    let state = warm () in
    if not (Ssos_obs.Obs.enabled ()) then (state, None)
    else begin
      let warm = counts state in
      let l =
        { warm;
          trials = Array.make (List.length warm) 0;
          read = (fun () -> counts state) }
      in
      let rec add () =
        let seen = Atomic.get ledgers in
        if not (Atomic.compare_and_set ledgers seen (l :: seen)) then add ()
      in
      add ();
      (state, Some l)
    end
  in
  let outcomes =
    Pool.run_with ?oversubscribe ?jobs ~init trials (fun (state, ledger) i ->
        restore state;
        match ledger with
        | None -> trial state i
        | Some l ->
          let before = counts state in
          let outcome = trial state i in
          List.iteri
            (fun k ((_, b), (_, a)) -> l.trials.(k) <- l.trials.(k) + a - b)
            (List.combine before (counts state));
          outcome)
  in
  publish_counts (Atomic.get ledgers);
  Array.to_list outcomes

let judged ~faults_end verdict =
  { recovered = Ssx_stab.Convergence.converged verdict;
    recovery_ticks = Ssx_stab.Convergence.recovery_time ~faults_end verdict }

let heartbeat_campaign ~build ~space ~spec ~burst ?(warmup = 30_000)
    ?(horizon = 400_000) ?oversubscribe ?jobs ~trials ~seed () =
  let outcomes =
    run_trials ?oversubscribe ?jobs ~trials
      ~warm:(fun () ->
        let system = build () in
        Ssos.System.run system ~ticks:warmup;
        (system, Ssx.Snapshot.capture system.Ssos.System.machine))
      ~restore:(fun (system, snapshot) ->
        Ssx.Snapshot.restore snapshot system.Ssos.System.machine)
      ~counts:(fun (system, _) -> Ssos.System.counts system)
      (fun (system, _) i ->
        let rng = Ssx_faults.Rng.create (trial_seed seed i) in
        ignore
          (Ssx_faults.Injector.inject_now
             (Ssos.System.fault_system system)
             ~rng ~space burst);
        Ssos.System.run system ~ticks:horizon;
        judged ~faults_end:warmup
          (Ssx_stab.Convergence.judge ~spec
             ~samples:
               (Ssx_devices.Heartbeat.samples system.Ssos.System.heartbeat)
             ~end_tick:(Ssx.Machine.ticks system.Ssos.System.machine)))
  in
  publish ~campaign:"heartbeat" outcomes (summarize outcomes)

let sched_outcome ~warmup ~max_gap ~window sched =
  let end_tick = Ssx.Machine.ticks sched.Ssos.Sched.machine in
  let spec = { (Ssx_stab.Convergence.counter_spec ()) with max_gap; window } in
  let verdicts =
    Array.map
      (fun hb ->
        Ssx_stab.Convergence.judge ~spec
          ~samples:(Ssx_devices.Heartbeat.samples hb)
          ~end_tick)
      sched.Ssos.Sched.heartbeats
  in
  let recovered = Array.for_all Ssx_stab.Convergence.converged verdicts in
  let recovery_ticks =
    if not recovered then None
    else
      (* The system has recovered once its slowest process has. *)
      Array.fold_left
        (fun acc verdict ->
          match
            (acc, Ssx_stab.Convergence.recovery_time ~faults_end:warmup verdict)
          with
          | Some a, Some b -> Some (max a b)
          | None, some | some, None -> some)
        None verdicts
  in
  { recovered; recovery_ticks }

let sched_campaign ~build ?space ~burst ?(warmup = 100_000)
    ?(horizon = 600_000) ?(max_gap = 100_000) ?(window = 150_000)
    ?oversubscribe ?jobs ~trials ~seed () =
  let outcomes =
    run_trials ?oversubscribe ?jobs ~trials
      ~warm:(fun () ->
        let sched = build () in
        let space =
          match space with
          | Some s -> s
          | None -> Ssos.Sched.fault_space sched
        in
        Ssx.Machine.run sched.Ssos.Sched.machine ~ticks:warmup;
        (sched, space, Ssx.Snapshot.capture sched.Ssos.Sched.machine))
      ~restore:(fun (sched, _, snapshot) ->
        Ssx.Snapshot.restore snapshot sched.Ssos.Sched.machine)
      ~counts:(fun (sched, _, _) -> Ssos.Sched.counts sched)
      (fun (sched, space, _) i ->
        let rng = Ssx_faults.Rng.create (trial_seed seed i) in
        ignore
          (Ssx_faults.Injector.inject_now (Ssos.Sched.fault_system sched) ~rng
             ~space burst);
        Ssx.Machine.run sched.Ssos.Sched.machine ~ticks:horizon;
        sched_outcome ~warmup ~max_gap ~window sched)
  in
  publish ~campaign:"sched" outcomes (summarize outcomes)

let ring_campaign ~build ~perturb ?(warmup = 200) ?(horizon = 2_500)
    ?(window = 600) ?oversubscribe ?jobs ~trials ~seed () =
  let outcomes =
    run_trials ?oversubscribe ?jobs ~trials
      ~warm:(fun () ->
        (* Cluster snapshots cover every node (NIC queues ride along
           as machine resettables), every link — including the mutable
           fault-model phase — the interleaving RNG and the step
           counter. *)
        let ring = build () in
        Ssos_net.Cluster.run_sharded ring.Ssos_net.Net_ring.cluster
          ~steps:warmup;
        (ring, Ssos_net.Cluster.capture ring.Ssos_net.Net_ring.cluster))
      ~restore:(fun (ring, snapshot) ->
        Ssos_net.Cluster.restore ring.Ssos_net.Net_ring.cluster snapshot)
      ~counts:(fun (ring, _) -> Ssos_net.Net_ring.counts ring)
      (fun (ring, _) i ->
        let cluster = ring.Ssos_net.Net_ring.cluster in
        perturb (Ssx_faults.Rng.create (trial_seed seed i)) ring;
        (* The perturbation may itself have stepped the cluster (e.g. a
           message-fault phase); recovery counts from wherever it
           ended. *)
        let faults_end = Ssos_net.Cluster.steps cluster in
        let samples = Ssos_net.Net_ring.observe ring ~steps:horizon in
        judged ~faults_end
          (Ssx_stab.Distributed.judge ~window ~samples
             ~end_step:(Ssos_net.Cluster.steps cluster)))
  in
  ignore (publish ~campaign:"ring" outcomes (summarize outcomes));
  outcomes

type rsm_outcome = {
  base : outcome;
  committed : int;
  lost : int;
  linearizable : bool;
}

type rsm_summary = {
  core : summary;
  mean_committed : float;
  mean_lost : float;
  linearized : int;
}

let rsm_summarize outcomes =
  let core = summarize (List.map (fun o -> o.base) outcomes) in
  let committed, lost, linearized =
    List.fold_left
      (fun (c, l, n) o ->
        (c + o.committed, l + o.lost, if o.linearizable then n + 1 else n))
      (0, 0, 0) outcomes
  in
  let per x =
    if core.trials = 0 then 0. else float_of_int x /. float_of_int core.trials
  in
  { core;
    mean_committed = per committed;
    mean_lost = per lost;
    linearized }

let rsm_publish ~campaign outcomes summary =
  ignore (publish ~campaign (List.map (fun o -> o.base) outcomes) summary.core);
  if Ssos_obs.Obs.enabled () then begin
    let name stat = Printf.sprintf "campaign{id=%s}.%s" campaign stat in
    List.iter
      (fun o ->
        Ssos_obs.Obs.incr ~by:o.committed
          (Ssos_obs.Obs.counter (name "committed"));
        Ssos_obs.Obs.incr ~by:o.lost (Ssos_obs.Obs.counter (name "lost")))
      outcomes;
    Ssos_obs.Obs.incr ~by:summary.linearized
      (Ssos_obs.Obs.counter (name "linearized"))
  end;
  summary

(* The serve phase of every rsm trial: request rate per node slot, and
   length in cluster steps. *)
let rsm_rate = 0.05
let rsm_serve_steps = 1_200

let rsm_campaign ~build ~perturb ?(warmup = 400) ?(horizon = 2_500)
    ?(window = 400) ?oversubscribe ?jobs ~trials ~seed () =
  let outcomes =
    run_trials ?oversubscribe ?jobs ~trials
      ~warm:(fun () ->
        let service = build () in
        Ssos_net.Cluster.run_sharded service.Ssos_rsm.Service.cluster
          ~steps:warmup;
        (service, Ssos_net.Cluster.capture service.Ssos_rsm.Service.cluster))
      ~restore:(fun (service, snapshot) ->
        Ssos_net.Cluster.restore service.Ssos_rsm.Service.cluster snapshot)
      ~counts:(fun (service, _) -> Ssos_rsm.Service.counts service)
      (fun (service, _) i ->
        let seed = trial_seed seed i in
        let cluster = service.Ssos_rsm.Service.cluster in
        perturb (Ssx_faults.Rng.create seed) service;
        (* The perturbation may itself step the cluster (a message-fault
           phase); recovery counts from wherever it ended. *)
        let faults_end = Ssos_net.Cluster.steps cluster in
        let samples = Ssos_rsm.Service.observe service ~steps:horizon in
        let base =
          judged ~faults_end
            (Ssx_stab.Distributed.rsm_judge ~window ~samples
               ~end_step:(Ssos_net.Cluster.steps cluster))
        in
        (* Serve phase: fresh client traffic against the recovered
           service.  Its streams are derived from the trial seed on a
           fixed side stream, so they are independent of the
           perturbation's rng draws and identical for any jobs split.
           The slot horizon is what a round-robin node gets in
           [rsm_serve_steps] steps, plus one: a node an unfair daemon
           favours draws no more than that.  The linearizability
           reference starts from replica 0's store as of serve start —
           exactly the judge's common store when converged. *)
        let n = service.Ssos_rsm.Service.n in
        let wl =
          Ssos_rsm.Workload.open_loop ~rate:rsm_rate
            ~slots:(((rsm_serve_steps + n - 1) / n) + 1)
            ~seed:(Ssx_faults.Rng.derive seed 0x5e12e) service
        in
        Ssos_rsm.Workload.discard wl;
        let init = Ssos_rsm.Service.kv service 0 in
        Ssos_rsm.Workload.run wl ~steps:rsm_serve_steps;
        { base;
          committed = Ssos_rsm.Workload.committed wl;
          lost = Ssos_rsm.Workload.lost wl;
          linearizable =
            Ssx_stab.Distributed.linearizable ~init
              ~ops:(Ssos_rsm.Workload.ops wl)
            = None })
  in
  ignore (rsm_publish ~campaign:"rsm" outcomes (rsm_summarize outcomes));
  outcomes

let scramble_processor rng system =
  let machine = system.Ssos.System.machine in
  let cpu = Ssx.Machine.cpu machine in
  let regs = cpu.Ssx.Cpu.regs in
  let word () = Ssx_faults.Rng.int rng 0x10000 in
  List.iter (fun r -> Ssx.Registers.set16 regs r (word ())) Ssx.Registers.all_reg16;
  List.iter (fun r -> Ssx.Registers.set_sreg regs r (word ())) Ssx.Registers.all_sreg;
  regs.Ssx.Registers.ip <- word ();
  regs.Ssx.Registers.psw <- word ();
  regs.Ssx.Registers.nmi_counter <-
    Ssx_faults.Rng.int rng (cpu.Ssx.Cpu.config.Ssx.Cpu.nmi_counter_max + 1);
  cpu.Ssx.Cpu.in_nmi <- Ssx_faults.Rng.bool rng;
  cpu.Ssx.Cpu.halted <- Ssx_faults.Rng.bool rng;
  (match system.Ssos.System.watchdog with
  | Some wd ->
    Ssx_devices.Watchdog.corrupt wd (Ssx_faults.Rng.int rng 0x1000000)
  | None -> ());
  (* Arbitrary guest RAM. *)
  let mem = Ssx.Machine.memory machine in
  let base = Ssos.Layout.os_segment lsl 4 in
  for i = 0 to Ssos.Layout.os_image_size - 1 do
    Ssx.Memory.write_byte mem (base + i) (Ssx_faults.Rng.int rng 256)
  done
