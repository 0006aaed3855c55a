(* Differential tests for the parallel snapshot-reset campaign engine:
   the same campaign must produce bit-identical summaries whatever the
   worker count, and equal to the rebuild-per-trial oracle
   ([Rebuild]).  This is the license for [Runner]'s one engine. *)

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

(* ------------------------------------------------------------- pool *)

(* [~oversubscribe:true] below forces the requested number of domains
   even when the host has fewer cores, so the genuinely concurrent
   code path is exercised on any machine. *)

let test_pool_run_in_order () =
  let expected = Array.init 23 (fun i -> i * i) in
  check_bool "jobs:1" true
    (Pool.run ~jobs:1 23 (fun i -> i * i) = expected);
  check_bool "jobs:4" true
    (Pool.run ~oversubscribe:true ~jobs:4 23 (fun i -> i * i)
    = expected);
  check_bool "more jobs than tasks" true
    (Pool.run ~oversubscribe:true ~jobs:64 23 (fun i -> i * i)
    = expected);
  check_int "zero tasks" 0
    (Array.length (Pool.run ~jobs:4 0 (fun i -> i)))

let test_pool_run_with_shares_state () =
  let inits = Atomic.make 0 in
  let results =
    Pool.run_with ~oversubscribe:true ~jobs:3
      ~init:(fun () ->
        ignore (Atomic.fetch_and_add inits 1);
        Atomic.get inits)
      12
      (fun _state i -> 2 * i)
  in
  check_bool "results in order" true (results = Array.init 12 (fun i -> 2 * i));
  (* Lazy per-worker state: at most one init per worker, at least one
     overall. *)
  let inits = Atomic.get inits in
  check_bool "init bounded by jobs" true (inits >= 1 && inits <= 3)

exception Boom of int

let test_pool_propagates_exception () =
  match
    Pool.run ~oversubscribe:true ~jobs:4 16 (fun i ->
        if i = 11 then raise (Boom i) else i)
  with
  | _ -> Alcotest.fail "expected the task's exception"
  | exception Boom 11 -> ()
  | exception Boom _ ->
    (* Only index 11 raises, so only [Boom 11] can surface. *)
    Alcotest.fail "wrong task's exception"

(* --------------------------------------------- campaign differential *)

let check_summary_equal label (a : Ssos_experiments.Runner.summary) b =
  check_int (label ^ ": trials") a.Ssos_experiments.Runner.trials
    b.Ssos_experiments.Runner.trials;
  check_int (label ^ ": recoveries") a.Ssos_experiments.Runner.recoveries
    b.Ssos_experiments.Runner.recoveries;
  check_bool (label ^ ": identical summary") true (a = b)

(* Trimmed T1: the section-3 reinstall design under the full default
   fault space (RAM + registers + control + watchdog). *)
let heartbeat_build () = Ssos.Reinstall.build ()

let heartbeat_trial =
  Rebuild.heartbeat ~build:heartbeat_build
    ~space:Ssos.System.default_fault_space
    ~spec:(Ssos.Reinstall.weak_spec ())
    ~burst:10 ~warmup:10_000 ~horizon:120_000

let heartbeat_summary ~jobs =
  Ssos_experiments.Runner.heartbeat_campaign ~build:heartbeat_build
    ~space:Ssos.System.default_fault_space
    ~spec:(Ssos.Reinstall.weak_spec ())
    ~burst:10 ~warmup:10_000 ~horizon:120_000 ~oversubscribe:true ~jobs
    ~trials:6 ~seed:42L ()

let test_heartbeat_campaign_differential () =
  let reference =
    Ssos_experiments.Runner.summarize
      (Rebuild.campaign ~trials:6 ~seed:42L heartbeat_trial)
  in
  check_int "reference ran all trials" 6
    reference.Ssos_experiments.Runner.trials;
  check_summary_equal "snapshot-reset jobs:1" reference
    (heartbeat_summary ~jobs:1);
  check_summary_equal "snapshot-reset jobs:4" reference
    (heartbeat_summary ~jobs:4);
  (* And the default entry point reproduces the same numbers. *)
  check_summary_equal "defaults" reference
    (Ssos_experiments.Runner.heartbeat_campaign
       ~build:(fun () -> Ssos.Reinstall.build ())
       ~space:Ssos.System.default_fault_space
       ~spec:(Ssos.Reinstall.weak_spec ())
       ~burst:10 ~warmup:10_000 ~horizon:120_000 ~jobs:2 ~trials:6 ~seed:42L ())

(* Trimmed T6/T7: the section-5.2 scheduler under targeted corruption
   of the instruction bytes themselves (ROM-adjacent code faults) — the
   space that exercises [Memory.restore_pages]' ROM-skipping path and
   the per-process code-refresh machinery. *)
let sched_code_space =
  { Ssx_faults.Fault.ram_regions =
      List.init 4 (fun i -> (Ssos.Layout.proc_segment i lsl 4, 48));
    registers = false;
    control_state = false;
    halt_faults = false;
    idtr_faults = false;
    watchdog_state = false }

let sched_summary ~jobs =
  Ssos_experiments.Runner.sched_campaign
    ~build:(fun () -> Ssos.Sched.build ())
    ~space:sched_code_space ~burst:8 ~warmup:30_000 ~horizon:200_000
    ~max_gap:100_000 ~window:120_000 ~oversubscribe:true ~jobs
    ~trials:4 ~seed:9L ()

let test_sched_campaign_differential () =
  let reference =
    Ssos_experiments.Runner.summarize
      (Rebuild.campaign ~trials:4 ~seed:9L
         (Rebuild.sched
            ~build:(fun () -> Ssos.Sched.build ())
            ~space:sched_code_space ~burst:8 ~warmup:30_000 ~horizon:200_000
            ~max_gap:100_000 ~window:120_000))
  in
  check_int "reference ran all trials" 4 reference.Ssos_experiments.Runner.trials;
  check_summary_equal "snapshot-reset jobs:1" reference
    (sched_summary ~jobs:1);
  check_summary_equal "snapshot-reset jobs:4" reference
    (sched_summary ~jobs:4)

let test_snapshot_reset_trials_are_independent () =
  (* Reordering must not matter: a snapshot-reset worker that runs
     trials back-to-back on one machine reports the same outcome for
     trial [i] as a fresh machine running only trial [i]. *)
  let lone = heartbeat_trial (Ssos_experiments.Runner.trial_seed 42L 5) in
  let in_sequence = heartbeat_summary ~jobs:1 in
  let with_only_five =
    Ssos_experiments.Runner.heartbeat_campaign ~build:heartbeat_build
      ~space:Ssos.System.default_fault_space
      ~spec:(Ssos.Reinstall.weak_spec ())
      ~burst:10 ~warmup:10_000 ~horizon:120_000 ~jobs:1 ~trials:5 ~seed:42L
      ()
  in
  (* Dropping the last trial from the 6-trial campaign must reproduce
     the 5-trial campaign plus trial 5's lone outcome. *)
  check_int "prefix trials" 5 with_only_five.Ssos_experiments.Runner.trials;
  let expected_recoveries =
    with_only_five.Ssos_experiments.Runner.recoveries
    + if lone.Ssos_experiments.Runner.recovered then 1 else 0
  in
  check_int "recoveries compose" expected_recoveries
    in_sequence.Ssos_experiments.Runner.recoveries;
  (* Recovery times compose too: a restore that leaves state behind
     shifts the later trials' recovery ticks without changing whether
     they recover. *)
  let tick_sum (s : Ssos_experiments.Runner.summary) =
    match s.Ssos_experiments.Runner.mean_recovery with
    | None -> 0
    | Some mean ->
      int_of_float
        (Float.round
           (mean *. float_of_int s.Ssos_experiments.Runner.recoveries))
  in
  let lone_ticks =
    if lone.Ssos_experiments.Runner.recovered then
      lone.Ssos_experiments.Runner.recovery_ticks
    else None
  in
  check_int "recovery-tick sums compose"
    (tick_sum with_only_five + Option.value lone_ticks ~default:0)
    (tick_sum in_sequence);
  Alcotest.(check (option int)) "max recovery composes"
    (match (with_only_five.Ssos_experiments.Runner.max_recovery, lone_ticks) with
    | Some a, Some b -> Some (max a b)
    | a, None -> a
    | None, b -> b)
    in_sequence.Ssos_experiments.Runner.max_recovery

let test_campaign_obs_invariance () =
  (* Metrics publish after the summary is computed and never touch the
     trial RNGs, so a campaign is bit-identical with instrumentation on
     or off — and, with it on, across worker counts. *)
  let module Obs = Ssos_obs.Obs in
  Obs.reset ();
  Obs.set_enabled false;
  let off = heartbeat_summary ~jobs:1 in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let on1 = heartbeat_summary ~jobs:1 in
      check_summary_equal "obs on, jobs:1" off on1;
      let on4 = heartbeat_summary ~jobs:4 in
      check_summary_equal "obs on, jobs:4" off on4;
      (* The run left the promised per-layer metrics behind. *)
      let rows = (Obs.snapshot ()).Obs.rows in
      let has name = List.exists (fun (r : Obs.row) -> r.Obs.name = name) rows in
      let has_prefix p =
        List.exists
          (fun (r : Obs.row) -> String.starts_with ~prefix:p r.Obs.name)
          rows
      in
      check_bool "campaign trial counter" true (has "campaign{id=heartbeat}.trials");
      check_bool "recovery histogram" true (has "campaign{id=heartbeat}.recovery-ticks");
      check_bool "fault counters" true (has "fault.injected");
      check_bool "per-kind fault counters" true (has_prefix "fault.injected{kind=");
      check_bool "pool worker throughput" true (has_prefix "pool.worker{id=");
      check_bool "machine counters" true (has "machine.ticks");
      check_bool "block-table rows are the host's" true
        (has "machine.jit.blocks-built{host}"))

(* ------------------------------------------------ ring campaign *)

(* Partitioning ring trials across worker domains must be invisible at
   the campaign level: the same summary at 1, 2 and 4 jobs.  Lossy
   links so the per-link RNG streams ride in the snapshots. *)
let ring_summary ~jobs =
  let build () =
    Ssos_net.Net_ring.build ~n:6 ~latency:4
      ~faults:(fun ~src:_ ~dst:_ ->
        Ssos_net.Link.lossy ~drop:0.1 ~max_delay:2 ())
      ~seed:77L ()
  in
  Ssos_experiments.Runner.summarize
    (Ssos_experiments.Runner.ring_campaign ~build
       ~perturb:Ssos_net.Net_ring.corrupt ~horizon:8_000 ~window:600
       ~oversubscribe:true ~jobs ~trials:3 ~seed:5L ())

let test_ring_campaign_jobs_differential () =
  let reference = ring_summary ~jobs:1 in
  check_int "reference ran all trials" 3
    reference.Ssos_experiments.Runner.trials;
  check_bool "reference recovered at least once" true
    (reference.Ssos_experiments.Runner.recoveries > 0);
  check_summary_equal "jobs:2" reference (ring_summary ~jobs:2);
  check_summary_equal "jobs:4" reference (ring_summary ~jobs:4)

(* ------------------------------------------------ rsm campaign *)

(* The replicated-service campaign adds a serve phase (client traffic
   plus a linearizability verdict) after the judged recovery; its
   summary must stay bit-identical across worker counts just like the
   plain ring campaign.  Lossy links so the per-link RNG streams ride
   in the snapshots; the perturbation corrupts every replica's
   counter, view, store and received-frame tags. *)
let rsm_build () =
  Ssos_rsm.Service.build ~n:5 ~latency:3
    ~faults:(fun ~src:_ ~dst:_ ->
      Ssos_net.Link.lossy ~drop:0.1 ~max_delay:1 ())
    ~seed:31L ()

let rsm_summary_run ?(trials = 2) ~jobs () =
  Ssos_experiments.Runner.rsm_summarize
    (Ssos_experiments.Runner.rsm_campaign ~build:rsm_build
       ~perturb:Ssos_rsm.Service.corrupt ~oversubscribe:true ~jobs ~trials
       ~seed:13L ())

let test_rsm_campaign_differential () =
  let reference = rsm_summary_run ~jobs:1 () in
  check_int "reference ran all trials" 2
    reference.Ssos_experiments.Runner.core.Ssos_experiments.Runner.trials;
  check_bool "reference linearized at least one trial" true
    (reference.Ssos_experiments.Runner.linearized > 0);
  check_bool "jobs:2" true (rsm_summary_run ~jobs:2 () = reference);
  check_bool "jobs:4" true (rsm_summary_run ~jobs:4 () = reference)

let test_rsm_campaign_rebuild_oracle () =
  (* Snapshot reset against rebuilding per trial: one worker runs the
     three trials back to back on one restored cluster, so a piece of
     node or link state the capture misses leaks from one trial into
     the next and shows here. *)
  let reference =
    Ssos_experiments.Runner.rsm_summarize
      (Rebuild.campaign ~trials:3 ~seed:13L
         (Rebuild.rsm ~build:rsm_build ~perturb:Ssos_rsm.Service.corrupt
            ~warmup:400
            ~horizon:2_500 ~window:400 ~rate:0.05 ~serve_steps:1_200))
  in
  check_int "reference ran all trials" 3
    reference.Ssos_experiments.Runner.core.Ssos_experiments.Runner.trials;
  check_bool "snapshot reset = rebuild" true
    (rsm_summary_run ~trials:3 ~jobs:1 () = reference)

(* ------------------------------------------- the tables' builders *)

(* Besides the campaign families, the tables run their own trials on
   [Runner.run_trials] (T2, T5, T7, T8, T11, T12, T13), over builders no
   family resets.  Each case runs a short trial shaped like its table's
   through the engine, at jobs 1 (every trial after the first starts
   from a restore of the machine that ran the one before) and at jobs
   2, against building a system per trial.  A trial returns what its
   table reads plus a digest of the final machine state. *)
let check_engine_against_rebuild label ~trials ~build ~machine ~counts
    ~warmup trial =
  let engine jobs =
    Ssos_experiments.Runner.run_trials ~oversubscribe:true ~jobs ~trials
      ~warm:(fun () ->
        let system = build () in
        Ssx.Machine.run (machine system) ~ticks:warmup;
        (system, Ssx.Snapshot.capture (machine system)))
      ~restore:(fun (system, snapshot) ->
        Ssx.Snapshot.restore snapshot (machine system))
      ~counts:(fun (system, _) -> counts system)
      (fun (system, _) i -> trial system i)
  in
  let reference = Rebuild.trials ~trials ~build ~machine ~warmup trial in
  check_bool (label ^ ": jobs 1 = rebuild") true (engine 1 = reference);
  check_bool (label ^ ": jobs 2 = rebuild") true (engine 2 = reference)

let final_digest machine = Ssx.Snapshot.digest (Ssx.Snapshot.capture machine)

let primitive_machine sched = sched.Ssos.Primitive_sched.machine

let primitive_counts sched =
  Ssx.Machine.counts sched.Ssos.Primitive_sched.machine

let beat_counts heartbeats = Array.map Ssx_devices.Heartbeat.count heartbeats

let test_primitive_sched_against_rebuild () =
  (* T13's sweep: the booted scheduler from an arbitrary cs:ip. *)
  check_engine_against_rebuild "ip sweep" ~trials:4
    ~build:(fun () -> Ssos.Primitive_sched.build ())
    ~machine:primitive_machine ~counts:primitive_counts ~warmup:0
    (fun sched i ->
      let machine = sched.Ssos.Primitive_sched.machine in
      let regs = (Ssx.Machine.cpu machine).Ssx.Cpu.regs in
      regs.Ssx.Registers.cs <- Ssos.Layout.rom_segment;
      regs.Ssx.Registers.ip <- (i * 0x3F1D) land 0xFFFF;
      let ran =
        Ssx.Machine.run_until machine
          ~limit:(4 * Ssos.Primitive_sched.region_size) (fun _ ->
            Array.for_all
              (fun hb -> Ssx_devices.Heartbeat.count hb > 0)
              sched.Ssos.Primitive_sched.heartbeats)
      in
      Ssx.Machine.run machine ~ticks:2_000;
      (ran, beat_counts sched.Ssos.Primitive_sched.heartbeats, final_digest machine));
  (* T5's burst: warm, 30 faults, run on, judge liveness. *)
  check_engine_against_rebuild "fault burst" ~trials:4
    ~build:(fun () -> Ssos.Primitive_sched.build ())
    ~machine:primitive_machine ~counts:primitive_counts ~warmup:10_000
    (fun sched i ->
      let machine = sched.Ssos.Primitive_sched.machine in
      ignore
        (Ssx_faults.Injector.inject_now
           (Ssos.Primitive_sched.fault_system sched)
           ~rng:(Ssx_faults.Rng.create (Ssos_experiments.Runner.trial_seed 5L i))
           ~space:(Ssos.Primitive_sched.fault_space sched)
           30);
      Ssx.Machine.run machine ~ticks:20_000;
      ( Array.map Ssx_devices.Heartbeat.last sched.Ssos.Primitive_sched.heartbeats,
        beat_counts sched.Ssos.Primitive_sched.heartbeats,
        final_digest machine ))

let test_monitor_against_rebuild () =
  (* T8's shape, alternating a fault the predicates detect (task index
     out of range) with one they never see (a wild ip): a detection log
     the restore failed to rewind would show up in the odd trials. *)
  let spec = Ssos.Reinstall.strict_spec () in
  check_engine_against_rebuild "monitor" ~trials:4
    ~build:(fun () -> Ssos.Monitor.build ())
    ~machine:(fun monitor -> monitor.Ssos.Monitor.system.Ssos.System.machine)
    ~counts:(fun monitor -> Ssos.System.counts monitor.Ssos.Monitor.system)
    ~warmup:30_000
    (fun monitor i ->
      let system = monitor.Ssos.Monitor.system in
      let fault =
        if i mod 2 = 0 then
          Ssx_faults.Fault.Ram_byte { addr = Ssos.Guest.task_index_addr; value = 0xEE }
        else Ssx_faults.Fault.Ip ((i * 0x2B6D) land 0xFFFF)
      in
      ignore (Ssx_faults.Fault.apply (Ssos.System.fault_system system) fault);
      Ssos.System.run system ~ticks:120_000;
      ( Rebuild.outcome ~faults_end:30_000
          (Ssx_stab.Convergence.judge ~spec
             ~samples:
               (Ssx_devices.Heartbeat.samples system.Ssos.System.heartbeat)
             ~end_tick:(Ssx.Machine.ticks system.Ssos.System.machine)),
        Ssos.Monitor.detections monitor,
        final_digest system.Ssos.System.machine ));
  (* And the log really alternates, so the case can see a leak. *)
  let detected =
    Rebuild.trials ~trials:2
      ~build:(fun () -> Ssos.Monitor.build ())
      ~machine:(fun monitor -> monitor.Ssos.Monitor.system.Ssos.System.machine)
      ~warmup:30_000
      (fun monitor i ->
        let system = monitor.Ssos.Monitor.system in
        ignore
          (Ssx_faults.Fault.apply (Ssos.System.fault_system system)
             (if i = 0 then
                Ssx_faults.Fault.Ram_byte
                  { addr = Ssos.Guest.task_index_addr; value = 0xEE }
              else Ssx_faults.Fault.Ip 0x2B6D));
        Ssos.System.run system ~ticks:120_000;
        Ssos.Monitor.detections monitor <> [])
  in
  check_bool "a detected and an undetected trial" true (detected = [ true; false ])

let test_token_os_against_rebuild () =
  (* T11's shape: warm, corrupt processor, scheduler and ring together,
     run on. *)
  let n = 4 in
  check_engine_against_rebuild "token ring OS" ~trials:3
    ~build:(fun () -> Ssos.Token_os.build ~n ())
    ~machine:(fun sched -> sched.Ssos.Sched.machine)
    ~counts:Ssos.Sched.counts ~warmup:150_000
    (fun sched i ->
      let rng =
        Ssx_faults.Rng.create
          (Ssos_experiments.Runner.trial_seed 11L (i + (n * 1000)))
      in
      ignore
        (Ssx_faults.Injector.inject_now (Ssos.Sched.fault_system sched) ~rng
           ~space:(Ssos.Sched.fault_space sched) 20);
      for m = 0 to n - 1 do
        Ssos.Token_os.corrupt_state sched m
          (Ssx_faults.Rng.int rng Ssos.Token_os.k)
      done;
      Ssx.Machine.run sched.Ssos.Sched.machine ~ticks:300_000;
      ( Ssos.Token_os.states sched,
        beat_counts sched.Ssos.Sched.heartbeats,
        final_digest sched.Ssos.Sched.machine ))

let test_petted_watchdog_against_rebuild () =
  (* T7's baseline: the watchdog that only fires when the guest stops
     kicking it, under bursts that also hit the watchdog's state. *)
  let spec = Ssos.Reinstall.weak_spec () in
  check_engine_against_rebuild "petted watchdog" ~trials:4
    ~build:(fun () -> Ssos.Baselines.petted_watchdog ())
    ~machine:(fun system -> system.Ssos.System.machine)
    ~counts:Ssos.System.counts ~warmup:30_000
    (fun system i ->
      ignore
        (Ssx_faults.Injector.inject_now (Ssos.System.fault_system system)
           ~rng:(Ssx_faults.Rng.create (Ssos_experiments.Runner.trial_seed 7L i))
           ~space:Ssos.System.default_fault_space 10);
      Ssos.System.run system ~ticks:150_000;
      ( Rebuild.outcome ~faults_end:30_000
          (Ssx_stab.Convergence.judge ~spec
             ~samples:
               (Ssx_devices.Heartbeat.samples system.Ssos.System.heartbeat)
             ~end_tick:(Ssx.Machine.ticks system.Ssos.System.machine)),
        Ssx_devices.Heartbeat.count system.Ssos.System.heartbeat,
        final_digest system.Ssos.System.machine ))

(* ------------------------------------ metrics are a function of the run *)

module Obs = Ssos_obs.Obs

(* The rows [run] publishes, minus the host's (names ending [{host}]:
   pool task counts and per-worker block tables).  Events are not
   rows: the bounded ring keeps whichever came last. *)
let published run =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      run ();
      List.filter_map
        (fun (r : Obs.row) ->
          if String.ends_with ~suffix:"{host}" r.Obs.name then None
          else Some (r.Obs.name, r.Obs.value))
        (Obs.snapshot ()).Obs.rows)

let check_rows label expected actual =
  check_int (label ^ ": row count") (List.length expected) (List.length actual);
  List.iter2
    (fun (name, value) (name', value') ->
      check_bool (Printf.sprintf "%s: %s" label name) true
        (name = name' && value = value'))
    expected actual

let check_function_of_run label run =
  let one = published (run ~jobs:1) in
  check_bool (label ^ ": machine counts published") true
    (List.exists (fun (name, _) -> String.starts_with ~prefix:"machine.ticks" name) one);
  check_rows (label ^ ", jobs 2") one (published (run ~jobs:2));
  check_rows (label ^ ", jobs 2 again") one (published (run ~jobs:2))

let test_metrics_function_of_run () =
  (* Heartbeat workers carry labels, as the e2e campaign's do: a label
     may name a worker's block-table rows, never a simulated one. *)
  check_function_of_run "heartbeat" (fun ~jobs () ->
      let worker = Atomic.make 0 in
      ignore
        (Ssos_experiments.Runner.heartbeat_campaign
           ~build:(fun () ->
             Ssos.Reinstall.build
               ~obs_label:(Printf.sprintf "w%d" (Atomic.fetch_and_add worker 1))
               ())
           ~space:Ssos.System.default_fault_space
           ~spec:(Ssos.Reinstall.weak_spec ())
           ~burst:10 ~warmup:10_000 ~horizon:120_000 ~oversubscribe:true ~jobs
           ~trials:6 ~seed:42L ()));
  check_function_of_run "sched" (fun ~jobs () -> ignore (sched_summary ~jobs));
  check_function_of_run "ring" (fun ~jobs () -> ignore (ring_summary ~jobs));
  check_function_of_run "rsm" (fun ~jobs () ->
      ignore (rsm_summary_run ~trials:3 ~jobs ()));
  let serve shards () =
    ignore
      (Ssos_serve.Engine.serve ~nodes:5 ~fault_rate:0.004 ~duration:1800
         ~shards ~jobs:shards ~seed:5L ())
  in
  let one = published (serve 1) in
  check_bool "serve: node counts published" true
    (List.mem_assoc "machine.ticks{id=rsm0}" one);
  check_rows "serve, shards 2" one (published (serve 2))

let suite =
  [ case "pool returns results in task order" test_pool_run_in_order;
    case "pool shares per-worker state" test_pool_run_with_shares_state;
    case "pool propagates task exceptions" test_pool_propagates_exception;
    case "heartbeat campaign: jobs differential against rebuild oracle"
      test_heartbeat_campaign_differential;
    case "sched campaign with code faults: jobs differential against rebuild oracle"
      test_sched_campaign_differential;
    case "snapshot-reset trials are independent"
      test_snapshot_reset_trials_are_independent;
    case "campaign is bit-identical with metrics on or off"
      test_campaign_obs_invariance;
    case "ring campaign: jobs differential"
      test_ring_campaign_jobs_differential;
    case "rsm campaign: jobs differential" test_rsm_campaign_differential;
    case "rsm campaign: snapshot reset against rebuild oracle"
      test_rsm_campaign_rebuild_oracle;
    case "primitive scheduler trials (T5, T13): engine against rebuild oracle"
      test_primitive_sched_against_rebuild;
    case "monitor trials with detection log (T8): engine against rebuild oracle"
      test_monitor_against_rebuild;
    case "token ring OS trials (T11): engine against rebuild oracle"
      test_token_os_against_rebuild;
    case "petted watchdog trials (T7): engine against rebuild oracle"
      test_petted_watchdog_against_rebuild;
    case "metrics are a function of the run: jobs and shards"
      test_metrics_function_of_run ]
