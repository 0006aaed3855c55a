(* Benchmark harness: regenerates every evaluation table (T1-T20, see
   DESIGN.md and EXPERIMENTS.md) on a full run, reports deterministic
   guest-cycle costs, times the clean ticks and campaign trials of the
   §3 and §4 designs, runs host-side micro-benchmarks of the simulator
   and tooling with Bechamel, and times the parallel snapshot-reset
   campaign engine (jobs pairs, and the per-trial prefix it saves over
   a rebuild).

   Usage:
     main.exe            full run; prints the tables and writes
                         BENCH_machine.json, BENCH_experiments.json,
                         BENCH_net.json, BENCH_rsm.json,
                         BENCH_fuzz.json and BENCH_adversary.json to
                         the current directory
     main.exe --smoke    quick harness exercise: short machine and
                         cluster campaign pairs + one short
                         quota-limited Bechamel pass, no tables and no
                         JSON written (wired to the [@bench-smoke] dune
                         alias; the tables have their own gate,
                         [@test/tables/tables]) *)

let smoke = Array.exists (( = ) "--smoke") Sys.argv

let run_tables () =
  List.iter
    (fun ((_, run) : string * (?jobs:int -> unit -> Ssos_experiments.Table.t)) ->
      Format.printf "%a@." Ssos_experiments.Table.pp (run ()))
    Ssos_experiments.Experiments.all

(* ------------------------------------------------- campaign engine *)

(* Host-side timing: [timed f] returns [f ()]'s result and the elapsed
   nanoseconds. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, (Unix.gettimeofday () -. t0) *. 1e9)

(* Domains for the jobs pairs: two where the host has them.  A jobs
   count above the core count only measures oversubscription. *)
let pair_jobs = min 2 (Domain.recommended_domain_count ())

(* A bit-identity a pair checks is also an assertion: a divergence ends
   the harness with an error, so [@bench-smoke] (part of [@ci]) fails on
   it. *)
let assert_identical what identical =
  if not identical then failwith (what ^ ": the two runs diverged")

(* The T1-style benchmark campaign: the section-3 reinstall design under
   the default fault space, timed as a jobs pair (one domain against
   [pair_jobs]) whose summaries must be identical, plus the per-trial
   prefix that snapshot reset saves over a fresh build and warmup. *)
let campaign_pair () =
  let trials = if smoke then 4 else 16 in
  let horizon = if smoke then 20_000 else 40_000 in
  let warmup = 10_000 in
  let burst = 10 in
  let space = Ssos.System.default_fault_space in
  let build () = Ssos.Reinstall.build () in
  let run_campaign ~jobs () =
    Ssos_experiments.Runner.heartbeat_campaign ~build ~space
      ~spec:(Ssos.Reinstall.weak_spec ())
      ~burst ~warmup ~horizon ~jobs ~trials ~seed:1L ()
  in
  let jobs_n = Printf.sprintf "jobs%d" pair_jobs in
  Format.printf "== Campaign engine (T1-style, %d trials) ==@." trials;
  let reset_summary, reset_ns = timed (run_campaign ~jobs:1) in
  let par_summary, par_ns = timed (run_campaign ~jobs:pair_jobs) in
  let identical = reset_summary = par_summary in
  Format.printf "  snapshot reset, jobs:1         %12.0f ns@." reset_ns;
  Format.printf "  snapshot reset, jobs:%d         %12.0f ns@." pair_jobs
    par_ns;
  Format.printf "  jobs:%d-vs-jobs:1 (reset):      %11.2fx@." pair_jobs
    (reset_ns /. par_ns);
  Format.printf "  summaries bit-identical:       %11s@."
    (if identical then "yes" else "NO (BUG)");
  assert_identical ("campaign-t1 jobs:1 vs " ^ jobs_n) identical;
  (* Per-trial prefix costs: what one trial would pay before its
     horizon run if it rebuilt — a fresh build plus warmup — vs the
     snapshot restore that follows a real trial (a fault burst and the
     horizon run), which copies back the pages that trial dirtied. *)
  let rounds = if smoke then 3 else 10 in
  let _, rebuild_total =
    timed (fun () ->
        for _ = 1 to rounds do
          let system = build () in
          Ssos.System.run system ~ticks:warmup
        done)
  in
  let rebuild_trial_ns = rebuild_total /. float_of_int rounds in
  let system = build () in
  Ssos.System.run system ~ticks:warmup;
  let machine = system.Ssos.System.machine in
  let snapshot = Ssx.Snapshot.capture machine in
  let reset_total = ref 0. in
  for round = 1 to rounds do
    let rng = Ssx_faults.Rng.create (Ssx_faults.Rng.derive 1L round) in
    ignore
      (Ssx_faults.Injector.inject_now (Ssos.System.fault_system system) ~rng
         ~space burst);
    Ssos.System.run system ~ticks:horizon;
    let (), ns = timed (fun () -> Ssx.Snapshot.restore snapshot machine) in
    reset_total := !reset_total +. ns
  done;
  let reset_trial_ns = !reset_total /. float_of_int rounds in
  Format.printf "  trial prefix, rebuild+warmup:  %12.0f ns@." rebuild_trial_ns;
  Format.printf "  trial prefix, snapshot reset:  %12.0f ns@." reset_trial_ns;
  Format.printf "  reset-vs-rebuild speedup:      %11.2fx@.@."
    (rebuild_trial_ns /. reset_trial_ns);
  [ ("campaign-t1-reset-jobs1-ns", reset_ns);
    ("campaign-t1-reset-" ^ jobs_n ^ "-ns", par_ns);
    ("campaign-reset-" ^ jobs_n ^ "-vs-jobs1-speedup", reset_ns /. par_ns);
    ("campaign-trials", float_of_int trials);
    ("campaign-summaries-identical", if identical then 1.0 else 0.0);
    ("trial-rebuild-warmup-ns", rebuild_trial_ns);
    ("trial-reset-ns", reset_trial_ns);
    (* Nanoseconds a snapshot reset saves over rebuild+warmup, per
       trial. *)
    ("trial-reset-vs-rebuild-ns", rebuild_trial_ns -. reset_trial_ns);
    ("trial-reset-speedup", rebuild_trial_ns /. reset_trial_ns) ]

(* Where campaign-t1's host time goes: its trials on one domain, split
   into exception storms and the rest.  The trial is campaign-t1's
   (restore, a 10-fault burst, 40,000 ticks, the judge) without the
   pool and the obs publishing.  A trial is a storm when more than a
   tenth of its ticks were exception entries: a corrupted IDTR sends
   every #UD back into faulting code until the watchdog's NMI. *)
let storm_split () =
  let trials = if smoke then 300 else 6_000 in
  let master = 77L and horizon = 40_000 in
  let system = Ssos.Reinstall.build () in
  Ssos.System.run system ~ticks:10_000;
  let machine = system.Ssos.System.machine in
  let snapshot = Ssx.Snapshot.capture machine in
  let counters = Ssx.Machine.tick_counters machine in
  let spec = Ssos.Reinstall.weak_spec () in
  let storms = ref 0 and recoveries = ref 0 in
  let storm_ns = ref 0. and ordinary_ns = ref 0. in
  for i = 0 to trials - 1 do
    let exceptions = counters.Ssx.Tick_counters.exceptions in
    let recovered, ns =
      timed (fun () ->
          Ssx.Snapshot.restore snapshot machine;
          ignore
            (Ssx_faults.Injector.inject_now (Ssos.System.fault_system system)
               ~rng:(Ssx_faults.Rng.create (Ssx_faults.Rng.derive master i))
               ~space:Ssos.System.default_fault_space 10);
          Ssos.System.run system ~ticks:horizon;
          Ssx_stab.Convergence.converged
            (Ssx_stab.Convergence.judge ~spec
               ~samples:(Ssx_devices.Heartbeat.samples system.Ssos.System.heartbeat)
               ~end_tick:(Ssx.Machine.ticks machine)))
    in
    if recovered then incr recoveries;
    if (counters.Ssx.Tick_counters.exceptions - exceptions) * 10 > horizon then begin
      incr storms;
      storm_ns := !storm_ns +. ns
    end
    else ordinary_ns := !ordinary_ns +. ns
  done;
  let share = !storm_ns /. (!storm_ns +. !ordinary_ns) in
  let ordinary_us = !ordinary_ns /. float_of_int (trials - !storms) /. 1e3 in
  Format.printf "== campaign-t1 split (%d trials, master 77, one domain) ==@."
    trials;
  Format.printf "  storm trials:                  %11d@." !storms;
  Format.printf "  storm share of host time:      %11.2f@." share;
  Format.printf "  ordinary trial:                %11.1f us@." ordinary_us;
  Format.printf "  recoveries:                    %11d@.@." !recoveries;
  [ ("campaign-t1-split-trials", float_of_int trials);
    ("campaign-t1-storm-trials", float_of_int !storms);
    ("campaign-t1-storm-share", share);
    ("campaign-t1-ordinary-trial-us", ordinary_us) ]

(* --------------------------------------------------- network cluster *)

(* Cluster throughput and the distributed campaign engine.  Same shape
   as the machine benchmarks: raw steps/sec for a benign and a lossy
   ring, a short ring campaign timed as a jobs pair (jobs:1 vs
   [pair_jobs]) whose summaries must be bit-identical, and the
   per-trial prefix that a cluster snapshot reset saves over a fresh
   build and warmup. *)
let net_bench () =
  let steps = if smoke then 600 else 6_000 in
  let throughput ~faults label =
    let ring = Ssos_net.Net_ring.build ~n:4 ?faults ~seed:7L () in
    Ssos_net.Cluster.run_sharded ring.Ssos_net.Net_ring.cluster ~steps:200;
    let _, ns =
      timed (fun () ->
          Ssos_net.Cluster.run_sharded ring.Ssos_net.Net_ring.cluster ~steps)
    in
    let per_sec = float_of_int steps /. (ns /. 1e9) in
    Format.printf "  %-30s %12.0f cluster-steps/sec@." label per_sec;
    per_sec
  in
  Format.printf "== Network cluster (4-node token ring, %d steps) ==@." steps;
  let benign = throughput ~faults:None "benign links" in
  let lossy =
    throughput
      ~faults:
        (Some
           (fun ~src:_ ~dst:_ ->
             Ssos_net.Link.lossy ~drop:0.2 ~max_delay:2 ()))
      "lossy links (drop 0.2)"
  in
  let trials = if smoke then 4 else 12 in
  let build () = Ssos_net.Net_ring.build ~n:4 ~seed:7L () in
  let warmup = 200 and horizon = 1_500 in
  let run_campaign ~jobs () =
    Ssos_experiments.Runner.summarize
      (Ssos_experiments.Runner.ring_campaign ~build
         ~perturb:Ssos_net.Net_ring.corrupt
         ~warmup ~horizon ~jobs ~trials ~seed:2L ())
  in
  let jobs_n = Printf.sprintf "jobs%d" pair_jobs in
  let reset_summary, reset_ns = timed (run_campaign ~jobs:1) in
  let par_summary, par_ns = timed (run_campaign ~jobs:pair_jobs) in
  let identical = reset_summary = par_summary in
  Format.printf "  ring campaign reset (jobs:1)   %12.0f ns@." reset_ns;
  Format.printf "  ring campaign reset (jobs:%d)   %12.0f ns@." pair_jobs
    par_ns;
  Format.printf "  summaries bit-identical:       %11s@."
    (if identical then "yes" else "NO (BUG)");
  assert_identical ("ring campaign jobs:1 vs " ^ jobs_n) identical;
  (* Per-trial prefix costs, as in [campaign_pair]: building the ring
     plus its warmup vs [Cluster.restore] after a real trial (the
     perturbation, then the horizon). *)
  let rounds = if smoke then 3 else 10 in
  let _, rebuild_total =
    timed (fun () ->
        for _ = 1 to rounds do
          let ring = build () in
          Ssos_net.Cluster.run_sharded ring.Ssos_net.Net_ring.cluster
            ~steps:warmup
        done)
  in
  let rebuild_trial_ns = rebuild_total /. float_of_int rounds in
  let ring = build () in
  let cluster = ring.Ssos_net.Net_ring.cluster in
  Ssos_net.Cluster.run_sharded cluster ~steps:warmup;
  let snapshot = Ssos_net.Cluster.capture cluster in
  let reset_total = ref 0. in
  for round = 1 to rounds do
    Ssos_net.Net_ring.corrupt
      (Ssx_faults.Rng.create (Ssx_faults.Rng.derive 2L round))
      ring;
    Ssos_net.Cluster.run_sharded cluster ~steps:horizon;
    let (), ns =
      timed (fun () ->
          Ssos_net.Cluster.restore cluster snapshot)
    in
    reset_total := !reset_total +. ns
  done;
  let reset_trial_ns = !reset_total /. float_of_int rounds in
  Format.printf "  ring trial prefix, rebuild+warmup: %8.0f ns@."
    rebuild_trial_ns;
  Format.printf "  ring trial prefix, reset:      %12.0f ns@." reset_trial_ns;
  Format.printf "  ring reset-vs-rebuild speedup: %11.2fx@.@."
    (rebuild_trial_ns /. reset_trial_ns);
  [ ("cluster-steps-per-sec", benign);
    ("cluster-steps-per-sec-lossy", lossy);
    ("ring-campaign-reset-jobs1-ns", reset_ns);
    ("ring-campaign-reset-" ^ jobs_n ^ "-ns", par_ns);
    ("ring-campaign-reset-" ^ jobs_n ^ "-vs-jobs1-speedup", reset_ns /. par_ns);
    ("ring-campaign-trials", float_of_int trials);
    ("ring-campaign-summaries-identical", if identical then 1.0 else 0.0);
    ("ring-trial-rebuild-warmup-ns", rebuild_trial_ns);
    ("ring-trial-reset-ns", reset_trial_ns);
    ("ring-trial-reset-speedup", rebuild_trial_ns /. reset_trial_ns) ]

(* Cluster scale: big rings on one shard against [shards] shards on
   min(shards, cores) domains — the same stepper either way, so the
   pair varies only the shard and domain count.  Latency 32 gives the
   shards a 31-step horizon, so barrier costs amortize; light slots (8
   guest ticks) and machines without the block compiler keep the
   *stepper* the bottleneck — this section measures stepper scaling,
   not interpreter speed, and at a thousand nodes per-machine jit
   tables would dominate memory.  The two runs must end in the same
   cluster digest. *)
let net_scale_bench () =
  let shards = 4 in
  let jobs = min shards (Domain.recommended_domain_count ()) in
  let sizes = if smoke then [ 64 ] else [ 64; 256; 1024 ] in
  let steps = if smoke then 200 else 2_000 in
  let reps = if smoke then 1 else 3 in
  Format.printf
    "== Cluster scale (ring, latency 32, %d steps, shards:1 vs shards:%d \
     on %d domains) ==@."
    steps shards jobs;
  let rows =
    List.concat_map
      (fun n ->
        let throughput ~shards ~jobs =
          let best = ref infinity and digest = ref "" in
          for _ = 1 to reps do
            let ring =
              Ssos_net.Net_ring.build ~n ~ticks_per_slot:8 ~latency:32
                ~seed:11L ()
            in
            Array.iter
              (fun sched -> Ssx.Machine.set_jit sched.Ssos.Sched.machine false)
              ring.Ssos_net.Net_ring.systems;
            let cluster = ring.Ssos_net.Net_ring.cluster in
            let run ~steps =
              Ssos_net.Cluster.run_sharded ~shards ~jobs cluster ~steps
            in
            run ~steps:64;
            let (), ns = timed (fun () -> run ~steps) in
            if ns < !best then best := ns;
            digest := Ssos_net.Cluster.digest cluster
          done;
          (float_of_int steps /. (!best /. 1e9), !digest)
        in
        let one_label = Printf.sprintf "n%d-shards1" n in
        let par_label = Printf.sprintf "n%d-shards%d-jobs%d" n shards jobs in
        let one, one_digest = throughput ~shards:1 ~jobs:1 in
        let par, par_digest = throughput ~shards ~jobs in
        Format.printf
          "  n=%-5d shards:1 %10.0f steps/sec   shards:%d jobs:%d %10.0f \
           steps/sec   %5.2fx   digests %s@."
          n one shards jobs par (par /. one)
          (if one_digest = par_digest then "identical" else "DIFFER (BUG)");
        assert_identical ("cluster scale " ^ par_label)
          (one_digest = par_digest);
        [ ("cluster-steps-per-sec-" ^ one_label, one);
          ("cluster-steps-per-sec-" ^ par_label, par);
          ( Printf.sprintf "cluster-%s-vs-shards1-speedup" par_label,
            par /. one ) ])
      sizes
  in
  Format.printf "@.";
  rows

(* ------------------------------------------------- replicated service *)

(* Client-request throughput of the lib/rsm replicated key-value
   service: requests committed per second and cluster steps per second
   while a seeded open-loop workload runs against a converged cluster.
   n=5 stays within the K=8 single-token guarantee; 16 and 64 measure
   how serving scales when the cluster is larger than the tag space
   (throughput only — see Service's docs).  The shards pair reruns the
   same workload on 4 shards through the serve engine's call,
   [Workload.run_epochs] (one epoch spanning the run), and checks the
   responses and the cluster digest are bit-identical. *)
let rsm_bench () =
  let sizes = if smoke then [ 5 ] else [ 5; 16; 64 ] in
  let steps = if smoke then 400 else 2_000 in
  Format.printf "== Replicated state machine (lib/rsm, %d serve steps) ==@."
    steps;
  let size_rows =
    List.concat_map
      (fun n ->
        let service = Ssos_rsm.Service.build ~n ~seed:21L () in
        Ssos_net.Cluster.run_sharded service.Ssos_rsm.Service.cluster
          ~steps:400;
        let wl =
          Ssos_rsm.Workload.open_loop ~rate:0.05 ~slots:((steps / n) + 1)
            ~seed:22L service
        in
        Ssos_rsm.Workload.discard wl;
        let (), ns = timed (fun () -> Ssos_rsm.Workload.run wl ~steps) in
        let steps_per_sec = float_of_int steps /. (ns /. 1e9) in
        let committed = Ssos_rsm.Workload.committed wl in
        let requests_per_sec = float_of_int committed /. (ns /. 1e9) in
        Format.printf
          "  n=%-4d %10.0f cluster-steps/sec %8.0f committed-requests/sec \
           (%d/%d answered)@."
          n steps_per_sec requests_per_sec committed
          (Ssos_rsm.Workload.injected wl);
        [ (Printf.sprintf "rsm-steps-per-sec-n%d" n, steps_per_sec);
          (Printf.sprintf "rsm-requests-per-sec-n%d" n, requests_per_sec) ])
      sizes
  in
  let serve shards =
    let service =
      Ssos_rsm.Service.build ~n:5 ~latency:3 ~seed:23L ()
    in
    Ssos_net.Cluster.run_sharded service.Ssos_rsm.Service.cluster ~steps:400;
    let wl =
      Ssos_rsm.Workload.open_loop ~rate:0.05 ~slots:((steps / 5) + 1)
        ~seed:23L service
    in
    Ssos_rsm.Workload.discard wl;
    let (), ns =
      timed (fun () ->
          Ssos_rsm.Workload.run_epochs ~shards wl ~epoch:steps ~steps
            ~on_epoch:ignore)
    in
    ( Ssos_rsm.Workload.responses wl,
      Ssos_net.Cluster.digest service.Ssos_rsm.Service.cluster,
      ns )
  in
  let seq_resp, seq_digest, seq_ns = serve 1 in
  let par_resp, par_digest, par_ns = serve 4 in
  let identical = seq_resp = par_resp && seq_digest = par_digest in
  Format.printf "  serve seq (shards:1)  %12.0f ns@." seq_ns;
  Format.printf "  serve par (shards:4)  %12.0f ns@." par_ns;
  Format.printf "  responses+digest bit-identical: %s@.@."
    (if identical then "yes" else "NO (BUG)");
  assert_identical "rsm serve shards:1 vs shards:4" identical;
  size_rows
  @ [ ("rsm-serve-seq-ns", seq_ns);
      ("rsm-serve-par-ns", par_ns);
      ("rsm-serve-shard-speedup", seq_ns /. par_ns);
      ("rsm-serve-shards-identical", if identical then 1.0 else 0.0) ]

(* Differential-fuzzer throughput: a fixed-seed campaign against the
   lib/fuzz reference-interpreter oracle — jobs:1 vs jobs:[pair_jobs]
   (with the block compiler, the default) plus a jobs:1 pass through
   the plain interpreter.  All summaries must be bit-identical (shard
   seeds depend only on the campaign seed, results merge in shard
   order, and the compiler never changes observable execution); the
   interesting numbers are trial programs/sec and lock-step
   ticks/sec. *)
let fuzz_bench () =
  let iters = if smoke then 300 else 2_000 in
  Format.printf "== Differential fuzzer (%d programs, seed 9) ==@." iters;
  let run ~jit jobs =
    timed (fun () -> Ssx_fuzz.Fuzz_loop.run ~jobs ~jit ~seed:9L ~iters ())
  in
  let jobs_n = Printf.sprintf "jobs%d" pair_jobs in
  let seq_summary, seq_ns = run ~jit:true 1 in
  let par_summary, par_ns = run ~jit:true pair_jobs in
  let nojit_summary, nojit_ns = run ~jit:false 1 in
  let rate ns = float_of_int iters /. (ns /. 1e9) in
  let tick_rate summary ns =
    float_of_int summary.Ssx_fuzz.Fuzz_loop.total_ticks /. (ns /. 1e9)
  in
  let identical = seq_summary = par_summary && seq_summary = nojit_summary in
  Format.printf "  jobs:1 %12.0f programs/sec %12.0f ticks/sec@."
    (rate seq_ns) (tick_rate seq_summary seq_ns);
  Format.printf "  jobs:%d %12.0f programs/sec %12.0f ticks/sec@." pair_jobs
    (rate par_ns) (tick_rate par_summary par_ns);
  Format.printf "  no-jit %12.0f programs/sec %12.0f ticks/sec@."
    (rate nojit_ns) (tick_rate nojit_summary nojit_ns);
  Format.printf "  jit ticks/sec speedup:         %11.2fx@."
    (nojit_ns /. seq_ns);
  Format.printf "  summaries bit-identical:       %11s@.@."
    (if identical then "yes" else "NO (BUG)");
  assert_identical ("fuzz jobs:1 vs " ^ jobs_n ^ " vs no-jit") identical;
  [ ("fuzz-programs-per-sec-jobs1", rate seq_ns);
    ("fuzz-programs-per-sec-" ^ jobs_n, rate par_ns);
    ("fuzz-programs-per-sec-nojit", rate nojit_ns);
    ("fuzz-ticks-per-sec-jobs1", tick_rate seq_summary seq_ns);
    ("fuzz-ticks-per-sec-" ^ jobs_n, tick_rate par_summary par_ns);
    ("fuzz-ticks-per-sec-nojit", tick_rate nojit_summary nojit_ns);
    ("fuzz-jit-speedup", nojit_ns /. seq_ns);
    ("fuzz-" ^ jobs_n ^ "-vs-jobs1-speedup", seq_ns /. par_ns);
    ("fuzz-programs", float_of_int iters);
    ("fuzz-coverage-points",
     float_of_int seq_summary.Ssx_fuzz.Fuzz_loop.coverage_points);
    ("fuzz-divergences",
     float_of_int (List.length seq_summary.Ssx_fuzz.Fuzz_loop.divergences));
    ("fuzz-summaries-identical", if identical then 1.0 else 0.0) ]

(* ----------------------------------------------------------- adversary *)

(* The exhaustive abstract checker and the adversarial scheduling
   daemons (DESIGN.md §4j): configurations analyzed per second by
   Model.analyze — one BFS plus one backward-induction pass over all
   K^n ring configurations — and cluster throughput under the
   state-inspecting adaptive daemon, whose per-step guard inspection
   and scoring is the interesting overhead against the round-robin
   baseline. *)
let adversary_bench () =
  let n, k = if smoke then (4, 5) else (6, 7) in
  let table = ref None in
  let (), analyze_ns =
    timed (fun () ->
        table := Some (Ssx_stab.Model.analyze ~n ~k))
  in
  let tb = Option.get !table in
  let size = tb.Ssx_stab.Model.model.Ssx_stab.Model.size in
  let configs_per_sec = float_of_int size /. (analyze_ns /. 1e9) in
  Format.printf "== Adversary (checker + adaptive daemon) ==@.";
  Format.printf
    "  checker n=%d K=%d: %d configs  %12.0f configs/sec  (worst-case \
     bound %d, divergent %d)@."
    n k size configs_per_sec
    (Ssx_stab.Model.worst_bound tb)
    (Ssx_stab.Model.divergent tb);
  let steps = if smoke then 600 else 6_000 in
  let throughput label policy =
    let ring = Ssos_net.Net_ring.build ~n:4 ~policy ~seed:31L () in
    Ssos_net.Cluster.run_sharded ring.Ssos_net.Net_ring.cluster ~steps:200;
    let (), ns =
      timed (fun () ->
          Ssos_net.Cluster.run_sharded ring.Ssos_net.Net_ring.cluster ~steps)
    in
    let per_sec = float_of_int steps /. (ns /. 1e9) in
    Format.printf "  %-30s %12.0f cluster-steps/sec@." label per_sec;
    per_sec
  in
  let rr =
    throughput "round-robin baseline" Ssos_net.Cluster.Round_robin
  in
  let adaptive =
    throughput "adaptive daemon"
      (Ssos_net.Cluster.Daemon
         (Ssx_stab.Adversary.adaptive ~k:Ssos_net.Net_ring.k ()))
  in
  Format.printf "  adaptive daemon overhead:      %11.2fx@.@."
    (rr /. adaptive);
  [ ("model-analyze-configs", float_of_int size);
    ("model-analyze-ns", analyze_ns);
    ("model-analyze-configs-per-sec", configs_per_sec);
    ("model-worst-bound", float_of_int (Ssx_stab.Model.worst_bound tb));
    ("adversary-ring-steps-per-sec-round-robin", rr);
    ("adversary-ring-steps-per-sec-adaptive", adaptive);
    ("adaptive-daemon-overhead", rr /. adaptive) ]

(* Guest-cycle costs are deterministic properties of the designs, not
   host-time measurements: report them by direct simulation. *)
let guest_cycle_costs () =
  let reinstall_cost = 8 + Ssos.Layout.os_image_size + 7 in
  let switch_cost ~refresh =
    let sched = Ssos.Sched.build ~refresh () in
    let machine = sched.Ssos.Sched.machine in
    let cpu = Ssx.Machine.cpu machine in
    let entry = ref None and costs = ref [] in
    for _ = 1 to 300_000 do
      match Ssx.Machine.tick machine with
      | Ssx.Cpu.Took_interrupt { nmi = true; _ } ->
        entry := Some (Ssx.Machine.ticks machine)
      | Ssx.Cpu.Executed _ -> (
        let cs = cpu.Ssx.Cpu.regs.Ssx.Registers.cs in
        match !entry with
        | Some t0
          when cs >= Ssos.Layout.proc_segment 0
               && cs <= Ssos.Layout.proc_segment sched.Ssos.Sched.n ->
          costs := (Ssx.Machine.ticks machine - t0) :: !costs;
          entry := None
        | Some _ | None -> ())
      | _ -> ()
    done;
    match !costs with
    | [] -> 0.
    | costs ->
      float_of_int (List.fold_left ( + ) 0 costs) /. float_of_int (List.length costs)
  in
  [ ("figure1-reinstall-ticks", float_of_int reinstall_cost);
    ("sched-context-switch-refresh-ticks", switch_cost ~refresh:true);
    ("sched-context-switch-norefresh-ticks", switch_cost ~refresh:false) ]

(* Where the §4 design's campaign time goes.  Ns per clean tick for
   three design/guest pairs, each restored from its own warmed snapshot
   before every timed block, min over interleaved rounds: reinstall on
   the heartbeat kernel (the guest of T1 and campaign-t1), and
   reinstall and the monitor on the task kernel (the monitor's guest).
   A fourth slot in the same rounds times a storm tick: master 77's
   campaign-t1 trial 31 (reinstall, 10,000 warmup ticks, a 10-fault
   burst), whose burst corrupts the IDTR into a #UD that vectors to
   the opcode that raised it, 2,000 ticks into the storm; its block
   ends before the watchdog's NMI, 40,000 ticks after the burst.  Then
   the per-trial time of a burst-40, jobs-1 campaign of reinstall and
   of the monitor, both on the task kernel, min over interleaved
   rounds; their ratio is the monitor's cost over reinstall on the
   same guest. *)
let design_costs () =
  (* Min of [measure slot] over interleaved rounds, the order rotated
     each round so no slot always runs first. *)
  let min_interleaved ~rounds n measure =
    let best = Array.make n infinity in
    for rep = 0 to rounds - 1 do
      for k = 0 to n - 1 do
        let slot = (rep + k) mod n in
        best.(slot) <- Float.min best.(slot) (measure slot)
      done
    done;
    best
  in
  let rounds = if smoke then 2 else 15 in
  let block = if smoke then 20_000 else 200_000 in
  let storm_block = if smoke then 20_000 else 36_000 in
  let monitor () = (Ssos.Monitor.build ()).Ssos.Monitor.system in
  let reinstall_task () =
    Ssos.Reinstall.build ~guest:(Ssos.Guest.task_kernel ()) ()
  in
  let warm build () =
    let system = build () in
    Ssos.System.run system ~ticks:30_000;
    system
  in
  let storm () =
    let system = Ssos.Reinstall.build () in
    Ssos.System.run system ~ticks:10_000;
    ignore
      (Ssx_faults.Injector.inject_now (Ssos.System.fault_system system)
         ~rng:(Ssx_faults.Rng.create (Ssx_faults.Rng.derive 77L 31))
         ~space:Ssos.System.default_fault_space 10);
    Ssos.System.run system ~ticks:2_000;
    system
  in
  (* Row name, warmed system, ticks per timed block. *)
  let slots =
    [| ("clean-tick-reinstall-heartbeat", warm (fun () -> Ssos.Reinstall.build ()), block);
       ("clean-tick-reinstall-task", warm reinstall_task, block);
       ("clean-tick-monitor-task", warm monitor, block);
       ("storm-tick", storm, storm_block) |]
  in
  let warmed =
    Array.map
      (fun (_, warmed, _) ->
        let machine = (warmed ()).Ssos.System.machine in
        (machine, Ssx.Snapshot.capture machine))
      slots
  in
  let tick_ns =
    min_interleaved ~rounds (Array.length slots) (fun slot ->
        let machine, snapshot = warmed.(slot) in
        let _, _, ticks = slots.(slot) in
        Ssx.Snapshot.restore snapshot machine;
        let (), ns = timed (fun () -> Ssx.Machine.run machine ~ticks) in
        ns /. float_of_int ticks)
  in
  let trials = if smoke then 4 else 100 in
  let campaign_rounds = if smoke then 1 else 3 in
  let campaigns =
    [| ("reinstall-task", reinstall_task); ("monitor-task", monitor) |]
  in
  let summaries = Array.make 2 None in
  let trial_ns =
    min_interleaved ~rounds:campaign_rounds 2 (fun slot ->
        let name, build = campaigns.(slot) in
        let summary, ns =
          timed (fun () ->
              Ssos_experiments.Runner.heartbeat_campaign ~build
                ~space:Ssos.System.default_fault_space
                ~spec:(Ssos.Reinstall.weak_spec ())
                ~burst:40 ~jobs:1 ~trials ~seed:3L ())
        in
        (match summaries.(slot) with
        | None -> summaries.(slot) <- Some summary
        | Some first ->
          assert_identical ("design campaign " ^ name) (first = summary));
        ns /. float_of_int trials)
  in
  let ratio = trial_ns.(1) /. trial_ns.(0) in
  let tick_rows =
    Array.to_list
      (Array.mapi (fun i (name, _, _) -> (name ^ "-ns", tick_ns.(i))) slots)
  in
  let trial_rows =
    Array.to_list
      (Array.mapi
         (fun i (name, _) -> ("campaign-trial-" ^ name ^ "-ns", trial_ns.(i)))
         campaigns)
  in
  Format.printf
    "== Design costs (min of %d rounds; campaigns: %d trials, burst 40, \
     jobs 1, min of %d) ==@."
    rounds trials campaign_rounds;
  List.iter
    (fun (name, v) -> Format.printf "  %-34s %12.1f@." name v)
    (tick_rows @ trial_rows);
  Format.printf "  monitor-vs-reinstall (task):       %11.2fx@.@." ratio;
  [ ("design-cost-rounds", float_of_int rounds);
    ("design-cost-block-ticks", float_of_int block);
    ("storm-block-ticks", float_of_int storm_block) ]
  @ tick_rows
  @ [ ("design-campaign-trials", float_of_int trials);
      ("design-campaign-rounds", float_of_int campaign_rounds) ]
  @ trial_rows
  @ [ ("campaign-monitor-vs-reinstall-task", ratio) ]

let print_guest_cycle_costs costs =
  Format.printf "== Guest-cycle costs (simulated ticks, deterministic) ==@.";
  List.iter
    (fun (name, v) -> Format.printf "  %-38s %8.0f@." name v)
    costs;
  Format.printf "@."

let micro_tests () =
  let open Bechamel in
  (* The execution-engine pair: the same reinstall system warmed into
     its steady state, run through the basic-block compiler (the
     default) and through the interpreter, which decodes the raw bytes
     every tick.  Warming matters — it fills the block table and gets
     the OS past its boot path so both benchmarks measure the
     steady-state watchdog/reinstall loop. *)
  let warmed ~jit =
    let system = Ssos.Reinstall.build () in
    Ssx.Machine.set_jit system.Ssos.System.machine jit;
    Ssos.System.run system ~ticks:30_000;
    system
  in
  let tick_jit = warmed ~jit:true in
  let tick_uncached = warmed ~jit:false in
  let machine_tick_jit =
    Test.make ~name:"machine-tick-x100-jit"
      (Staged.stage (fun () ->
           Ssx.Machine.run tick_jit.Ssos.System.machine ~ticks:100))
  in
  (* A serve replica: the §5.2 scheduler on a watchdog NMI (with its
     [rep movsb] code refresh) plus a client NIC and a ring NIC, warmed
     inside a running service and then ticked on its own.  Built as a
     per-row resource so its cluster's arrays do not sit in the heap
     while the other rows run. *)
  let machine_tick_rsm_node =
    Test.make_with_resource ~name:"machine-tick-x100-jit-rsm-node" Test.uniq
      ~allocate:(fun () ->
        let service = Ssos_rsm.Service.build ~n:5 ~latency:2 ~seed:7L () in
        let cluster = service.Ssos_rsm.Service.cluster in
        Ssos_net.Cluster.run_sharded cluster ~steps:600;
        Ssos_net.Cluster.machine cluster 0)
      ~free:ignore
      (Staged.stage (fun node -> Ssx.Machine.run node ~ticks:100))
  in
  let machine_tick_uncached =
    Test.make ~name:"machine-tick-x100-uncached"
      (Staged.stage (fun () ->
           Ssx.Machine.run tick_uncached.Ssos.System.machine ~ticks:100))
  in
  let assemble_figure1 =
    Test.make ~name:"assemble-figure1"
      (Staged.stage (fun () ->
           ignore
             (Ssx_asm.Assemble.assemble
                ~symbols:Ssos.Rom_builder.layout_symbols
                Ssos.Reinstall.figure1_source)))
  in
  let assemble_scheduler =
    Test.make ~name:"assemble-scheduler"
      (Staged.stage (fun () ->
           ignore
             (Ssx_asm.Assemble.assemble
                ~symbols:Ssos.Rom_builder.layout_symbols
                Ssos.Sched.figures_2_to_5_source)))
  in
  let guest = Ssos.Guest.heartbeat_kernel () in
  let guest_image = Ssos.Guest.image_bytes guest in
  let disassemble =
    Test.make ~name:"disassemble-4KiB-image"
      (Staged.stage (fun () -> ignore (Ssx_asm.Disasm.disassemble guest_image)))
  in
  let build_system =
    Test.make ~name:"build-reinstall-system"
      (Staged.stage (fun () -> ignore (Ssos.Reinstall.build ())))
  in
  Test.make_grouped ~name:"micro"
    [ machine_tick_jit; machine_tick_rsm_node; machine_tick_uncached;
      assemble_figure1; assemble_scheduler; disassemble; build_system ]

(* Runs a Bechamel test group and returns [(name, ns_per_run)] rows,
   sorted by name.  The campaign sections above leave a large major
   heap behind; compact it first so the OLS slopes measure the timed
   loop rather than straggler GC work.  No per-sample GC stabilisation:
   a full major collection before every sample evicts the machine's
   working set from cache, and on a 2-core 2.1 GHz Xeon VM the same
   warmed [machine-tick-x100-jit] then read 2.7 µs and 5.7 µs in two
   consecutive passes of one process, against 1.07 and 1.11 µs
   without it. *)
let bechamel_rows tests =
  Gc.compact ();
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    if smoke then Benchmark.cfg ~limit:200 ~stabilize:false ~quota:(Time.second 0.05) ()
    else Benchmark.cfg ~limit:2000 ~stabilize:false ~quota:(Time.second 0.5) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some [ estimate ] -> (name, estimate) :: acc
      | Some _ | None -> acc)
    results []
  |> List.sort compare

let run_micro () =
  Format.printf "== Micro-benchmarks (host time, Bechamel OLS%s) ==@."
    (if smoke then ", smoke quota" else "");
  let rows = bechamel_rows (micro_tests ()) in
  List.iter
    (fun (name, ns) -> Format.printf "  %-28s %12.1f ns/run@." name ns)
    rows;
  (match
     ( List.assoc_opt "micro/machine-tick-x100-jit" rows,
       List.assoc_opt "micro/machine-tick-x100-uncached" rows )
   with
  | Some jit, Some uncached when jit > 0. ->
    Format.printf "  block-compiler speedup:      %11.2fx@." (uncached /. jit)
  | _ -> ());
  Format.printf "@.";
  rows

(* Flat JSON object of benchmark name -> number, so runs can be diffed
   mechanically.  Written by hand to keep the harness dependency-free.
   Every file leads with [cores]: a row labelled jobs:4 runs
   min(4, cores) domains after {!Pool}'s clamp. *)
let write_flat_json ~path rows =
  let rows =
    ("cores", float_of_int (Domain.recommended_domain_count ())) :: rows
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "  %S: %.2f%s\n" name v
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "}\n";
  close_out oc;
  Format.printf "wrote %s@." path

let write_json ~path micro costs =
  let json_name name =
    (* Strip Bechamel's group prefix; names contain no characters that
       need escaping. *)
    match String.index_opt name '/' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  let rows =
    List.map (fun (n, v) -> (json_name n ^ "-ns-per-run", v)) micro @ costs
  in
  let rows =
    match
      ( List.assoc_opt "micro/machine-tick-x100-jit" micro,
        List.assoc_opt "micro/machine-tick-x100-uncached" micro )
    with
    | Some jit, Some uncached when jit > 0. ->
      rows @ [ ("jit-speedup", uncached /. jit) ]
    | _ -> rows
  in
  write_flat_json ~path rows

let () =
  Format.printf
    "ssos benchmark harness - reproduction of 'Toward Self-Stabilizing \
     Operating Systems' (Dolev & Yagel)@.@.";
  if not smoke then run_tables ();
  let campaign_rows = campaign_pair () in
  let campaign_rows = campaign_rows @ storm_split () in
  let net_rows = net_bench () @ net_scale_bench () in
  let rsm_rows = rsm_bench () in
  let fuzz_rows = fuzz_bench () in
  let adversary_rows = adversary_bench () in
  let costs = guest_cycle_costs () in
  print_guest_cycle_costs costs;
  let design_rows = design_costs () in
  let micro = run_micro () in
  if not smoke then begin
    write_json ~path:"BENCH_machine.json" micro (costs @ design_rows);
    write_flat_json ~path:"BENCH_experiments.json" campaign_rows;
    write_flat_json ~path:"BENCH_net.json" net_rows;
    write_flat_json ~path:"BENCH_rsm.json" rsm_rows;
    write_flat_json ~path:"BENCH_fuzz.json" fuzz_rows;
    write_flat_json ~path:"BENCH_adversary.json" adversary_rows
  end
