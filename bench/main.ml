(* Benchmark harness: reports deterministic guest-cycle costs and times
   the simulator's cost questions — clean and storm ticks of the §3 and
   §4 designs, the block compiler against the interpreter, the §4
   monitor's campaign trials against §3 reinstall's, snapshot reset
   against a rebuild, jobs and shards pairs, the cluster, the
   replicated service, the fuzzer and the checker.  The evaluation
   tables T1-T20 are `ssos experiment all`'s, gated by
   [@test/tables/tables].

   Every timed row but [storm_split]'s comes from [interleaved]: a
   question is a group of slots measured in the same rounds, and a
   slot's row is its minimum over the rounds.  A ratio row divides
   minima of the same rounds, so host drift between rounds moves both
   sides together.  Each group writes its round count.

   Usage:
     main.exe            full run; writes BENCH_machine.json,
                         BENCH_experiments.json, BENCH_net.json,
                         BENCH_rsm.json, BENCH_fuzz.json and
                         BENCH_adversary.json to the current directory
     main.exe --smoke    quick harness exercise: every group at 2
                         rounds on short inputs, no JSON written (wired
                         to the [@bench-smoke] dune alias) *)

let smoke = Array.exists (( = ) "--smoke") Sys.argv

(* Rounds of a group whose slots take milliseconds; groups of slower
   slots set their own. *)
let rounds = if smoke then 2 else 15

(* Host-side timing: [timed f] returns [f ()]'s result and the elapsed
   nanoseconds. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, (Unix.gettimeofday () -. t0) *. 1e9)

(* The one timing method.  [interleaved ~rounds slots] runs every slot
   once per round, the order rotated each round so no slot always runs
   first, and returns each slot's minimum.  A slot returns the
   nanoseconds it timed with [timed]: work around its timed part (a
   restore, a fault burst) stays out of its row. *)
let interleaved ~rounds slots =
  let n = Array.length slots in
  let best = Array.make n infinity in
  for round = 0 to rounds - 1 do
    for k = 0 to n - 1 do
      let slot = (round + k) mod n in
      best.(slot) <- Float.min best.(slot) (slots.(slot) ())
    done
  done;
  best

(* A bit-identity the runs of a group must keep is also an assertion:
   [same what] is a check that every result it is given equals the
   first, which [result ()] returns.  A divergence ends the harness with
   an error, so [@bench-smoke] (part of [@ci]) fails on it. *)
let same what =
  let first = ref None in
  let check r =
    match !first with
    | None -> first := Some r
    | Some f -> if f <> r then failwith (what ^ ": the runs diverged")
  in
  (check, fun () -> Option.get !first)

(* A slot that times all of [f] and hands its result to [check]. *)
let checked check f () =
  let result, ns = timed f in
  check result;
  ns

let print_rows title rows =
  Format.printf "== %s ==@." title;
  List.iter (fun (name, v) -> Format.printf "  %-46s %16.2f@." name v) rows;
  Format.printf "@.";
  rows

(* Domains for the jobs pairs: two where the host has them.  A jobs
   count above the core count only measures oversubscription. *)
let pair_jobs = min 2 (Domain.recommended_domain_count ())

let jobs_n = Printf.sprintf "jobs%d" pair_jobs

(* A jobs pair: [campaign ~jobs] at jobs 1 and at [pair_jobs].  Every
   run must end in the same summary. *)
let jobs_pair ~name ~trials campaign =
  let check, _ = same (name ^ " jobs:1 vs " ^ jobs_n) in
  let ns =
    interleaved ~rounds
      [| checked check (fun () -> campaign ~jobs:1);
         checked check (fun () -> campaign ~jobs:pair_jobs) |]
  in
  [ (name ^ "-rounds", float_of_int rounds);
    (name ^ "-trials", float_of_int trials);
    (name ^ "-reset-jobs1-ns", ns.(0));
    (name ^ "-reset-" ^ jobs_n ^ "-ns", ns.(1));
    (name ^ "-reset-" ^ jobs_n ^ "-vs-jobs1-speedup", ns.(0) /. ns.(1)) ]

(* A prefix pair: what one trial would pay before its horizon run if it
   rebuilt — [rebuild], a fresh build plus warmup — against the
   snapshot [restore] that follows a real trial, which copies back what
   that trial dirtied.  Ten trials are a slot each, [trial i] untimed
   and then a timed restore, and the reset row is the mean of their
   minima: a restore takes microseconds, near the stopwatch's
   resolution, and each trial dirties its own pages. *)
let prefix_pair ~name ~rebuild ~trial ~restore =
  let trials = 10 in
  let ns =
    interleaved ~rounds
      (Array.init (trials + 1) (fun i () ->
           if i = 0 then snd (timed rebuild)
           else begin
             trial i;
             snd (timed restore)
           end))
  in
  let reset = (Array.fold_left ( +. ) 0. ns -. ns.(0)) /. float_of_int trials in
  [ (name ^ "-rounds", float_of_int rounds);
    (name ^ "-rebuild-warmup-ns", ns.(0));
    (name ^ "-reset-ns", reset);
    (name ^ "-reset-speedup", ns.(0) /. reset) ]

(* [cluster] after [warmup] steps, and its capture. *)
let warmed cluster ~warmup =
  Ssos_net.Cluster.run_sharded cluster ~steps:warmup;
  (cluster, Ssos_net.Cluster.capture cluster)

(* A slot that restores the capture and times [steps] steps: every
   round times the same steps from the same state. *)
let stepping (cluster, snapshot) ~steps () =
  Ssos_net.Cluster.restore cluster snapshot;
  snd (timed (fun () -> Ssos_net.Cluster.run_sharded cluster ~steps))

let per_sec count ns = float_of_int count /. (ns /. 1e9)

(* ------------------------------------------------- campaign engine *)

(* The T1-style benchmark campaign: the section-3 reinstall design under
   the default fault space, as a jobs pair, plus the per-trial prefix
   that snapshot reset saves over a fresh build and warmup. *)
let campaign_bench () =
  let trials = if smoke then 4 else 16 in
  let horizon = if smoke then 20_000 else 40_000 in
  let warmup = 10_000 in
  let burst = 10 in
  let space = Ssos.System.default_fault_space in
  let build () = Ssos.Reinstall.build () in
  let jobs_rows =
    jobs_pair ~name:"campaign-t1" ~trials (fun ~jobs ->
        Ssos_experiments.Runner.heartbeat_campaign ~build ~space
          ~spec:(Ssos.Reinstall.weak_spec ())
          ~burst ~warmup ~horizon ~jobs ~trials ~seed:1L ())
  in
  let system = build () in
  Ssos.System.run system ~ticks:warmup;
  let machine = system.Ssos.System.machine in
  let snapshot = Ssx.Snapshot.capture machine in
  let prefix_rows =
    prefix_pair ~name:"trial"
      ~rebuild:(fun () -> Ssos.System.run (build ()) ~ticks:warmup)
      ~trial:(fun i ->
        ignore
          (Ssx_faults.Injector.inject_now (Ssos.System.fault_system system)
             ~rng:(Ssx_faults.Rng.create (Ssx_faults.Rng.derive 1L i))
             ~space burst);
        Ssos.System.run system ~ticks:horizon)
      ~restore:(fun () -> Ssx.Snapshot.restore snapshot machine)
  in
  print_rows
    (Printf.sprintf "Campaign engine (T1-style, %d trials)" trials)
    (jobs_rows @ prefix_rows)

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

(* Cluster throughput and the distributed campaign engine, in the same
   shape as the machine benchmarks: steps/sec of a benign and a lossy
   ring, a short ring campaign as a jobs pair, and the per-trial prefix
   that a cluster snapshot reset saves over a fresh build and warmup. *)
let net_bench () =
  let steps = if smoke then 600 else 6_000 in
  let ring ?faults () =
    (Ssos_net.Net_ring.build ~n:4 ?faults ~seed:7L ()).Ssos_net.Net_ring.cluster
  in
  let lossy ~src:_ ~dst:_ = Ssos_net.Link.lossy ~drop:0.2 ~max_delay:2 () in
  let ns =
    interleaved ~rounds
      [| stepping (warmed (ring ()) ~warmup:200) ~steps;
         stepping (warmed (ring ~faults:lossy ()) ~warmup:200) ~steps |]
  in
  let throughput_rows =
    [ ("cluster-steps-rounds", float_of_int rounds);
      ("cluster-steps-per-sec", per_sec steps ns.(0));
      ("cluster-steps-per-sec-lossy", per_sec steps ns.(1)) ]
  in
  let trials = if smoke then 4 else 12 in
  let build () = Ssos_net.Net_ring.build ~n:4 ~seed:7L () in
  let warmup = 200 and horizon = 1_500 in
  let jobs_rows =
    jobs_pair ~name:"ring-campaign" ~trials (fun ~jobs ->
        Ssos_experiments.Runner.summarize
          (Ssos_experiments.Runner.ring_campaign ~build
             ~perturb:Ssos_net.Net_ring.corrupt
             ~warmup ~horizon ~jobs ~trials ~seed:2L ()))
  in
  let ring = build () in
  let cluster, snapshot = warmed ring.Ssos_net.Net_ring.cluster ~warmup in
  let prefix_rows =
    prefix_pair ~name:"ring-trial"
      ~rebuild:(fun () ->
        Ssos_net.Cluster.run_sharded (build ()).Ssos_net.Net_ring.cluster
          ~steps:warmup)
      ~trial:(fun i ->
        Ssos_net.Net_ring.corrupt
          (Ssx_faults.Rng.create (Ssx_faults.Rng.derive 2L i))
          ring;
        Ssos_net.Cluster.run_sharded cluster ~steps:horizon)
      ~restore:(fun () -> Ssos_net.Cluster.restore cluster snapshot)
  in
  print_rows
    (Printf.sprintf "Network cluster (4-node token ring, %d steps)" steps)
    (throughput_rows @ jobs_rows @ prefix_rows)

(* Cluster scale: big rings on one shard against [shards] shards on
   min(shards, cores) domains — the same stepper either way, so the
   pair varies only the shard and domain count.  Latency 32 gives the
   shards a 31-step horizon, so barrier costs amortize; light slots (8
   guest ticks) and machines without the block compiler keep the
   *stepper* the bottleneck — this section measures stepper scaling,
   not interpreter speed, and at a thousand nodes per-machine jit
   tables would dominate memory.  Each run times a fresh ring after 64
   warmup steps, and the first runs of the two slots must end in the
   same cluster digest.  At n = 1,024 a ring holds 1.4 GB and a digest
   captures every node again, so a run builds its ring after a full
   collection has freed the previous one, and later rounds skip the
   digest; a capture to restore from would hold another GB. *)
let net_scale_bench () =
  let shards = 4 in
  let jobs = min shards (Domain.recommended_domain_count ()) in
  let sizes = if smoke then [ 64 ] else [ 64; 256; 1024 ] in
  let steps = if smoke then 200 else 2_000 in
  let rounds = if smoke then 2 else 3 in
  let pair n =
    let par_label = Printf.sprintf "n%d-shards%d-jobs%d" n shards jobs in
    let check, _ = same ("cluster scale " ^ par_label) in
    let slot ~shards ~jobs =
      let first = ref true in
      fun () ->
        Gc.full_major ();
        let ring =
          Ssos_net.Net_ring.build ~n ~ticks_per_slot:8 ~latency:32 ~seed:11L ()
        in
        Array.iter
          (fun sched -> Ssx.Machine.set_jit sched.Ssos.Sched.machine false)
          ring.Ssos_net.Net_ring.systems;
        let cluster = ring.Ssos_net.Net_ring.cluster in
        Ssos_net.Cluster.run_sharded cluster ~steps:64;
        let (), ns =
          timed (fun () -> Ssos_net.Cluster.run_sharded ~shards ~jobs cluster ~steps)
        in
        if !first then begin
          first := false;
          check (Ssos_net.Cluster.digest cluster)
        end;
        ns
    in
    let ns =
      interleaved ~rounds [| slot ~shards:1 ~jobs:1; slot ~shards ~jobs |]
    in
    [ (Printf.sprintf "cluster-steps-per-sec-n%d-shards1" n, per_sec steps ns.(0));
      ("cluster-steps-per-sec-" ^ par_label, per_sec steps ns.(1));
      (Printf.sprintf "cluster-%s-vs-shards1-speedup" par_label, ns.(0) /. ns.(1)) ]
  in
  let rows = List.concat_map pair sizes in
  Gc.full_major ();
  print_rows
    (Printf.sprintf
       "Cluster scale (ring, latency 32, %d steps, shards:1 vs shards:%d on \
        %d domains)"
       steps shards jobs)
    (("cluster-scale-rounds", float_of_int rounds) :: rows)

(* ------------------------------------------------- replicated service *)

(* A serve slot: each round restores the warmed service, starts a fresh
   open-loop workload (the same traffic every round), times [run wl] and
   hands the workload to [check]. *)
let serving service (cluster, snapshot) ~slots ~seed ~run ~check () =
  Ssos_net.Cluster.restore cluster snapshot;
  let wl = Ssos_rsm.Workload.open_loop ~rate:0.05 ~slots ~seed service in
  Ssos_rsm.Workload.discard wl;
  let (), ns = timed (fun () -> run wl) in
  check wl;
  ns

(* Client-request throughput of the lib/rsm replicated key-value
   service: requests committed per second and cluster steps per second
   while a seeded open-loop workload runs against a converged cluster.
   n=5 stays within the K=8 single-token guarantee; 16 and 64 measure
   how serving scales when the cluster is larger than the tag space
   (throughput only — see Service's docs).  The shards pair reruns one
   workload on 1 and 4 shards through the serve engine's call,
   [Workload.run_epochs] (one epoch spanning the run), and every run
   must end in the same responses and cluster digest. *)
let rsm_bench () =
  let sizes = if smoke then [| 5 |] else [| 5; 16; 64 |] in
  let steps = if smoke then 400 else 2_000 in
  let results =
    Array.map
      (fun n -> same (Printf.sprintf "rsm n=%d" n))
      sizes
  in
  let ns =
    interleaved ~rounds
      (Array.mapi
         (fun i n ->
           let service = Ssos_rsm.Service.build ~n ~seed:21L () in
           let check, _ = results.(i) in
           serving service
             (warmed service.Ssos_rsm.Service.cluster ~warmup:400)
             ~slots:((steps / n) + 1) ~seed:22L
             ~run:(fun wl -> Ssos_rsm.Workload.run wl ~steps)
             ~check:(fun wl -> check (Ssos_rsm.Workload.committed wl)))
         sizes)
  in
  let size_rows =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i n ->
              let committed = snd results.(i) () in
              [ (Printf.sprintf "rsm-steps-per-sec-n%d" n, per_sec steps ns.(i));
                ( Printf.sprintf "rsm-requests-per-sec-n%d" n,
                  per_sec committed ns.(i) ) ])
            sizes))
  in
  let service = Ssos_rsm.Service.build ~n:5 ~latency:3 ~seed:23L () in
  let warm = warmed service.Ssos_rsm.Service.cluster ~warmup:400 in
  let check, _ = same "rsm serve shards:1 vs shards:4" in
  let serve shards =
    serving service warm ~slots:((steps / 5) + 1) ~seed:23L
      ~run:(fun wl ->
        Ssos_rsm.Workload.run_epochs ~shards wl ~epoch:steps ~steps
          ~on_epoch:ignore)
      ~check:(fun wl ->
        check
          ( Ssos_rsm.Workload.responses wl,
            Ssos_net.Cluster.digest service.Ssos_rsm.Service.cluster ))
  in
  let serve_ns = interleaved ~rounds [| serve 1; serve 4 |] in
  print_rows
    (Printf.sprintf "Replicated state machine (lib/rsm, %d serve steps)" steps)
    ((("rsm-rounds", float_of_int rounds) :: size_rows)
    @ [ ("rsm-serve-rounds", float_of_int rounds);
        ("rsm-serve-seq-ns", serve_ns.(0));
        ("rsm-serve-par-ns", serve_ns.(1));
        ("rsm-serve-shard-speedup", serve_ns.(0) /. serve_ns.(1)) ])

(* Differential-fuzzer throughput: a fixed-seed campaign against the
   lib/fuzz reference-interpreter oracle — jobs:1 vs jobs:[pair_jobs]
   (with the block compiler, the default) plus a jobs:1 pass through
   the plain interpreter.  Every run must end in the same summary
   (shard seeds depend only on the campaign seed, results merge in
   shard order, and the compiler never changes observable execution);
   the interesting numbers are trial programs/sec and lock-step
   ticks/sec. *)
let fuzz_bench () =
  let iters = if smoke then 150 else 2_000 in
  let rounds = if smoke then 2 else 7 in
  let check, summary = same ("fuzz jobs:1 vs " ^ jobs_n ^ " vs no-jit") in
  let run ~jit jobs =
    checked check (fun () -> Ssx_fuzz.Fuzz_loop.run ~jobs ~jit ~seed:9L ~iters ())
  in
  let ns =
    interleaved ~rounds [| run ~jit:true 1; run ~jit:true pair_jobs; run ~jit:false 1 |]
  in
  let summary = summary () in
  let ticks = summary.Ssx_fuzz.Fuzz_loop.total_ticks in
  print_rows (Printf.sprintf "Differential fuzzer (%d programs, seed 9)" iters)
    [ ("fuzz-rounds", float_of_int rounds);
      ("fuzz-programs-per-sec-jobs1", per_sec iters ns.(0));
      ("fuzz-programs-per-sec-" ^ jobs_n, per_sec iters ns.(1));
      ("fuzz-programs-per-sec-nojit", per_sec iters ns.(2));
      ("fuzz-ticks-per-sec-jobs1", per_sec ticks ns.(0));
      ("fuzz-ticks-per-sec-" ^ jobs_n, per_sec ticks ns.(1));
      ("fuzz-ticks-per-sec-nojit", per_sec ticks ns.(2));
      ("fuzz-jit-speedup", ns.(2) /. ns.(0));
      ("fuzz-" ^ jobs_n ^ "-vs-jobs1-speedup", ns.(0) /. ns.(1));
      ("fuzz-programs", float_of_int iters);
      ("fuzz-coverage-points",
       float_of_int summary.Ssx_fuzz.Fuzz_loop.coverage_points);
      ("fuzz-divergences",
       float_of_int (List.length summary.Ssx_fuzz.Fuzz_loop.divergences)) ]

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
  let analyze_ns =
    (interleaved ~rounds
       [| (fun () ->
            snd (timed (fun () -> table := Some (Ssx_stab.Model.analyze ~n ~k))))
       |]).(0)
  in
  let tb = Option.get !table in
  let size = tb.Ssx_stab.Model.model.Ssx_stab.Model.size in
  let steps = if smoke then 600 else 6_000 in
  let ring policy =
    warmed
      (Ssos_net.Net_ring.build ~n:4 ~policy ~seed:31L ()).Ssos_net.Net_ring.cluster
      ~warmup:200
  in
  let ns =
    interleaved ~rounds
      [| stepping (ring Ssos_net.Cluster.Round_robin) ~steps;
         stepping
           (ring
              (Ssos_net.Cluster.Daemon
                 (Ssx_stab.Adversary.adaptive ~k:Ssos_net.Net_ring.k ())))
           ~steps |]
  in
  print_rows
    (Printf.sprintf "Adversary (checker n=%d K=%d + adaptive daemon)" n k)
    [ ("model-analyze-rounds", float_of_int rounds);
      ("model-analyze-configs", float_of_int size);
      ("model-analyze-ns", analyze_ns);
      ("model-analyze-configs-per-sec", per_sec size analyze_ns);
      ("model-worst-bound", float_of_int (Ssx_stab.Model.worst_bound tb));
      ("adversary-ring-rounds", float_of_int rounds);
      ("adversary-ring-steps-per-sec-round-robin", per_sec steps ns.(0));
      ("adversary-ring-steps-per-sec-adaptive", per_sec steps ns.(1));
      ("adaptive-daemon-overhead", ns.(1) /. ns.(0)) ]

(* ------------------------------------------------------------ machine *)

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
  print_rows "Guest-cycle costs (simulated ticks, deterministic)"
    [ ("figure1-reinstall-ticks", float_of_int reinstall_cost);
      ("sched-context-switch-refresh-ticks", switch_cost ~refresh:true);
      ("sched-context-switch-norefresh-ticks", switch_cost ~refresh:false) ]

(* Ns per tick of warmed machines, each restored from its own snapshot
   before every timed block.  Reinstall on the heartbeat kernel (the
   guest of T1 and campaign-t1), run by the block compiler and by the
   plain interpreter, which decodes the raw bytes every tick (their
   ratio is [jit-speedup]); reinstall and the monitor on the task kernel
   (the monitor's guest), which split the §4 design's campaign cost
   from its guest's; a storm tick: master 77's campaign-t1 trial 31
   (reinstall, 10,000 warmup ticks, a 10-fault burst), whose burst
   corrupts the IDTR into a #UD that vectors to the opcode that raised
   it, 2,000 ticks into the storm, its block ending before the
   watchdog's NMI 40,000 ticks after the burst; and a serve replica, the
   §5.2 scheduler on a watchdog NMI (with its [rep movsb] code refresh)
   plus a client NIC and a ring NIC, warmed inside a running service
   and then ticked on its own.  Then the per-trial time of a burst-40,
   jobs-1 campaign of reinstall and of the monitor, both on the task
   kernel; their ratio is the monitor's cost over reinstall on the same
   guest.  Last, the construction cost of a reinstall system, part of
   every campaign's and serve run's setup. *)
let machine_bench () =
  let block = if smoke then 20_000 else 200_000 in
  let storm_block = if smoke then 20_000 else 36_000 in
  let warm system =
    Ssos.System.run system ~ticks:30_000;
    system.Ssos.System.machine
  in
  let interpreted system =
    Ssx.Machine.set_jit system.Ssos.System.machine false;
    system
  in
  let reinstall_task () =
    Ssos.Reinstall.build ~guest:(Ssos.Guest.task_kernel ()) ()
  in
  let monitor () = (Ssos.Monitor.build ()).Ssos.Monitor.system in
  let storm () =
    let system = Ssos.Reinstall.build () in
    Ssos.System.run system ~ticks:10_000;
    ignore
      (Ssx_faults.Injector.inject_now (Ssos.System.fault_system system)
         ~rng:(Ssx_faults.Rng.create (Ssx_faults.Rng.derive 77L 31))
         ~space:Ssos.System.default_fault_space 10);
    Ssos.System.run system ~ticks:2_000;
    system.Ssos.System.machine
  in
  let serve_replica () =
    let service = Ssos_rsm.Service.build ~n:5 ~latency:2 ~seed:7L () in
    let cluster = service.Ssos_rsm.Service.cluster in
    Ssos_net.Cluster.run_sharded cluster ~steps:600;
    Ssos_net.Cluster.machine cluster 0
  in
  (* Row name, warmed machine, ticks per timed block. *)
  let slots =
    [| ("clean-tick-reinstall-heartbeat", warm (Ssos.Reinstall.build ()), block);
       ( "clean-tick-reinstall-heartbeat-nojit",
         warm (interpreted (Ssos.Reinstall.build ())),
         block );
       ("clean-tick-reinstall-task", warm (reinstall_task ()), block);
       ("clean-tick-monitor-task", warm (monitor ()), block);
       ("storm-tick", storm (), storm_block);
       ("serve-replica-tick", serve_replica (), block) |]
  in
  let tick_ns =
    interleaved ~rounds
      (Array.map
         (fun (_, machine, ticks) ->
           let snapshot = Ssx.Snapshot.capture machine in
           fun () ->
             Ssx.Snapshot.restore snapshot machine;
             snd (timed (fun () -> Ssx.Machine.run machine ~ticks))
             /. float_of_int ticks)
         slots)
  in
  let tick_rows =
    Array.to_list
      (Array.mapi (fun i (name, _, _) -> (name ^ "-ns", tick_ns.(i))) slots)
  in
  let trials = if smoke then 4 else 100 in
  let campaign_rounds = if smoke then 2 else 5 in
  let campaigns =
    [| ("reinstall-task", reinstall_task); ("monitor-task", monitor) |]
  in
  let trial_ns =
    interleaved ~rounds:campaign_rounds
      (Array.map
         (fun (name, build) ->
           let check, _ = same ("design campaign " ^ name) in
           fun () ->
             checked check
               (fun () ->
                 Ssos_experiments.Runner.heartbeat_campaign ~build
                   ~space:Ssos.System.default_fault_space
                   ~spec:(Ssos.Reinstall.weak_spec ())
                   ~burst:40 ~jobs:1 ~trials ~seed:3L ())
               ()
             /. float_of_int trials)
         campaigns)
  in
  let trial_rows =
    Array.to_list
      (Array.mapi
         (fun i (name, _) -> ("campaign-trial-" ^ name ^ "-ns", trial_ns.(i)))
         campaigns)
  in
  let build_ns =
    (interleaved ~rounds
       [| (fun () -> snd (timed (fun () -> Ssos.Reinstall.build ()))) |]).(0)
  in
  print_rows
    (Printf.sprintf
       "Design costs (ticks: min of %d rounds; campaigns: %d trials, burst \
        40, jobs 1, min of %d)"
       rounds trials campaign_rounds)
    ([ ("design-cost-rounds", float_of_int rounds);
       ("design-cost-block-ticks", float_of_int block);
       ("storm-block-ticks", float_of_int storm_block) ]
    @ tick_rows
    @ [ ("jit-speedup", tick_ns.(1) /. tick_ns.(0));
        ("design-campaign-trials", float_of_int trials);
        ("design-campaign-rounds", float_of_int campaign_rounds) ]
    @ trial_rows
    @ [ ("campaign-monitor-vs-reinstall-task", trial_ns.(1) /. trial_ns.(0));
        ("build-reinstall-system-rounds", float_of_int rounds);
        ("build-reinstall-system-ns", build_ns) ])

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

let () =
  Format.printf
    "ssos benchmark harness - reproduction of 'Toward Self-Stabilizing \
     Operating Systems' (Dolev & Yagel)@.@.";
  let campaign_rows = campaign_bench () in
  let campaign_rows = campaign_rows @ storm_split () in
  let net_rows = net_bench () in
  let net_rows = net_rows @ net_scale_bench () in
  let rsm_rows = rsm_bench () in
  let fuzz_rows = fuzz_bench () in
  let adversary_rows = adversary_bench () in
  let costs = guest_cycle_costs () in
  let machine_rows = costs @ machine_bench () in
  if not smoke then begin
    write_flat_json ~path:"BENCH_machine.json" machine_rows;
    write_flat_json ~path:"BENCH_experiments.json" campaign_rows;
    write_flat_json ~path:"BENCH_net.json" net_rows;
    write_flat_json ~path:"BENCH_rsm.json" rsm_rows;
    write_flat_json ~path:"BENCH_fuzz.json" fuzz_rows;
    write_flat_json ~path:"BENCH_adversary.json" adversary_rows
  end
