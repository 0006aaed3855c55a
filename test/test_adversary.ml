(* Adversarial scheduling daemons (lib/stabilization/adversary) end to
   end: campaign determinism under daemons, snapshot round-trips taken
   mid-outage, the checker-vs-concrete differential (the exhaustive
   worst-case bound must dominate observed convergence), the fairness
   audit with its pinned expected-failure, and the daemon gauges in the
   aggregate observability registry. *)

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

module Cluster = Ssos_net.Cluster
module Net_ring = Ssos_net.Net_ring
module Link = Ssos_net.Link
module Rng = Ssx_faults.Rng
module Adversary = Ssx_stab.Adversary
module Model = Ssx_stab.Model
module Runner = Ssos_experiments.Runner

let lossy_faults ~src:_ ~dst:_ = Link.lossy ~drop:0.1 ~max_delay:2 ()

(* --- campaign determinism under daemons ----------------------------- *)

let check_summary_equal label (a : Runner.summary) (b : Runner.summary) =
  check_int (label ^ ": trials") a.Runner.trials b.Runner.trials;
  check_int (label ^ ": recoveries") a.Runner.recoveries b.Runner.recoveries;
  check_bool (label ^ ": identical summary") true (a = b)

let daemon_build ~policy () =
  Net_ring.build ~n:4 ~policy ~faults:lossy_faults ~seed:(Rng.derive 91L 7) ()

let daemon_campaign ~policy ~jobs () =
  Runner.summarize
    (Runner.ring_campaign ~build:(daemon_build ~policy)
       ~perturb:Net_ring.corrupt ~warmup:200 ~horizon:1_500 ~window:400
       ~oversubscribe:true ~jobs ~trials:4 ~seed:0xADL ())

let test_campaign_invariance_under_daemons () =
  (* The jobs and rebuild-oracle differentials of test_campaigns.ml,
     re-run with daemon policies plugged into the cluster: partitioning
     trials across domains and restoring snapshots instead of
     rebuilding must not change a single bit of the summary.  This is
     what forces the daemons to be pure in (step, config) — any hidden
     mutable state would diverge between the jobs:1 and jobs:4
     partitions. *)
  List.iter
    (fun (label, policy) ->
      let reference = daemon_campaign ~policy ~jobs:1 () in
      check_bool (label ^ ": campaign recovers") true
        (reference.Runner.recoveries = reference.Runner.trials);
      check_summary_equal (label ^ ": jobs 1 = jobs 4") reference
        (daemon_campaign ~policy ~jobs:4 ());
      check_summary_equal (label ^ ": snapshot-reset = rebuild") reference
        (Runner.summarize
           (Rebuild.campaign ~trials:4 ~seed:0xADL
              (Rebuild.ring ~build:(daemon_build ~policy)
                 ~perturb:Net_ring.corrupt ~warmup:200 ~horizon:1_500
                 ~window:400))))
    [ ( "crash{1}",
        Cluster.Daemon
          (Adversary.crash ~victim:1 ~down_from:200 ~down_for:300 ()) );
      ( "adaptive",
        Cluster.Daemon (Adversary.adaptive ~k:Net_ring.k ()) ) ]

(* --- snapshot round-trip mid-outage --------------------------------- *)

let test_snapshot_roundtrip_mid_outage () =
  (* Capture the cluster in the middle of a crash daemon's silent
     window — idle slots already skipped, more to come — and replay:
     the continuation must be digest-identical, and the skipped-slot
     counter must restore and re-accumulate to the same value. *)
  let daemon = Adversary.crash ~victim:1 ~down_from:100 ~down_for:120 () in
  let ring =
    Net_ring.build ~n:4 ~policy:(Cluster.Daemon daemon) ~faults:lossy_faults
      ~seed:92L ()
  in
  let c = ring.Net_ring.cluster in
  Cluster.run_sharded c ~steps:150;
  let at_capture = Cluster.skipped_slots c in
  check_bool "mid-window: slots already skipped" true (at_capture > 0);
  let snap = Cluster.capture c in
  Cluster.run_sharded c ~steps:200;
  let digest1 = Cluster.digest c in
  let skipped1 = Cluster.skipped_slots c in
  check_bool "outage continued after capture" true (skipped1 > at_capture);
  Cluster.restore c snap;
  check_int "skipped-slot counter restored" at_capture
    (Cluster.skipped_slots c);
  Cluster.run_sharded c ~steps:200;
  Helpers.check_string "replay is digest-identical" digest1
    (Cluster.digest c);
  check_int "skipped slots re-accumulated" skipped1 (Cluster.skipped_slots c)

(* --- checker vs concrete: the domination differential --------------- *)

let test_checker_dominates_concrete () =
  (* n = 3..6, three corruption seeds each: run the concrete ring under
     the exact-table adaptive adversary from a fully corrupted joint
     state.  The ring must still converge (the adversary can delay but
     not defeat stabilization), and the post-burn-in abstract move
     count must be dominated by the checker's exhaustive worst-case
     bound over all K^n configurations. *)
  List.iter
    (fun n ->
      let table = Model.analyze ~n ~k:Net_ring.k in
      check_int (Printf.sprintf "n=%d: no divergent configs" n) 0
        (Model.divergent table);
      let worst = Model.worst_bound table in
      List.iter
        (fun s ->
          let daemon = Adversary.adaptive ~table ~k:Net_ring.k () in
          let ring =
            Net_ring.build ~n ~policy:(Cluster.Daemon daemon)
              ~seed:(Rng.derive 93L ((16 * n) + s)) ()
          in
          Cluster.run_sharded ring.Net_ring.cluster ~steps:200;
          let rng = Rng.create (Int64.of_int (0x5105 + (16 * n) + s)) in
          Net_ring.corrupt rng ring;
          let trace = Net_ring.converge_moves ~limit:8_000 ring in
          (match trace.Net_ring.converged with
          | Some _ -> ()
          | None ->
            Alcotest.failf "n=%d seed %d: no convergence under adversary" n s);
          if trace.Net_ring.tail_moves > worst then
            Alcotest.failf
              "n=%d seed %d: %d tail moves exceed the exhaustive bound %d" n s
              trace.Net_ring.tail_moves worst;
          check_bool (Printf.sprintf "n=%d seed %d: off-model moves bounded" n s)
            true
            (trace.Net_ring.off_model_moves <= 3 * n))
        [ 0; 1; 2 ])
    [ 3; 4; 5; 6 ]

(* --- the adversary actually bites ----------------------------------- *)

let test_adversary_bites () =
  (* Same scenario, same trials, same master seed: the adaptive daemon
     must make the tail of the convergence distribution strictly worse
     than fair-random's.  (If it ever stops biting, it has degraded
     into a fair schedule and T18 is measuring nothing.) *)
  let outcomes policy =
    let build () =
      Net_ring.build ~n:4 ~policy ~seed:(Rng.derive 94L 1) ()
    in
    Runner.ring_campaign ~build ~perturb:Net_ring.corrupt
      ~warmup:200 ~horizon:3_000 ~window:500 ~trials:6 ~seed:94L ()
  in
  let dist policy =
    match Runner.distribution (outcomes policy) with
    | Some d -> d
    | None -> Alcotest.fail "no recovered trials"
  in
  let fair = dist Cluster.Fair_random in
  let adaptive =
    dist (Cluster.Daemon (Adversary.adaptive ~k:Net_ring.k ()))
  in
  check_int "fair-random: all trials recovered" 6 fair.Runner.samples;
  check_int "adaptive: all trials recovered" 6 adaptive.Runner.samples;
  check_bool "adaptive p99 exceeds fair-random p99" true
    (adaptive.Runner.p99 > fair.Runner.p99)

let test_distribution_nearest_rank () =
  (* Runner.distribution is the exact nearest-rank percentile: sort the
     recovered trials' recovery times; the q-percentile is the
     ceil(q * samples)-th. *)
  let mk t = { Runner.recovered = true; recovery_ticks = Some t } in
  let outcomes = List.map mk [ 5; 1; 9; 3; 7; 2; 8; 4; 6; 10 ] in
  (match Runner.distribution outcomes with
  | Some d ->
    check_int "samples" 10 d.Runner.samples;
    check_int "p50" 5 d.Runner.p50;
    check_int "p90" 9 d.Runner.p90;
    check_int "p99" 10 d.Runner.p99;
    check_int "max" 10 d.Runner.max
  | None -> Alcotest.fail "distribution missing");
  (* Unrecovered trials contribute nothing; all-unrecovered is None. *)
  (match
     Runner.distribution
       (mk 42 :: [ { Runner.recovered = false; recovery_ticks = None } ])
   with
  | Some d ->
    check_int "single sample" 1 d.Runner.samples;
    check_int "degenerate percentiles" 42 d.Runner.p50
  | None -> Alcotest.fail "distribution missing");
  check_bool "no recovered trials: no distribution" true
    (Runner.distribution [ { Runner.recovered = false; recovery_ticks = None } ]
    = None)

(* --- fairness audit -------------------------------------------------- *)

(* The schedule actually executed, from the stepper's log (idle daemon
   slots run no node and log nothing). *)
let schedule ~policy ~steps ~seed =
  let ring = Net_ring.build ~n:4 ~policy ~seed () in
  List.map
    (fun (step, who, ()) -> (step, who))
    (Cluster.run_sharded_log ~record:(fun _ _ -> ()) ring.Net_ring.cluster
       ~steps)

(* Every node scheduled at least once in every disjoint [window]-step
   interval of [0, steps). *)
let fair ~n ~window ~steps entries =
  let windows = steps / window in
  let seen = Array.make_matrix windows n false in
  List.iter
    (fun (step, who) ->
      let w = step / window in
      if w < windows then seen.(w).(who) <- true)
    entries;
  Array.for_all (fun row -> Array.for_all Fun.id row) seen

let test_fairness_audit () =
  (* The audit window is n * K steps — the bound the paper's fairness
     hypothesis quantifies over.  Both friendly built-ins pass it (the
     fair-random case is a pinned-seed regression, not a probability
     statement); the starving daemon is the pinned expected-failure:
     the audit must reject it, and the victim must be absent from the
     executed schedule entirely. *)
  let n = 4 in
  let window = n * Net_ring.k in
  let steps = 10 * window in
  check_bool "round-robin passes the audit" true
    (fair ~n ~window ~steps
       (schedule ~policy:Cluster.Round_robin ~steps ~seed:96L));
  check_bool "fair-random passes the audit (pinned seed)" true
    (fair ~n ~window ~steps
       (schedule ~policy:Cluster.Fair_random ~steps ~seed:96L));
  let starved =
    schedule
      ~policy:(Cluster.Daemon (Adversary.starve ~victim:2 ()))
      ~steps ~seed:96L
  in
  check_bool "starve{2} fails the audit" false
    (fair ~n ~window ~steps starved);
  check_bool "the victim never runs" true
    (List.for_all (fun (_, who) -> who <> 2) starved);
  check_bool "the other nodes all run" true
    (List.for_all
       (fun i -> i = 2 || List.exists (fun (_, who) -> who = i) starved)
       [ 0; 1; 2; 3 ]);
  (* Crash-and-resurrect: unfair only during the outage — the victim is
     missing from the window covering [50, 150) (so the audit fails),
     idle slots log nothing, and the victim reappears afterwards. *)
  let crashed =
    schedule
      ~policy:
        (Cluster.Daemon
           (Adversary.crash ~victim:1 ~down_from:50 ~down_for:100 ()))
      ~steps ~seed:96L
  in
  check_bool "crash{1} fails the audit during the outage" false
    (fair ~n ~window ~steps crashed);
  check_bool "idle slots log nothing" true
    (List.length crashed < steps);
  check_bool "victim silent while down" true
    (List.for_all
       (fun (step, who) -> not (step >= 50 && step < 150 && who = 1))
       crashed);
  check_bool "victim resurrects" true
    (List.exists (fun (step, who) -> step >= 150 && who = 1) crashed)

(* --- daemon counts among the cluster's ------------------------------ *)

let test_daemon_counts () =
  (* A crash daemon's idled slots are among the cluster's counts,
     labelled with the daemon's name; a friendly policy has no such
     row. *)
  let daemon = Adversary.crash ~victim:7 ~down_from:0 ~down_for:100 () in
  let ring =
    Net_ring.build ~n:8 ~policy:(Cluster.Daemon daemon) ~seed:97L ()
  in
  Cluster.run_sharded ring.Net_ring.cluster ~steps:120;
  let counts = Cluster.counts ring.Net_ring.cluster in
  (match List.assoc_opt "net.daemon.skipped-slots{id=crash{7}}" counts with
  | Some n ->
    check_int "skipped slots counted"
      (Cluster.skipped_slots ring.Net_ring.cluster) n;
    check_bool "crash daemon idled some slots" true (n > 0)
  | None -> Alcotest.fail "no skipped-slots row");
  let plain = Net_ring.build ~n:4 ~seed:98L () in
  check_bool "round-robin has no daemon row" true
    (List.for_all
       (fun (name, _) -> not (String.starts_with ~prefix:"net.daemon." name))
       (Cluster.counts plain.Net_ring.cluster))

(* --- the adaptive daemon without a table, above the checker's cap --- *)

module Rule = Ssx_stab.Distributed

let adaptive_view ~now raw =
  { Adversary.now;
    size = Array.length raw;
    rng = Rng.create 1L;
    state = Some (fun i -> raw.(i)) }

(* Raw 16-bit words, or small ones so that neighbours often agree. *)
let random_words rng n =
  let range = if Rng.bool rng then 0x10000 else 1 + Rng.int rng 12 in
  Array.init n (fun _ -> Rng.int rng range)

let large_cluster =
  QCheck.triple (QCheck.int_range 16 64) (QCheck.int_range 2 64) QCheck.int

let prop_adaptive_schedules_privileged_targets =
  QCheck.Test.make ~count:100
    ~name:"adaptive (no table): odd slots a privileged target, even its predecessor"
    large_cluster
    (fun (n, k, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let raw = random_words rng n in
      let config = Array.map (fun w -> w mod k) raw in
      let daemon = Adversary.adaptive ~k () in
      let slot = 2 * Rng.int rng 1000 in
      match
        ( Adversary.choose daemon (adaptive_view ~now:(slot + 1) raw),
          Adversary.choose daemon (adaptive_view ~now:slot raw) )
      with
      | Some target, Some announce ->
        Rule.privileged ~states:config target
        && announce = (target + n - 1) mod n
      | _ -> false)

let prop_adaptive_maximizes_its_heuristic =
  QCheck.Test.make ~count:100
    ~name:"adaptive (no table): the lowest-index move with the highest score"
    large_cluster
    (fun (n, k, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let raw = random_words rng n in
      let config = Array.map (fun w -> w mod k) raw in
      (* The documented heuristic, token_count * (n + 1) + distinct
         values, scored after each privileged node's move. *)
      let score i =
        let next = Array.copy config in
        next.(i) <- Rule.move ~k ~states:config i;
        (Rule.token_count ~states:next * (n + 1))
        + List.length (List.sort_uniq compare (Array.to_list next))
      in
      let best = ref (-1) and best_score = ref min_int in
      for i = 0 to n - 1 do
        if Rule.privileged ~states:config i && score i > !best_score then begin
          best := i;
          best_score := score i
        end
      done;
      Adversary.choose (Adversary.adaptive ~k ()) (adaptive_view ~now:1 raw)
      = Some !best)

(* Small shapes on both sides of K = n - 1, so divergent successors
   occur (4 nodes at K = 2, 5 at K = 3). *)
let tables =
  lazy
    (List.map
       (fun (n, k) -> Model.analyze ~n ~k)
       [ (4, 2); (5, 3); (4, 8); (6, 5) ])

let prop_adaptive_table_picks_the_worst_successor =
  QCheck.Test.make ~count:100
    ~name:"adaptive (table): the lowest-index move with the worst successor"
    (QCheck.pair (QCheck.int_range 0 3) QCheck.int)
    (fun (which, seed) ->
      let tb = List.nth (Lazy.force tables) which in
      let n = tb.Model.model.Model.n and k = tb.Model.model.Model.k in
      let rng = Rng.create (Int64.of_int seed) in
      let raw = random_words rng n in
      let config = Array.map (fun w -> w mod k) raw in
      let score i =
        let next = Array.copy config in
        next.(i) <- Rule.move ~k ~states:config i;
        match Model.worst_of tb next with -1 -> max_int | w -> w
      in
      let best = ref (-1) and best_score = ref min_int in
      for i = 0 to n - 1 do
        if Rule.privileged ~states:config i && score i > !best_score then begin
          best := i;
          best_score := score i
        end
      done;
      Adversary.choose
        (Adversary.adaptive ~table:tb ~k ())
        (adaptive_view ~now:1 raw)
      = Some !best)

(* --- crash daemon arguments ------------------------------------------ *)

(* A period below one step is refused when the daemon is built; it used
   to pass the [period < down_for] check at [down_for] 0 and raise
   Division_by_zero once the ring reached [down_from]. *)
let test_crash_rejects_zero_period () =
  Alcotest.check_raises "period 0" (Invalid_argument "Adversary.crash: period")
    (fun () ->
      ignore (Adversary.crash ~period:0 ~down_from:0 ~down_for:0 ~victim:0 ()))

let suite =
  [ case "campaigns are jobs and rebuild invariant under daemons"
      test_campaign_invariance_under_daemons;
    case "snapshot round-trip mid crash window"
      test_snapshot_roundtrip_mid_outage;
    case "exhaustive worst-case bound dominates the concrete ring"
      test_checker_dominates_concrete;
    case "adaptive daemon bites (p99 above fair-random)"
      test_adversary_bites;
    case "distribution is exact nearest-rank" test_distribution_nearest_rank;
    case "fairness audit and its pinned expected-failure"
      test_fairness_audit;
    case "daemon counts among the cluster's" test_daemon_counts;
    case "crash rejects a period below one step"
      test_crash_rejects_zero_period ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_adaptive_schedules_privileged_targets;
        prop_adaptive_maximizes_its_heuristic;
        prop_adaptive_table_picks_the_worst_successor ]
