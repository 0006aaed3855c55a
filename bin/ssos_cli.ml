(* ssos — command-line interface to the reproduction.

   Subcommands:
     demo <design>      run one of the paper's designs and narrate
     experiment <id>    regenerate an evaluation table (T1..T20, or all)
     figures            print the paper's figures as assembling source
     listing <figure>   disassemble an assembled figure
     trace <design>     run a design and dump its last events
     campaign           custom fault-injection campaign
     cluster            multi-machine token ring over lossy links
     serve              closed-loop continuous operation with SLO metrics
     adversary          adversarial daemons + exhaustive abstract checker
     fuzz               differential fuzzing against the reference oracle *)

let ok = Cmdliner.Cmd.Exit.ok

(* A run that completes but fails its own check exits 1, so a script
   can tell it from a usage error (cmdliner's 124). *)
let failed = 1

let exits =
  Cmdliner.Cmd.Exit.info failed
    ~doc:
      "on a failed run: an SLO breach or a required repair that never \
       happened ($(b,serve)), no convergence ($(b,cluster), $(b,rsm)), \
       served traffic with no commit or a non-linearizable response \
       ($(b,rsm)), a domination violation ($(b,adversary)) or a \
       divergence ($(b,fuzz))."
  :: Cmdliner.Cmd.Exit.defaults

(* ------------------------------------------------------------- metrics *)

(* Every subcommand accepts a global [--metrics[=FORMAT]] flag.  Giving
   it raises the observability switch before the command runs (so the
   owner of each run publishes its counts when the run ends) and dumps
   the whole registry after it finishes — as an aligned table, or as
   JSON lines with [--metrics=json]. *)
let metrics_arg =
  let open Cmdliner in
  Arg.(
    value
    & opt ~vopt:(Some `Table) (some (enum [ ("table", `Table); ("json", `Json) ])) None
    & info [ "metrics" ] ~docv:"FORMAT"
        ~doc:
          "Enable the observability layer and dump the metric registry \
           after the command: $(b,table) (default) or $(b,json) (one JSON \
           object per line).")

(* Every subcommand also accepts [--no-jit]: drop the process-wide
   default for the basic-block compiler so all machines built by the
   command run on the plain interpreter (same observable behaviour,
   slower — for timing comparisons and differential smoke runs). *)
let no_jit_arg =
  let open Cmdliner in
  Arg.(
    value & flag
    & info [ "no-jit" ]
        ~doc:
          "Disable the basic-block threaded-code compiler; execute \
           through the plain interpreter.  Observable behaviour is \
           identical, only slower.")

let run_with_metrics metrics no_jit thunk =
  if no_jit then Ssx.Machine.set_jit_default false;
  (match metrics with
  | Some _ -> Ssos_obs.Obs.set_enabled true
  | None -> ());
  let code = thunk () in
  (match metrics with
  | Some `Table ->
    Format.printf "%a@." Ssos_obs.Obs.pp_table (Ssos_obs.Obs.snapshot ())
  | Some `Json ->
    print_string (Ssos_obs.Obs.to_json_lines (Ssos_obs.Obs.snapshot ()))
  | None -> ());
  code

(* ---------------------------------------------------------------- demo *)

let heartbeat_tail system n =
  let samples = Ssx_devices.Heartbeat.samples system.Ssos.System.heartbeat in
  let total = List.length samples in
  let tail = List.filteri (fun i _ -> i >= total - n) samples in
  String.concat ", "
    (List.map
       (fun s ->
         Printf.sprintf "%d@%d" s.Ssx_devices.Heartbeat.value
           s.Ssx_devices.Heartbeat.tick)
       tail)

let demo_reinstall () =
  Format.printf "== Section 3: periodical reinstall and restart ==@.";
  let system = Ssos.Reinstall.build () in
  Ssos.System.run system ~ticks:30_000;
  Format.printf "booted through Figure 1; last heartbeats: %s@."
    (heartbeat_tail system 5);
  Format.printf "smashing the whole OS RAM image...@.";
  let mem = Ssx.Machine.memory system.Ssos.System.machine in
  for i = 0 to Ssos.Layout.os_image_size - 1 do
    Ssx.Memory.write_byte mem ((Ssos.Layout.os_segment lsl 4) + i) 0xFF
  done;
  Ssos.System.run system ~ticks:120_000;
  let verdict =
    Ssx_stab.Convergence.judge ~spec:(Ssos.Reinstall.weak_spec ())
      ~samples:(Ssx_devices.Heartbeat.samples system.Ssos.System.heartbeat)
      ~end_tick:(Ssx.Machine.ticks system.Ssos.System.machine)
  in
  Format.printf "after 120k further ticks: %a@." Ssx_stab.Convergence.pp_verdict
    verdict;
  Format.printf "last heartbeats: %s@." (heartbeat_tail system 5);
  Ssos_obs.Obs.publish (Ssos.System.counts system)

let demo_monitor () =
  Format.printf "== Section 4: reinstall executable and monitor state ==@.";
  let monitor = Ssos.Monitor.build () in
  let system = monitor.Ssos.Monitor.system in
  Ssos.System.run system ~ticks:30_000;
  Format.printf "task kernel running; last heartbeats: %s@."
    (heartbeat_tail system 5);
  let mem = Ssx.Machine.memory system.Ssos.System.machine in
  Format.printf "corrupting the task index and zeroing a divisor...@.";
  Ssx.Memory.write_word mem Ssos.Guest.task_index_addr 0x7777;
  Ssx.Memory.write_word mem (Ssos.Guest.task_table_addr + 2) 0;
  Ssos.System.run system ~ticks:120_000;
  List.iter
    (fun d ->
      Format.printf "  tick %d: monitor repaired [%s]@." d.Ssos.Monitor.tick
        (String.concat "; " d.Ssos.Monitor.violated))
    (Ssos.Monitor.detections monitor);
  Format.printf "last heartbeats: %s@." (heartbeat_tail system 5);
  Ssos_obs.Obs.publish (Ssos.System.counts system)

let demo_sched () =
  Format.printf "== Section 5.2: the self-stabilizing scheduler ==@.";
  let sched = Ssos.Sched.build () in
  Ssx.Machine.run sched.Ssos.Sched.machine ~ticks:200_000;
  Array.iteri
    (fun i hb ->
      Format.printf "  process %d: %d heartbeats@." i
        (Ssx_devices.Heartbeat.count hb))
    sched.Ssos.Sched.heartbeats;
  Format.printf "corrupting the process table and the index...@.";
  let mem = Ssx.Machine.memory sched.Ssos.Sched.machine in
  Ssx.Memory.write_word mem Ssos.Sched.process_index_addr 0xFFFF;
  Ssx.Memory.write_word mem (Ssos.Sched.process_record_addr 1 + 2) 0xABCD;
  Ssx.Memory.write_word mem (Ssos.Sched.process_record_addr 2 + 4) 0xFFFF;
  Ssx.Machine.run sched.Ssos.Sched.machine ~ticks:300_000;
  Array.iteri
    (fun i hb ->
      Format.printf "  process %d: %d heartbeats (still advancing)@." i
        (Ssx_devices.Heartbeat.count hb))
    sched.Ssos.Sched.heartbeats;
  Ssos_obs.Obs.publish (Ssos.Sched.counts sched)

let demo_primitive () =
  Format.printf "== Section 5.1: the primitive scheduler ==@.";
  let sched = Ssos.Primitive_sched.build () in
  Ssx.Machine.run sched.Ssos.Primitive_sched.machine ~ticks:20_000;
  Array.iteri
    (fun i hb ->
      Format.printf "  process %d: %d executions@." i
        (Ssx_devices.Heartbeat.count hb))
    sched.Ssos.Primitive_sched.heartbeats;
  Format.printf "throwing the instruction pointer into the fill area...@.";
  (Ssx.Machine.cpu sched.Ssos.Primitive_sched.machine).Ssx.Cpu.regs.Ssx.Registers.ip <-
    Ssos.Primitive_sched.region_offset + 0xF00;
  Ssx.Machine.run sched.Ssos.Primitive_sched.machine ~ticks:20_000;
  Array.iteri
    (fun i hb ->
      Format.printf "  process %d: %d executions (round resumed)@." i
        (Ssx_devices.Heartbeat.count hb))
    sched.Ssos.Primitive_sched.heartbeats;
  Ssos_obs.Obs.publish (Ssx.Machine.counts sched.Ssos.Primitive_sched.machine)

(* The design argument is an [Arg.enum]: an unknown name is rejected by
   cmdliner itself, with usage on stderr and a non-zero exit. *)
let demo design =
  (match design with
  | `Reinstall -> demo_reinstall ()
  | `Monitor -> demo_monitor ()
  | `Sched -> demo_sched ()
  | `Primitive -> demo_primitive ());
  ok

(* ---------------------------------------------------------- experiment *)

let print_table format table =
  match format with
  | `Json -> print_endline (Ssos_experiments.Table.to_json table)
  | `Text -> Format.printf "%a@." Ssos_experiments.Table.pp table

let experiment id format jobs =
  if String.lowercase_ascii id = "all" then begin
    List.iter
      (fun (_, run) -> print_table format (run ?jobs ()))
      Ssos_experiments.Experiments.all;
    ok
  end
  else
    match Ssos_experiments.Experiments.find id with
    | Some run ->
      print_table format (run ?jobs ());
      ok
    | None ->
      Format.eprintf "ssos: unknown experiment %s (expected T1..T20 or all)@."
        id;
      Cmdliner.Cmd.Exit.cli_error

(* ------------------------------------------------------------- figures *)

let figures () =
  Format.printf
    "; ================= Figure 1 =================@.%s@.\
     ; ============== Figures 2-5 =================@.%s@."
    Ssos.Reinstall.figure1_source Ssos.Sched.figures_2_to_5_source;
  ok

let listing source =
    let symbols =
      Ssos.Rom_builder.layout_symbols
      @ [ ("RESTART_ENTRY", Ssos.Layout.recovery_offset);
          ("EXCEPTION_ENTRY", 0x600); ("SCRATCH_SEGMENT", 0x0800);
          ("LIVENESS_OFF", Ssos.Layout.os_data_offset + 4) ]
    in
    let image = Ssx_asm.Assemble.assemble ~symbols source in
    Format.printf "%s@."
      (Ssx_asm.Disasm.listing ~symbols:image.Ssx_asm.Assemble.symbols
         image.Ssx_asm.Assemble.bytes);
    ok

(* --------------------------------------------------------------- trace *)

let design_name = function
  | `Reinstall -> "reinstall"
  | `Monitor -> "monitor"
  | `Sched -> "sched"
  | `Primitive -> "primitive"

let trace design ticks entries format =
  let system_counts (system : Ssos.System.t) =
    (system.machine, fun () -> Ssos.System.counts system)
  in
  let machine, counts =
    match design with
    | `Monitor -> system_counts (Ssos.Monitor.build ()).Ssos.Monitor.system
    | `Sched ->
      let sched = Ssos.Sched.build () in
      (sched.machine, fun () -> Ssos.Sched.counts sched)
    | `Primitive ->
      let machine = (Ssos.Primitive_sched.build ()).Ssos.Primitive_sched.machine in
      (machine, fun () -> Ssx.Machine.counts machine)
    | `Reinstall -> system_counts (Ssos.Reinstall.build ())
  in
  let trace = Ssx.Trace.create ~capacity:entries () in
  Ssx.Trace.run trace machine ~ticks;
  (match format with
  | `Json -> print_endline (Ssx.Trace.to_json trace)
  | `Text ->
    Format.printf "last %d events of %s after %d ticks:@.%a@." entries
      (design_name design) ticks Ssx.Trace.dump trace);
  Ssos_obs.Obs.publish (counts ());
  ok

(* ------------------------------------------------------------ campaign *)

let campaign design burst trials seed jobs =
  let spec = Ssos.Reinstall.weak_spec () in
  let build, space =
    match design with
    | `None ->
      ((fun () -> Ssos.Baselines.none ()), Ssos.System.default_fault_space)
    | `Reset_only ->
      ((fun () -> Ssos.Baselines.reset_only ()), Ssos.System.default_fault_space)
    | `Checkpoint ->
      ((fun () -> Ssos.Baselines.checkpoint ()), Ssos.Baselines.checkpoint_fault_space)
    | `Monitor ->
      ( (fun () -> (Ssos.Monitor.build ()).Ssos.Monitor.system),
        Ssos.System.default_fault_space )
    | `Reinstall ->
      ((fun () -> Ssos.Reinstall.build ()), Ssos.System.default_fault_space)
  in
  let summary =
    Ssos_experiments.Runner.heartbeat_campaign ~build ~space ~spec ~burst ?jobs
      ~trials ~seed:(Int64.of_int seed) ()
  in
  let design =
    match design with
    | `None -> "none"
    | `Reset_only -> "reset-only"
    | `Checkpoint -> "checkpoint"
    | `Monitor -> "monitor"
    | `Reinstall -> "reinstall"
  in
  Format.printf "design=%s burst=%d trials=%d seed=%d@." design burst trials seed;
  Format.printf "recovered: %d/%d@." summary.Ssos_experiments.Runner.recoveries
    summary.Ssos_experiments.Runner.trials;
  (match summary.Ssos_experiments.Runner.mean_recovery with
  | Some mean -> Format.printf "mean recovery: %.0f ticks@." mean
  | None -> ());
  ok

(* ------------------------------------------------------------- cluster *)

let pp_states ring =
  String.concat " "
    (Array.to_list
       (Array.map string_of_int (Ssos_net.Net_ring.states ring)))

let cluster nodes drop corrupt delay limit seed latency =
  let benign = drop = 0. && corrupt = 0. && delay = 0 in
  let faults ~src:_ ~dst:_ =
    if benign then Ssos_net.Link.benign ()
    else Ssos_net.Link.lossy ~drop ~corrupt ~max_delay:delay ()
  in
  let seed64 = Int64.of_int seed in
  let ring =
    Ssos_net.Net_ring.build ~n:nodes ~latency ~faults ~seed:seed64 ()
  in
  let cluster = ring.Ssos_net.Net_ring.cluster in
  Format.printf "== %d-machine token ring (K=%d) ==@." nodes
    Ssos_net.Net_ring.k;
  if not benign then
    Format.printf "links: drop=%.2f corrupt=%.2f max_delay=%d@." drop corrupt
      delay;
  if latency > 1 then Format.printf "link latency %d@." latency;
  Ssos_net.Cluster.run_sharded cluster ~steps:400;
  Format.printf "after 400 warmup steps: states [%s], %d privilege(s)@."
    (pp_states ring)
    (Ssos_net.Net_ring.token_count ring);
  Format.printf "corrupting every counter and every view with random words...@.";
  Ssos_net.Net_ring.corrupt
    (Ssx_faults.Rng.create (Ssx_faults.Rng.derive seed64 1))
    ring;
  Format.printf "corrupted: states [%s], %d privilege(s)@." (pp_states ring)
    (Ssos_net.Net_ring.token_count ring);
  (match Ssos_net.Net_ring.run_until_legitimate ring ~limit with
  | Some steps ->
    Format.printf "single privilege restored after %d cluster steps@." steps;
    Ssos_net.Cluster.run_sharded cluster ~steps:200;
    Format.printf "200 steps later: states [%s], %d privilege(s), %s@."
      (pp_states ring)
      (Ssos_net.Net_ring.token_count ring)
      (if Ssos_net.Net_ring.legitimate ring then "still legitimate"
       else "ILLEGITIMATE");
    Ssos_obs.Obs.publish (Ssos_net.Net_ring.counts ring);
    ok
  | None ->
    Format.printf "no convergence within %d cluster steps@." limit;
    Ssos_obs.Obs.publish (Ssos_net.Net_ring.counts ring);
    failed)

(* ----------------------------------------------------------------- rsm *)

let rsm nodes drop rate faults steps limit seed latency =
  let seed64 = Int64.of_int seed in
  let link_faults ~src:_ ~dst:_ =
    if drop = 0. then Ssos_net.Link.benign ()
    else Ssos_net.Link.lossy ~drop ~max_delay:1 ()
  in
  let service =
    Ssos_rsm.Service.build ~n:nodes ~latency ~faults:link_faults ~seed:seed64 ()
  in
  let cluster = service.Ssos_rsm.Service.cluster in
  let pp_states () =
    String.concat " "
      (Array.to_list
         (Array.map string_of_int (Ssos_rsm.Service.states service)))
  in
  Format.printf "== %d-replica key-value state machine (K=%d, %d keys) ==@."
    nodes Ssos_rsm.Wire.k Ssos_rsm.Wire.keys;
  if drop > 0. then Format.printf "links: drop=%.2f max_delay=1@." drop;
  if latency > 1 then Format.printf "link latency %d@." latency;
  Ssos_net.Cluster.run_sharded cluster ~steps:400;
  Format.printf "after 400 warmup steps: tokens [%s]@." (pp_states ());
  let rng = Ssx_faults.Rng.create (Ssx_faults.Rng.derive seed64 1) in
  if faults > 0 then begin
    Format.printf "injecting %d machine faults across random replicas...@."
      faults;
    for _ = 1 to faults do
      let i = Ssx_faults.Rng.int rng nodes in
      let sched = service.Ssos_rsm.Service.systems.(i) in
      ignore
        (Ssx_faults.Fault.apply
           (Ssos.Sched.fault_system sched)
           (Ssx_faults.Fault.random rng (Ssos.Sched.fault_space sched)))
    done
  end;
  Format.printf
    "corrupting every replica's counter, view, store and tag row...@.";
  Ssos_rsm.Service.corrupt rng service;
  let faults_end = Ssos_net.Cluster.steps cluster in
  let samples = Ssos_rsm.Service.observe service ~steps:limit in
  let verdict =
    Ssx_stab.Distributed.rsm_judge ~window:400 ~samples
      ~end_step:(Ssos_net.Cluster.steps cluster)
  in
  let converged = Ssx_stab.Convergence.converged verdict in
  (match Ssx_stab.Convergence.recovery_time ~faults_end verdict with
  | Some t when converged ->
    Format.printf
      "converged after %d cluster steps: tokens [%s], stores coherent@." t
      (pp_states ())
  | _ -> Format.printf "NO CONVERGENCE within %d cluster steps@." limit);
  let wl =
    Ssos_rsm.Workload.open_loop ~rate
      ~slots:(((steps + nodes - 1) / nodes) + 1)
      ~seed:(Ssx_faults.Rng.derive seed64 2) service
  in
  Ssos_rsm.Workload.discard wl;
  let init = Ssos_rsm.Service.kv service 0 in
  Ssos_rsm.Workload.run wl ~steps;
  let committed = Ssos_rsm.Workload.committed wl in
  let linearized =
    Ssx_stab.Distributed.linearizable ~init ~ops:(Ssos_rsm.Workload.ops wl)
    = None
  in
  Format.printf
    "served %d steps of client traffic at rate %.2f: %d injected, %d \
     committed, %d lost, %s@."
    steps rate
    (Ssos_rsm.Workload.injected wl)
    committed (Ssos_rsm.Workload.lost wl)
    (if linearized then "responses linearizable"
     else "RESPONSES NOT LINEARIZABLE");
  Ssos_obs.Obs.publish (Ssos_rsm.Service.counts service);
  if converged && committed > 0 && linearized then ok else failed

(* --------------------------------------------------------------- serve *)

let serve nodes rate fault_rate duration epoch slo_avail slo_p99 seed latency
    quiet require_incident =
  let open Ssos_serve.Engine in
  let slo = { default_slo with availability = slo_avail; max_p99 = slo_p99 } in
  let pp_lat ppf v =
    if v < 0 then Format.fprintf ppf "   -" else Format.fprintf ppf "%4d" v
  in
  let report =
    if quiet then None
    else
      Some
        (fun w ->
          Format.printf
            "epoch %4d | step %8d | inj %5d com %5d | avail %.3f p50 %a p99 \
             %a |%s%s%s@."
            w.epoch w.step w.w_injected w.w_committed w.w_availability pp_lat
            w.w_p50 pp_lat w.w_p99
            (if w.ring_legal then " ring-legal" else " RING-ILLEGAL")
            (if w.healthy then "" else " UNHEALTHY")
            (if w.faults_landed > 0 then
               Printf.sprintf " +%d fault(s)" w.faults_landed
             else ""))
  in
  let s =
    serve ~nodes ~rate ~fault_rate ~epoch ~latency ~slo ?report
      ~duration ~seed:(Int64.of_int seed) ()
  in
  Format.printf
    "== served %d steps (%d epochs) on %d replicas, fault rate %.4f ==@."
    s.duration s.epochs s.nodes fault_rate;
  Format.printf
    "requests: %d injected, %d committed, %d dropped | availability %.4f \
     (worst window %.4f)@."
    s.injected s.committed s.dropped s.availability s.min_window_availability;
  Format.printf "latency: p50 %a, p99 %a cluster steps@." pp_lat s.p50 pp_lat
    s.p99;
  (match s.fault_arrivals with
  | [] -> Format.printf "faults: none landed@."
  | arrivals ->
    Format.printf "faults:%s@."
      (String.concat ","
         (List.map (fun (k, n) -> Printf.sprintf " %s x%d" k n) arrivals)));
  Format.printf "incidents: %d detected, %d repaired, %d engine reset(s)@."
    s.detected s.repaired s.repairs;
  List.iter
    (fun i ->
      Format.printf "  %-18s opened@%d %s%s@." i.cause i.opened_at
        (match i.closed_at with
        | Some t -> Printf.sprintf "closed@%d (mttr %d steps)" t (t - i.opened_at)
        | None -> "STILL OPEN")
        (if i.repair_fired then " [engine reset]" else ""))
    s.incidents;
  List.iter
    (fun m ->
      Format.printf "  mttr %-13s %d incident(s), mean %.0f, max %d steps@."
        m.kind m.incidents m.mean_steps m.max_steps)
    s.mttr;
  Format.printf "final ring legality: %s@." (if s.final_legal then "yes" else "NO");
  Format.printf "SLO (availability >= %.2f): %s@." slo.availability
    (if s.slo_met then "MET" else "BREACHED");
  if require_incident && s.repaired = 0 then begin
    Format.printf "required a detected+repaired incident: none closed@.";
    failed
  end
  else if s.slo_met then ok
  else failed

(* ----------------------------------------------------------- adversary *)

let make_daemon daemon victim down_from down_for period =
  match daemon with
  | `Round_robin -> ("round-robin", Ssos_net.Cluster.Round_robin)
  | `Fair_random -> ("fair-random", Ssos_net.Cluster.Fair_random)
  | `Starve ->
    let d = Ssx_stab.Adversary.starve ~victim () in
    (d.Ssx_stab.Adversary.name, Ssos_net.Cluster.Daemon d)
  | `Crash ->
    let d = Ssx_stab.Adversary.crash ?period ~down_from ~down_for ~victim () in
    (d.Ssx_stab.Adversary.name, Ssos_net.Cluster.Daemon d)
  | `Adaptive ->
    let d = Ssx_stab.Adversary.adaptive ~k:Ssos_net.Net_ring.k () in
    (d.Ssx_stab.Adversary.name, Ssos_net.Cluster.Daemon d)

(* Exhaustively analyze the abstract ring when the state space fits,
   then drive concrete adversarial trials and check the checker's
   worst-case bound dominates the observed post-burn-in move count.
   A domination violation is a real soundness bug: exit 1. *)
let adversary_ring nodes daemon victim down_from down_for period drop trials
    seed limit =
  let k = Ssos_net.Net_ring.k in
  let table =
    match Ssx_stab.Model.create ~n:nodes ~k with
    | exception Invalid_argument _ -> None
    | _ -> Some (Ssx_stab.Model.analyze ~n:nodes ~k)
  in
  (match table with
  | Some tb ->
    let m = tb.Ssx_stab.Model.model in
    Format.printf
      "== exhaustive checker: n=%d K=%d (%d configurations) ==@."
      nodes k m.Ssx_stab.Model.size;
    Format.printf
      "legitimate: %d  divergent: %d  best-case bound: %d  worst-case \
       bound: %d@."
      (Ssx_stab.Model.legitimate_count tb)
      (Ssx_stab.Model.divergent tb)
      (Ssx_stab.Model.best_bound tb)
      (Ssx_stab.Model.worst_bound tb)
  | None ->
    Format.printf
      "== checker skipped: K^n exceeds the state-space cap ==@.");
  let name, policy = make_daemon daemon victim down_from down_for period in
  Format.printf "== %d-node ring under daemon %s, drop=%.2f ==@." nodes name
    drop;
  let seed64 = Int64.of_int seed in
  let violations = ref 0 in
  let recovered = ref 0 in
  for trial = 0 to trials - 1 do
    let faults ~src:_ ~dst:_ =
      if drop = 0. then Ssos_net.Link.benign ()
      else Ssos_net.Link.lossy ~drop ~max_delay:2 ()
    in
    let ring =
      Ssos_net.Net_ring.build ~n:nodes ~policy ~faults
        ~seed:(Ssx_faults.Rng.derive seed64 trial) ()
    in
    Ssos_net.Cluster.run_sharded ring.Ssos_net.Net_ring.cluster ~steps:200;
    Ssos_net.Net_ring.corrupt
      (Ssx_faults.Rng.create (Ssx_faults.Rng.derive seed64 (1000 + trial)))
      ring;
    let mt = Ssos_net.Net_ring.converge_moves ~limit ring in
    Ssos_obs.Obs.publish (Ssos_net.Net_ring.counts ring);
    let domination =
      match (table, mt.Ssos_net.Net_ring.converged) with
      | Some tb, Some _ ->
        let bound = Ssx_stab.Model.worst_bound tb in
        if mt.Ssos_net.Net_ring.tail_moves <= bound then "  (<= bound)"
        else begin
          incr violations;
          Printf.sprintf "  VIOLATION: tail %d > bound %d"
            mt.Ssos_net.Net_ring.tail_moves bound
        end
      | _ -> ""
    in
    (match mt.Ssos_net.Net_ring.converged with
    | Some steps ->
      incr recovered;
      Format.printf
        "trial %d: converged in %d steps, %d moves (%d off-model, tail \
         %d)%s@."
        trial steps mt.Ssos_net.Net_ring.total_moves
        mt.Ssos_net.Net_ring.off_model_moves mt.Ssos_net.Net_ring.tail_moves
        domination
    | None ->
      Format.printf
        "trial %d: NO CONVERGENCE in %d steps, %d moves (%d off-model)@."
        trial limit mt.Ssos_net.Net_ring.total_moves
        mt.Ssos_net.Net_ring.off_model_moves)
  done;
  Format.printf "recovered %d/%d, domination violations: %d@." !recovered
    trials !violations;
  if !violations = 0 then ok else failed

let adversary_rsm nodes daemon victim down_from down_for period drop trials
    seed limit =
  let name, policy = make_daemon daemon victim down_from down_for period in
  Format.printf "== %d-replica rsm under daemon %s, drop=%.2f ==@." nodes
    name drop;
  let seed64 = Int64.of_int seed in
  let recovered = ref 0 in
  for trial = 0 to trials - 1 do
    let link_faults ~src:_ ~dst:_ =
      if drop = 0. then Ssos_net.Link.benign ()
      else Ssos_net.Link.lossy ~drop ~max_delay:1 ()
    in
    let service =
      Ssos_rsm.Service.build ~n:nodes ~policy ~faults:link_faults
        ~seed:(Ssx_faults.Rng.derive seed64 trial) ()
    in
    let cluster = service.Ssos_rsm.Service.cluster in
    Ssos_net.Cluster.run_sharded cluster ~steps:400;
    Ssos_rsm.Service.corrupt
      (Ssx_faults.Rng.create (Ssx_faults.Rng.derive seed64 (1000 + trial)))
      service;
    let faults_end = Ssos_net.Cluster.steps cluster in
    let samples = Ssos_rsm.Service.observe service ~steps:limit in
    let verdict =
      Ssx_stab.Distributed.rsm_judge ~window:400 ~samples
        ~end_step:(Ssos_net.Cluster.steps cluster)
    in
    Ssos_obs.Obs.publish (Ssos_rsm.Service.counts service);
    match
      ( Ssx_stab.Convergence.converged verdict,
        Ssx_stab.Convergence.recovery_time ~faults_end verdict )
    with
    | true, Some t ->
      incr recovered;
      Format.printf "trial %d: converged in %d steps@." trial t
    | _ -> Format.printf "trial %d: NO CONVERGENCE in %d steps@." trial limit
  done;
  Format.printf "recovered %d/%d@." !recovered trials;
  ok

let adversary rsm nodes daemon victim down_from down_for period drop trials
    seed limit =
  if rsm then
    adversary_rsm nodes daemon victim down_from down_for period drop trials
      seed limit
  else
    adversary_ring nodes daemon victim down_from down_for period drop trials
      seed limit

(* ---------------------------------------------------------------- fuzz *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fuzz seed iters jobs out replay_path =
  match replay_path with
  | Some path -> (
    match Ssx_fuzz.Fuzz_loop.replay (read_file path) with
    | None ->
      Format.printf "%s: no divergence@." path;
      ok
    | Some (tick, detail) ->
      Format.printf "%s: DIVERGES at tick %d: %s@." path tick detail;
      failed)
  | None ->
    let t0 = Unix.gettimeofday () in
    let summary =
      Ssx_fuzz.Fuzz_loop.run ?jobs ~seed:(Int64.of_int seed) ~iters ()
    in
    let dt = Unix.gettimeofday () -. t0 in
    Format.printf "%a@." Ssx_fuzz.Fuzz_loop.pp_summary summary;
    Format.printf "%.1fs, %.0f ticks/sec@." dt
      (float_of_int summary.Ssx_fuzz.Fuzz_loop.total_ticks /. dt);
    List.iter
      (fun d ->
        Format.printf "%a@." Ssx_fuzz.Fuzz_loop.pp_divergence d;
        let name =
          Printf.sprintf "fuzz-%d-%d-%d.ssx" seed
            d.Ssx_fuzz.Fuzz_loop.shard d.Ssx_fuzz.Fuzz_loop.iter
        in
        let path = Filename.concat out name in
        let oc = open_out_bin path in
        output_string oc (Ssx_fuzz.Fuzz_loop.reproducer_text d);
        close_out oc;
        Format.printf "reproducer written to %s@." path)
      summary.Ssx_fuzz.Fuzz_loop.divergences;
    if summary.Ssx_fuzz.Fuzz_loop.divergences = [] then ok else failed

(* ----------------------------------------------------------------- cli *)

let () =
  let open Cmdliner in
  (* Range-checked flag values: a value out of range is a usage error
     that names the flag (exit 124), not an exception from the library
     check it would trip mid-run. *)
  let bounded expected ok conv =
    let parse s =
      match Arg.conv_parser conv s with
      | Ok v when ok v -> Ok v
      | Ok _ ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
      | Error _ as e -> e
    in
    Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)
  in
  let int_from lo =
    bounded (Printf.sprintf "an integer >= %d" lo) (fun n -> n >= lo) Arg.int
  in
  let probability =
    bounded "a number in [0, 1]" (fun p -> p >= 0. && p <= 1.) Arg.float
  in
  (* Wrap a deferred command body with the global [--metrics] flag: the
     flag parses for every subcommand, and the body only runs under
     [run_with_metrics]. *)
  let with_metrics thunk_term =
    Term.(const run_with_metrics $ metrics_arg $ no_jit_arg $ thunk_term)
  in
  let design_conv =
    Arg.enum
      [ ("reinstall", `Reinstall); ("monitor", `Monitor); ("sched", `Sched);
        ("primitive", `Primitive) ]
  in
  let design_arg =
    Arg.(value & pos 0 design_conv `Reinstall & info [] ~docv:"DESIGN")
  in
  let demo_cmd =
    Cmd.v (Cmd.info "demo" ~doc:"Run one of the paper's designs and narrate")
      (with_metrics Term.(const (fun d () -> demo d) $ design_arg))
  in
  let id_arg = Arg.(value & pos 0 string "all" & info [] ~docv:"ID") in
  (* Without --jobs the pool reads SSOS_JOBS, so a malformed value is
     a usage error here rather than an exception mid-run. *)
  let jobs_arg =
    let check = function
      | Some _ as jobs -> `Ok jobs
      | None -> (
        match Pool.default_jobs () with
        | _ -> `Ok None
        | exception Invalid_argument msg -> `Error (false, msg))
    in
    Term.(
      ret
        (const check
        $ Arg.(
            value
            & opt (some (int_from 1)) None
            & info [ "j"; "jobs" ] ~docv:"N"
                ~doc:
                  "Worker domains for campaign trials (default: the \
                   SSOS_JOBS environment variable, else the recommended \
                   domain count).")))
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: $(b,text) (aligned columns) or $(b,json).")
  in
  let experiment_cmd =
    Cmd.v (Cmd.info "experiment" ~doc:"Regenerate an evaluation table (T1..T20)")
      (with_metrics
         Term.(
           const (fun id format jobs () -> experiment id format jobs)
           $ id_arg $ format_arg $ jobs_arg))
  in
  let figures_cmd =
    Cmd.v (Cmd.info "figures" ~doc:"Print the paper's figures as source")
      (with_metrics Term.(const (fun () () -> figures ()) $ const ()))
  in
  let which_conv =
    Arg.enum
      [ ("1", Ssos.Reinstall.figure1_source);
        ("figure1", Ssos.Reinstall.figure1_source);
        ("2-5", Ssos.Sched.figures_2_to_5_source);
        ("scheduler", Ssos.Sched.figures_2_to_5_source);
        ("monitor", Ssos.Monitor.monitor_source);
        ("checkpoint", Ssos.Baselines.checkpoint_source) ]
  in
  let which_arg =
    Arg.(
      value
      & pos 0 which_conv Ssos.Reinstall.figure1_source
      & info [] ~docv:"FIGURE")
  in
  let listing_cmd =
    Cmd.v (Cmd.info "listing" ~doc:"Disassemble an assembled figure")
      (with_metrics Term.(const (fun w () -> listing w) $ which_arg))
  in
  let ticks_arg =
    Arg.(value & opt (int_from 0) 30_000 & info [ "ticks" ] ~docv:"N")
  in
  let entries_arg =
    Arg.(value & opt (int_from 1) 40 & info [ "entries" ] ~docv:"N")
  in
  let trace_cmd =
    Cmd.v (Cmd.info "trace" ~doc:"Run a design and dump its last events")
      (with_metrics
         Term.(
           const (fun d ticks entries format () -> trace d ticks entries format)
           $ design_arg $ ticks_arg $ entries_arg $ format_arg))
  in
  let burst_arg =
    Arg.(value & opt (int_from 0) 40 & info [ "burst" ] ~docv:"N")
  in
  let trials_arg =
    Arg.(value & opt (int_from 1) 20 & info [ "trials" ] ~docv:"N")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let campaign_design_conv =
    Arg.enum
      [ ("reinstall", `Reinstall); ("monitor", `Monitor); ("none", `None);
        ("reset-only", `Reset_only); ("checkpoint", `Checkpoint) ]
  in
  let campaign_design_arg =
    Arg.(value & pos 0 campaign_design_conv `Reinstall & info [] ~docv:"DESIGN")
  in
  let campaign_cmd =
    Cmd.v (Cmd.info "campaign" ~doc:"Custom fault-injection campaign")
      (with_metrics
         Term.(
           const (fun d burst trials seed jobs () ->
               campaign d burst trials seed jobs)
           $ campaign_design_arg $ burst_arg $ trials_arg $ seed_arg
           $ jobs_arg))
  in
  let nodes_arg =
    Arg.(
      value & opt (int_from 2) 4
      & info [ "nodes" ] ~docv:"N" ~doc:"Ring size (at least 2).")
  in
  let drop_arg =
    Arg.(
      value & opt probability 0.0
      & info [ "drop" ] ~docv:"P" ~doc:"Per-message link drop probability.")
  in
  let corrupt_arg =
    Arg.(
      value & opt probability 0.0
      & info [ "corrupt" ] ~docv:"P"
          ~doc:"Per-message link byte-corruption probability.")
  in
  let delay_arg =
    Arg.(
      value & opt (int_from 0) 0
      & info [ "delay" ] ~docv:"N"
          ~doc:"Maximum extra delivery delay in cluster steps.")
  in
  let limit_arg =
    Arg.(
      value & opt (int_from 0) 5_000
      & info [ "limit" ] ~docv:"N"
          ~doc:"Give up after this many cluster steps.")
  in
  let latency_arg =
    Arg.(
      value & opt (int_from 1) 1
      & info [ "latency" ] ~docv:"N"
          ~doc:"Minimum link latency in cluster steps (at least 1).")
  in
  let cluster_cmd =
    Cmd.v
      (Cmd.info "cluster" ~exits
         ~doc:
           "Run Dijkstra's token ring across NIC-connected machines, corrupt \
            every node, and watch the ring reconverge")
      (with_metrics
         Term.(
           const (fun nodes drop corrupt delay limit seed latency () ->
               cluster nodes drop corrupt delay limit seed latency)
           $ nodes_arg $ drop_arg $ corrupt_arg $ delay_arg $ limit_arg
           $ seed_arg $ latency_arg))
  in
  let rsm_nodes_arg =
    Arg.(
      value & opt (int_from 2) 5
      & info [ "nodes" ] ~docv:"N" ~doc:"Replica count (at least 2).")
  in
  let rate_arg =
    Arg.(
      value & opt probability 0.05
      & info [ "rate" ] ~docv:"P"
          ~doc:"Per-replica-slot client request probability.")
  in
  let faults_arg =
    Arg.(
      value & opt (int_from 0) 0
      & info [ "faults" ] ~docv:"N"
          ~doc:
            "Machine faults injected across random replicas before the \
             state corruption.")
  in
  let steps_arg =
    Arg.(
      value & opt (int_from 0) 1_200
      & info [ "steps" ] ~docv:"N" ~doc:"Serve-phase length in cluster steps.")
  in
  let rsm_cmd =
    Cmd.v
      (Cmd.info "rsm" ~exits
         ~doc:
           "Run the replicated key-value state machine, corrupt every \
            replica, watch it reconverge, then serve client traffic and \
            check the responses linearize")
      (with_metrics
         Term.(
           const (fun nodes drop rate faults steps limit seed latency () ->
               rsm nodes drop rate faults steps limit seed latency)
           $ rsm_nodes_arg $ drop_arg $ rate_arg $ faults_arg $ steps_arg
           $ limit_arg $ seed_arg $ latency_arg))
  in
  let fault_rate_arg =
    Arg.(
      value & opt probability 0.0
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:
            "Per-step probability of a background fault landing on a \
             uniformly chosen replica (full machine fault space).")
  in
  let duration_arg =
    Arg.(
      value & opt (int_from 0) 3_000
      & info [ "duration" ] ~docv:"N"
          ~doc:"Cluster steps to serve after warmup.")
  in
  let epoch_arg =
    Arg.(
      value & opt (int_from 1) 150
      & info [ "epoch" ] ~docv:"N"
          ~doc:
            "Observation window in cluster steps: metrics, detection and \
             repair all happen at epoch boundaries.")
  in
  let slo_arg =
    Arg.(
      value & opt probability 0.85
      & info [ "slo" ] ~docv:"A"
          ~doc:
            "Availability floor in [0,1]: a trailing window below it is an \
             SLO breach, and the exit status reports whether the whole run \
             met it.")
  in
  let slo_p99_arg =
    Arg.(
      value & opt (int_from 0) 0
      & info [ "slo-p99" ] ~docv:"N"
          ~doc:
            "Optional p99 latency ceiling in cluster steps (0 disables the \
             latency detector).")
  in
  let serve_latency_arg =
    Arg.(
      value & opt (int_from 1) 2
      & info [ "latency" ] ~docv:"N"
          ~doc:"Link latency in cluster steps (at least 1).")
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Suppress the per-epoch dashboard lines.")
  in
  let require_incident_arg =
    Arg.(
      value & flag
      & info [ "require-incident" ]
          ~doc:
            "Exit 1 unless at least one incident was detected and \
             closed by a verified-healthy window (for smoke tests of the \
             full detect/repair cycle).")
  in
  let serve_cmd =
    Cmd.v
      (Cmd.info "serve" ~exits
         ~doc:
           "Run the replicated service as a closed loop — continuous client \
            traffic, background faults, SLO detection, reset-pulse repair — \
            and report windowed availability, latency percentiles and MTTR")
      (with_metrics
         Term.(
           const (fun nodes rate fault_rate duration epoch slo slo_p99 seed
                      latency quiet require_incident () ->
               serve nodes rate fault_rate duration epoch slo slo_p99 seed
                 latency quiet require_incident)
           $ rsm_nodes_arg $ rate_arg $ fault_rate_arg $ duration_arg
           $ epoch_arg $ slo_arg $ slo_p99_arg $ seed_arg $ serve_latency_arg
           $ quiet_arg $ require_incident_arg))
  in
  let daemon_conv =
    Arg.enum
      [ ("round-robin", `Round_robin); ("fair-random", `Fair_random);
        ("starve", `Starve); ("crash", `Crash); ("adaptive", `Adaptive) ]
  in
  let daemon_arg =
    Arg.(
      value & opt daemon_conv `Adaptive
      & info [ "daemon" ] ~docv:"DAEMON"
          ~doc:
            "Scheduling daemon: $(b,round-robin), $(b,fair-random), \
             $(b,starve), $(b,crash) or $(b,adaptive) (default).")
  in
  let victim_arg =
    Arg.(
      value & opt (int_from 0) 1
      & info [ "victim" ] ~docv:"I"
          ~doc:"Victim node for the starve and crash daemons (below --nodes).")
  in
  let down_from_arg =
    Arg.(
      value & opt (int_from 0) 200
      & info [ "down-from" ] ~docv:"N"
          ~doc:"First step of the crash daemon's outage window.")
  in
  let down_for_arg =
    Arg.(
      value & opt (int_from 0) 400
      & info [ "down-for" ] ~docv:"N"
          ~doc:"Length of the crash daemon's outage window.")
  in
  let period_arg =
    Arg.(
      value
      & opt (some (int_from 1)) None
      & info [ "period" ] ~docv:"N"
          ~doc:
            "Make the crash daemon's outages recur with this period (at \
             least --down-for).")
  in
  let rsm_flag =
    Arg.(
      value & flag
      & info [ "rsm" ]
          ~doc:
            "Drive the replicated state machine instead of the bare token \
             ring (no exhaustive checker or domination check; the rsm \
             protocol state is larger than the K-state abstraction).")
  in
  let adv_trials_arg =
    Arg.(
      value & opt (int_from 1) 3
      & info [ "trials" ] ~docv:"N" ~doc:"Adversarial trials to run.")
  in
  let adversary_cmd =
    Cmd.v
      (Cmd.info "adversary" ~exits
         ~doc:
           "Exhaustively check the abstract K-state ring, then stress the \
            concrete cluster under an adversarial scheduling daemon and \
            verify the worst-case bound dominates the observed moves")
      (with_metrics
         Term.(
           ret
             (const (fun rsm nodes daemon victim down_from down_for period
                         drop trials seed limit ->
                  match (daemon, period) with
                  | (`Starve | `Crash), _ when victim >= nodes ->
                    `Error (true, "--victim must be below --nodes")
                  | `Crash, Some p when p < down_for ->
                    `Error (true, "--period must be at least --down-for")
                  | _ ->
                    `Ok
                      (fun () ->
                        adversary rsm nodes daemon victim down_from down_for
                          period drop trials seed limit))
             $ rsm_flag $ nodes_arg $ daemon_arg $ victim_arg $ down_from_arg
             $ down_for_arg $ period_arg $ drop_arg $ adv_trials_arg
             $ seed_arg $ limit_arg)))
  in
  let iters_arg =
    Arg.(
      value & opt (int_from 1) 2_000
      & info [ "iters" ] ~docv:"N" ~doc:"Differential programs to run.")
  in
  let out_arg =
    Arg.(
      value & opt string "."
      & info [ "out" ] ~docv:"DIR" ~doc:"Directory for reproducer files.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Re-run a checked-in reproducer instead of fuzzing.")
  in
  let fuzz_cmd =
    Cmd.v
      (Cmd.info "fuzz" ~exits
         ~doc:
           "Differentially fuzz the machine against the independent reference \
            interpreter")
      (with_metrics
         Term.(
           const (fun seed iters jobs out replay () ->
               fuzz seed iters jobs out replay)
           $ seed_arg $ iters_arg $ jobs_arg $ out_arg $ replay_arg))
  in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "ssos" ~version:"1.0.0" ~exits
      ~doc:
        "Reproduction of 'Toward Self-Stabilizing Operating Systems' (Dolev & \
         Yagel)"
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [ demo_cmd; experiment_cmd; figures_cmd; listing_cmd; trace_cmd;
            campaign_cmd; cluster_cmd; rsm_cmd; serve_cmd; adversary_cmd;
            fuzz_cmd ]))
