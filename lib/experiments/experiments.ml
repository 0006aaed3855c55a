let summary_cells (s : Runner.summary) =
  [ Table.cell_rate s.Runner.recoveries s.Runner.trials;
    Table.cell_opt_float ~decimals:0 s.Runner.mean_recovery;
    (match s.Runner.max_recovery with None -> "-" | Some v -> Table.cell_int v) ]

(* Every repeated trial below runs on the one engine
   ({!Runner.run_trials}): each worker builds its system and runs the
   fault-free [warmup] once, captures the machine, and restores that
   capture before every trial.  [machine] and [counts] are the
   system's machine and its published counts. *)
let machine_trials ?jobs ~trials ~build ~machine ~counts ~warmup trial =
  Runner.run_trials ?jobs ~trials
    ~warm:(fun () ->
      let system = build () in
      Ssx.Machine.run (machine system) ~ticks:warmup;
      (system, Ssx.Snapshot.capture (machine system)))
    ~restore:(fun (system, snapshot) ->
      Ssx.Snapshot.restore snapshot (machine system))
    ~counts:(fun (system, _) -> counts system)
    (fun (system, _) i -> trial system i)

let system_trials ?jobs ~trials ~build ~warmup trial =
  machine_trials ?jobs ~trials ~build
    ~machine:(fun system -> system.Ssos.System.machine)
    ~counts:Ssos.System.counts ~warmup trial

let sched_trials ?jobs ~trials ~build ~warmup trial =
  machine_trials ?jobs ~trials ~build
    ~machine:(fun sched -> sched.Ssos.Sched.machine)
    ~counts:Ssos.Sched.counts ~warmup trial

(* The 5.1 scheduler has no watchdog: its counts are the machine's and
   every process's heartbeat's. *)
let primitive_trials ?jobs ~trials ~warmup trial =
  machine_trials ?jobs ~trials
    ~build:(fun () -> Ssos.Primitive_sched.build ())
    ~machine:(fun sched -> sched.Ssos.Primitive_sched.machine)
    ~counts:(fun sched ->
      Ssx.Machine.counts sched.Ssos.Primitive_sched.machine
      @ Ssx.Counts.indexed string_of_int Ssx_devices.Heartbeat.counts
          sched.Ssos.Primitive_sched.heartbeats)
    ~warmup trial

(* A heartbeat-observed system's trial outcome: its stream judged
   against [spec] at the end of the trial, recovery counted from
   [faults_end]. *)
let heartbeat_outcome ~spec ~faults_end system =
  let verdict =
    Ssx_stab.Convergence.judge ~spec
      ~samples:(Ssx_devices.Heartbeat.samples system.Ssos.System.heartbeat)
      ~end_tick:(Ssx.Machine.ticks system.Ssos.System.machine)
  in
  { Runner.recovered = Ssx_stab.Convergence.converged verdict;
    recovery_ticks = Ssx_stab.Convergence.recovery_time ~faults_end verdict }

let apply_faults system faults =
  List.iter
    (fun fault ->
      ignore (Ssx_faults.Fault.apply (Ssos.System.fault_system system) fault))
    faults

(* ----------------------------------------------------------------- T1 *)

let t1_reinstall_recovery ?jobs () =
  let seed = 1L and trials = 30 in
  let build () = Ssos.Reinstall.build () in
  let spec = Ssos.Reinstall.weak_spec () in
  let row label space burst =
    let s =
      Runner.heartbeat_campaign ~build ~space ~spec ~burst ?jobs ~trials ~seed ()
    in
    (label :: Table.cell_int burst :: summary_cells s)
  in
  let bursts = [ 5; 20; 50; 100; 200 ] in
  let rows =
    List.map
      (fun burst -> row "ram+reg+control" Ssos.System.default_fault_space burst)
      bursts
    @ [ row "ram-only (Bochs-style)" Ssos.System.ram_only_fault_space 50 ]
  in
  { Table.id = "T1";
    title = "Reinstall-and-restart recovery vs fault burst";
    note =
      "Reproduces the section 3 experiment (RAM corrupted during execution; \
       stabilization observed) and Theorem 3.4, quantitatively.";
    header = [ "fault space"; "burst"; "recovered"; "mean rec (ticks)"; "max rec" ];
    rows }

(* ----------------------------------------------------------------- T2 *)

let t2_lemma_bounds ?jobs () =
  let seed = 2L and trials = 300 in
  let period = Ssos.Layout.default_watchdog_period in
  let nmi_max = Ssos.Layout.default_nmi_counter_max in
  (* Figure 1: 8 set-up instructions, IMAGE_SIZE rep steps, 7 tear-down
     instructions, then the first guest instruction. *)
  let handler_bound = 8 + Ssos.Layout.os_image_size + 7 + 1 in
  let entry_bound = period + nmi_max + 2 in
  let measurements =
    system_trials ?jobs ~trials
      ~build:(fun () -> Ssos.Reinstall.build ())
      ~warmup:0
      (fun system i ->
        let machine = system.Ssos.System.machine in
        let rng = Ssx_faults.Rng.create (Runner.trial_seed seed i) in
        Ssos.System.run system ~ticks:(Ssx_faults.Rng.int rng period);
        Runner.scramble_processor rng system;
        (* Tick until the tick that takes the NMI. *)
        let rec to_nmi n =
          if n >= 2 * entry_bound then 3 * entry_bound
          else
            match Ssx.Machine.tick machine with
            | Ssx.Cpu.Took_interrupt { nmi = true; _ } -> n + 1
            | _ -> to_nmi (n + 1)
        in
        let nmi_time = to_nmi 0 in
        let at_entry = Ssx.Machine.ticks machine in
        let cpu = Ssx.Machine.cpu machine in
        let restart_time =
          match
            Ssx.Machine.run_until machine ~limit:(2 * handler_bound) (fun _ ->
                cpu.Ssx.Cpu.regs.Ssx.Registers.cs = Ssos.Layout.os_segment
                && cpu.Ssx.Cpu.regs.Ssx.Registers.ip <= 8)
          with
          | Some _ -> Ssx.Machine.ticks machine - at_entry
          | None -> 3 * handler_bound
        in
        (nmi_time, restart_time))
  in
  let nmi_times = List.map fst measurements in
  let restart_times = List.map snd measurements in
  let stats times =
    let n = List.length times in
    let sum = List.fold_left ( + ) 0 times in
    let maximum = List.fold_left max 0 times in
    (float_of_int sum /. float_of_int n, maximum)
  in
  let mean_a, max_a = stats nmi_times in
  let mean_b, max_b = stats restart_times in
  let violations bound times = List.length (List.filter (fun t -> t > bound) times) in
  { Table.id = "T2";
    title = "Lemma bounds from arbitrary configurations";
    note =
      "Lemma 3.1 (the handler is reached) and Lemmas 3.2/3.3 (it completes \
       and restarts the OS): observed worst cases vs the theoretical bounds.";
    header = [ "phase"; "bound (ticks)"; "mean"; "max"; "violations" ];
    rows =
      [ [ "scrambled state -> NMI handler entry";
          Table.cell_int entry_bound;
          Table.cell_float ~decimals:0 mean_a;
          Table.cell_int max_a;
          Printf.sprintf "%d/%d" (violations entry_bound nmi_times) trials ];
        [ "handler entry -> OS first instruction";
          Table.cell_int handler_bound;
          Table.cell_float ~decimals:0 mean_b;
          Table.cell_int max_b;
          Printf.sprintf "%d/%d" (violations handler_bound restart_times) trials ] ] }

(* ----------------------------------------------------------------- T3 *)

let t3_approach_comparison ?jobs () =
  let seed = 3L and trials = 25 in
  let guest () = Ssos.Guest.task_kernel () in
  let weak = Ssos.Reinstall.weak_spec () in
  let burst = 40 in
  let hb_row label build space =
    let s =
      Runner.heartbeat_campaign ~build ~space ~spec:weak ~burst ?jobs ~trials
        ~seed ()
    in
    (label :: summary_cells s)
  in
  let rows =
    [ hb_row "no recovery"
        (fun () -> Ssos.Baselines.none ~guest:(guest ()) ())
        Ssos.System.default_fault_space;
      hb_row "reset-only reboot"
        (fun () -> Ssos.Baselines.reset_only ~guest:(guest ()) ())
        Ssos.System.default_fault_space;
      hb_row "checkpoint/rollback"
        (fun () -> Ssos.Baselines.checkpoint ~guest:(guest ()) ())
        Ssos.Baselines.checkpoint_fault_space;
      hb_row "s3 reinstall+restart"
        (fun () -> Ssos.Reinstall.build ~guest:(guest ()) ())
        Ssos.System.default_fault_space;
      hb_row "s3 reinstall+continue"
        (fun () ->
          Ssos.Reinstall.build ~variant:Ssos.Reinstall.Continue ~guest:(guest ()) ())
        Ssos.System.default_fault_space;
      hb_row "s4 monitor+repair"
        (fun () -> (Ssos.Monitor.build ()).Ssos.Monitor.system)
        Ssos.System.default_fault_space;
      (let s =
         Runner.sched_campaign
           ~build:(fun () -> Ssos.Sched.build ())
           ~burst ?jobs ~trials ~seed ()
       in
       "s5 tailored tiny OS" :: summary_cells s) ]
  in
  { Table.id = "T3";
    title = "Recovery across designs, identical fault campaigns";
    note =
      "Baselines the paper contrasts with (no recovery; reboot without \
       reinstall; checkpointing as in Windows XP/EROS) vs sections 3-5. \
       Burst = 40 random faults; weak legality.";
    header = [ "design"; "recovered"; "mean rec (ticks)"; "max rec" ];
    rows }

(* ----------------------------------------------------------------- T4 *)

let t4_period_sweep ?jobs () =
  let seed = 4L and trials = 12 in
  let horizon = 1_000_000 in
  let beats_with_period period =
    let system = Ssos.Reinstall.build ~watchdog_period:period () in
    Ssos.System.run system ~ticks:horizon;
    Ssx_devices.Heartbeat.count system.Ssos.System.heartbeat
  in
  let baseline =
    let system = Ssos.Baselines.none ~guest:(Ssos.Guest.heartbeat_kernel ()) () in
    Ssos.System.run system ~ticks:horizon;
    Ssx_devices.Heartbeat.count system.Ssos.System.heartbeat
  in
  let spec = Ssos.Reinstall.weak_spec () in
  let rows =
    List.map
      (fun period ->
        let beats = beats_with_period period in
        let s =
          Runner.heartbeat_campaign
            ~build:(fun () -> Ssos.Reinstall.build ~watchdog_period:period ())
            ~space:Ssos.System.default_fault_space ~spec ~burst:40 ?jobs ~trials
            ~seed ()
        in
        [ Table.cell_int period;
          Table.cell_int beats;
          Table.cell_float ~decimals:1
            (100.0 *. float_of_int beats /. float_of_int baseline)
          ^ "%";
          Table.cell_rate s.Runner.recoveries s.Runner.trials;
          Table.cell_opt_float ~decimals:0 s.Runner.mean_recovery ])
      [ 10_000; 25_000; 50_000; 100_000; 200_000 ]
  in
  { Table.id = "T4";
    title = "Watchdog period: availability vs recovery latency";
    note =
      "Section 3's 'period long enough for the system to operate': useful \
       work (heartbeats per 1M ticks, vs an unprotected baseline) against \
       recovery under a 40-fault burst.";
    header =
      [ "period"; "beats/1M"; "availability"; "recovered"; "mean rec (ticks)" ];
    rows }

(* ----------------------------------------------------------------- T5 *)

let t5_primitive_fairness ?jobs () =
  let seed = 5L and trials = 100 in
  (* Clean-run fairness. *)
  let sched = Ssos.Primitive_sched.build () in
  Ssx.Machine.run sched.Ssos.Primitive_sched.machine ~ticks:200_000;
  let beats =
    Array.to_list
      (Array.map Ssx_devices.Heartbeat.count sched.Ssos.Primitive_sched.heartbeats)
  in
  let min_beats = List.fold_left min max_int beats
  and max_beats = List.fold_left max 0 beats in
  (* Convergence from arbitrary processor states: recovery is every
     process having run, in ticks. *)
  let round_bound = 4 * Ssos.Primitive_sched.region_size in
  let convergence =
    Runner.summarize
      (primitive_trials ?jobs ~trials ~warmup:0 (fun sched i ->
           let machine = sched.Ssos.Primitive_sched.machine in
           let rng = Ssx_faults.Rng.create (Runner.trial_seed seed i) in
           let regs = (Ssx.Machine.cpu machine).Ssx.Cpu.regs in
           let word () = Ssx_faults.Rng.int rng 0x10000 in
           List.iter
             (fun r -> Ssx.Registers.set16 regs r (word ()))
             Ssx.Registers.all_reg16;
           List.iter
             (fun r -> Ssx.Registers.set_sreg regs r (word ()))
             Ssx.Registers.all_sreg;
           regs.Ssx.Registers.ip <- word ();
           regs.Ssx.Registers.psw <- word ();
           let all_beat () =
             Array.for_all
               (fun hb -> Ssx_devices.Heartbeat.count hb > 0)
               sched.Ssos.Primitive_sched.heartbeats
           in
           let ran =
             Ssx.Machine.run_until machine ~limit:round_bound (fun _ ->
                 all_beat ())
           in
           { Runner.recovered = ran <> None; recovery_ticks = ran }))
  in
  (* Fault-burst recovery: every process beat within the last 1,000
     ticks of the run. *)
  let burst_trials = 30 in
  let alive =
    Runner.summarize
      (primitive_trials ?jobs ~trials:burst_trials ~warmup:10_000
         (fun sched i ->
           let rng =
             Ssx_faults.Rng.create (Runner.trial_seed (Int64.add seed 77L) i)
           in
           ignore
             (Ssx_faults.Injector.inject_now
                (Ssos.Primitive_sched.fault_system sched)
                ~rng
                ~space:(Ssos.Primitive_sched.fault_space sched)
                30);
           Ssx.Machine.run sched.Ssos.Primitive_sched.machine ~ticks:50_000;
           let end_tick = Ssx.Machine.ticks sched.Ssos.Primitive_sched.machine in
           { Runner.recovered =
               Array.for_all
                 (fun hb ->
                   match Ssx_devices.Heartbeat.last hb with
                   | Some s -> end_tick - s.Ssx_devices.Heartbeat.tick < 1_000
                   | None -> false)
                 sched.Ssos.Primitive_sched.heartbeats;
             recovery_ticks = None }))
  in
  { Table.id = "T5";
    title = "Primitive scheduler (section 5.1): fairness and convergence";
    note =
      "Theorem 5.1: every process executes infinitely often and each \
       self-stabilizing process stabilizes, from any initial state.";
    header = [ "measure"; "value" ];
    rows =
      [ [ "beats per process, clean 200k-tick run";
          Printf.sprintf "min %d / max %d" min_beats max_beats ];
        [ "fairness spread (max-min)"; Table.cell_int (max_beats - min_beats) ];
        [ Printf.sprintf "arbitrary-start convergence (%d trials)" trials;
          Table.cell_rate convergence.Runner.recoveries trials ];
        [ "worst ticks until every process ran";
          Table.cell_int (Option.value convergence.Runner.max_recovery ~default:0) ];
        [ "alive after 30-fault burst";
          Table.cell_rate alive.Runner.recoveries burst_trials ] ] }

(* ----------------------------------------------------------------- T6 *)

let t6_sched_stabilization ?jobs () =
  let seed = 6L and trials = 25 in
  let row label burst =
    let s =
      Runner.sched_campaign
        ~build:(fun () -> Ssos.Sched.build ())
        ~burst ?jobs ~trials ~seed ()
    in
    (label :: Table.cell_int burst :: summary_cells s)
  in
  { Table.id = "T6";
    title = "Self-stabilizing scheduler (section 5.2) under fault bursts";
    note =
      "Lemmas 5.2-5.4 / Theorem 5.5: fairness and stabilization preservation. \
       Recovery = every process's counter stream strictly increments again.";
    header = [ "configuration"; "burst"; "recovered"; "mean rec (ticks)"; "max rec" ];
    rows = [ row "default (strict cs, windowed ip)" 10;
             row "default (strict cs, windowed ip)" 40;
             row "default (strict cs, windowed ip)" 100 ] }

(* ----------------------------------------------------------------- T7 *)

(* The silent wedge: nop out the guest's heartbeat port write.  The
   guest keeps looping (and kicking a petted watchdog) while doing
   nothing useful — the failure mode an unconditionally periodic
   watchdog is immune to. *)
let silent_wedge system =
  let mem = Ssx.Machine.memory system.Ssos.System.machine in
  let base = Ssos.Layout.os_segment lsl 4 in
  let nop = 0x70 in
  let rec hunt i =
    if i >= Ssos.Layout.os_data_offset then ()
    else if
      Ssx.Memory.read_byte mem (base + i) = 0x6A
      && Ssx.Memory.read_byte mem (base + i + 1) = Ssos.Layout.heartbeat_port
    then begin
      Ssx.Memory.write_byte mem (base + i) nop;
      Ssx.Memory.write_byte mem (base + i + 1) nop
    end
    else hunt (i + 1)
  in
  hunt 0

let t7_ablations ?jobs () =
  let seed = 7L and trials = 25 in
  let spec = Ssos.Reinstall.weak_spec () in
  let sched_row label ?space ?(burst = 40) build =
    let s = Runner.sched_campaign ~build ?space ~burst ?jobs ~trials ~seed () in
    (label :: summary_cells s)
  in
  let rate_row label outcomes =
    let s = Runner.summarize outcomes in
    [ label; Table.cell_rate s.Runner.recoveries s.Runner.trials; "-"; "-" ]
  in
  (* NMI-counter and hardwired-vector ablations use the reinstall design
     with targeted control faults. *)
  let reinstall_row label ~nmi_counter_enabled ~hardwired_nmi ~extra_faults =
    rate_row label
      (system_trials ?jobs ~trials
         ~build:(fun () ->
           Ssos.Reinstall.build ~nmi_counter_enabled ~hardwired_nmi ())
         ~warmup:30_000
         (fun system i ->
           let rng = Ssx_faults.Rng.create (Runner.trial_seed seed i) in
           apply_faults system (extra_faults rng);
           ignore
             (Ssx_faults.Injector.inject_now
                (Ssos.System.fault_system system)
                ~rng ~space:Ssos.System.ram_only_fault_space 30);
           Ssos.System.run system ~ticks:400_000;
           heartbeat_outcome ~spec ~faults_end:30_000 system))
  in
  (* The wedge is deterministic (a trial would not read its index), so
     each row is one run. *)
  let wedge_row label build =
    rate_row label
      (system_trials ?jobs ~trials:1 ~build ~warmup:30_000 (fun system _ ->
           silent_wedge system;
           Ssos.System.run system ~ticks:300_000;
           heartbeat_outcome ~spec ~faults_end:30_000 system))
  in
  (* Random faults rarely hit the ~35 live code bytes inside each 4 KiB
     window, so the refresh's value only shows under targeted
     corruption of the instruction bytes themselves. *)
  let code_space =
    { Ssx_faults.Fault.ram_regions =
        List.init 4 (fun i -> (Ssos.Layout.proc_segment i lsl 4, 48));
      registers = false;
      control_state = false;
      halt_faults = false;
      idtr_faults = false;
      watchdog_state = false }
  in
  let rows =
    [ wedge_row "petted watchdog + silent wedge" (fun () ->
          Ssos.Baselines.petted_watchdog ());
      wedge_row "unconditional watchdog + silent wedge" (fun () ->
          Ssos.Reinstall.build ~guest:(Ssos.Baselines.petting_guest ()) ());
      sched_row "sched: cs check = strict equality" (fun () ->
          Ssos.Sched.build ~cs_check:Ssos.Sched.Strict_eq ());
      sched_row "sched: cs check = paper's jb" (fun () ->
          Ssos.Sched.build ~cs_check:Ssos.Sched.Paper_jb ());
      sched_row "sched: cs check = none" (fun () ->
          Ssos.Sched.build ~cs_check:Ssos.Sched.No_check ());
      sched_row "sched: ip mask = windowed" (fun () ->
          Ssos.Sched.build ~ip_mask:Ssos.Sched.Windowed ());
      sched_row "sched: ip mask = paper's 0xFFF0" (fun () ->
          Ssos.Sched.build ~ip_mask:Ssos.Sched.Paper_mask ());
      sched_row "sched: ip mask = none" (fun () ->
          Ssos.Sched.build ~ip_mask:Ssos.Sched.No_mask ());
      sched_row "sched: code refresh off" (fun () ->
          Ssos.Sched.build ~refresh:false ());
      sched_row "sched: refresh on, targeted code faults" ~space:code_space
        ~burst:8 (fun () -> Ssos.Sched.build ~refresh:true ());
      sched_row "sched: refresh off, targeted code faults" ~space:code_space
        ~burst:8 (fun () -> Ssos.Sched.build ~refresh:false ());
      reinstall_row "reinstall: nmi counter ON + latch fault + halt"
        ~nmi_counter_enabled:true ~hardwired_nmi:true
        ~extra_faults:(fun _ ->
          [ Ssx_faults.Fault.Nmi_latch true; Ssx_faults.Fault.Spurious_halt ]);
      reinstall_row "reinstall: nmi counter OFF + latch fault + halt"
        ~nmi_counter_enabled:false ~hardwired_nmi:true
        ~extra_faults:(fun _ ->
          [ Ssx_faults.Fault.Nmi_latch true; Ssx_faults.Fault.Spurious_halt ]);
      reinstall_row "reinstall: hardwired NMI + idtr fault"
        ~nmi_counter_enabled:true ~hardwired_nmi:true ~extra_faults:(fun rng ->
          [ Ssx_faults.Fault.Idtr (Ssx_faults.Rng.int rng Ssx.Addr.memory_size) ]);
      reinstall_row "reinstall: idtr-routed NMI + idtr fault"
        ~nmi_counter_enabled:true ~hardwired_nmi:false ~extra_faults:(fun rng ->
          [ Ssx_faults.Fault.Idtr (Ssx_faults.Rng.int rng Ssx.Addr.memory_size) ]) ]
  in
  { Table.id = "T7";
    title = "Ablations of the paper's design choices";
    note =
      "Each hardware/software safeguard removed in isolation: the cs \
       validation and ip mask of Figure 5, the scheduler's code refresh, \
       the NMI-counter augmentation, and the hardwired NMI vector (section 2).";
    header = [ "configuration"; "recovered"; "mean rec (ticks)"; "max rec" ];
    rows }

(* ----------------------------------------------------------------- T8 *)

let t8_monitor_coverage ?jobs () =
  let seed = 8L and trials = 25 in
  let spec = Ssos.Reinstall.strict_spec () in
  let classes =
    [ ("task index out of range",
       fun _rng ->
         [ Ssx_faults.Fault.Ram_byte { addr = Ssos.Guest.task_index_addr; value = 0xEE } ]);
      ("task table entry corrupted",
       fun rng ->
         [ Ssx_faults.Fault.Ram_byte
             { addr = Ssos.Guest.task_table_addr + Ssx_faults.Rng.int rng 16;
               value = Ssx_faults.Rng.int rng 256 } ]);
      ("task divisor zeroed",
       fun _rng ->
         [ Ssx_faults.Fault.Ram_byte { addr = Ssos.Guest.task_table_addr + 2; value = 0 };
           Ssx_faults.Fault.Ram_byte { addr = Ssos.Guest.task_table_addr + 3; value = 0 } ]);
      ("stack pointer wild",
       fun rng -> [ Ssx_faults.Fault.Reg16 (Ssx.Registers.SP, Ssx_faults.Rng.int rng 0x10000) ]);
      ("code byte corrupted",
       fun rng ->
         [ Ssx_faults.Fault.Ram_byte
             { addr =
                 (Ssos.Layout.os_segment lsl 4) + Ssx_faults.Rng.int rng Ssos.Layout.os_data_offset;
               value = Ssx_faults.Rng.int rng 256 } ]);
      ("instruction pointer wild",
       fun rng -> [ Ssx_faults.Fault.Ip (Ssx_faults.Rng.int rng 0x10000) ]) ]
  in
  let rows =
    List.map
      (fun (label, make_faults) ->
        let results =
          machine_trials ?jobs ~trials
            ~build:(fun () -> Ssos.Monitor.build ())
            ~machine:(fun monitor ->
              monitor.Ssos.Monitor.system.Ssos.System.machine)
            ~counts:(fun monitor -> Ssos.System.counts monitor.Ssos.Monitor.system)
            ~warmup:30_000
            (fun monitor i ->
              let system = monitor.Ssos.Monitor.system in
              let rng = Ssx_faults.Rng.create (Runner.trial_seed seed i) in
              apply_faults system (make_faults rng);
              Ssos.System.run system ~ticks:300_000;
              ( heartbeat_outcome ~spec ~faults_end:30_000 system,
                Ssos.Monitor.detections monitor <> [] ))
        in
        let s = Runner.summarize (List.map fst results) in
        let detected = List.length (List.filter snd results) in
        [ label;
          Table.cell_rate detected trials;
          Table.cell_rate s.Runner.recoveries trials;
          Table.cell_opt_float ~decimals:0 s.Runner.mean_recovery ])
      classes
  in
  { Table.id = "T8";
    title = "Monitor (section 4): detection and repair by fault class";
    note =
      "Targeted single-fault injections against the task kernel. Detection = \
       a consistency predicate fired; recovery = strict heartbeat legality \
       returned. Code corruption is detected by the integrity predicate and \
       repaired by the ROM refresh; control-flow faults are repaired by the \
       frame validation without needing a predicate.";
    header = [ "fault class"; "predicate detected"; "recovered"; "mean rec (ticks)" ];
    rows }

(* ----------------------------------------------------------------- T9 *)

let t9_weak_vs_strict () =
  let horizon = 400_000 in
  let row label build =
    let system = build () in
    Ssos.System.run system ~ticks:horizon;
    let samples = Ssx_devices.Heartbeat.samples system.Ssos.System.heartbeat in
    let end_tick = Ssx.Machine.ticks system.Ssos.System.machine in
    let count spec =
      Ssx_stab.Convergence.violation_count ~spec ~samples ~end_tick
    in
    let strict = count (Ssos.Reinstall.strict_spec ()) in
    let weak = count (Ssos.Reinstall.weak_spec ()) in
    [ label;
      Table.cell_int strict;
      Table.cell_int weak;
      (if strict = 0 then "strong" else if weak = 0 then "weak only" else "neither") ]
  in
  { Table.id = "T9";
    title = "Weak vs strong legality on fault-free runs";
    note =
      "Section 2 defines weak legal executions as concatenations of prefixes \
       of legal executions. Violations of the strict counter specification \
       over a fault-free 400k-tick run: section 3's periodic restart breaks \
       it once per watchdog period (weakly legal restarts), section 4's \
       monitor never does. (Theorem 3.4 claims exactly weak stabilization.)";
    header = [ "design"; "strict violations"; "weak violations"; "legality" ];
    rows =
      [ row "s3 reinstall+restart" (fun () -> Ssos.Reinstall.build ());
        row "s3 reinstall+continue" (fun () ->
            Ssos.Reinstall.build ~variant:Ssos.Reinstall.Continue ());
        row "s4 monitor+repair (task kernel)" (fun () ->
            (Ssos.Monitor.build ()).Ssos.Monitor.system);
        (* The tiny OS: judge every process's private stream.  With
           replay-safe processes, context switching is exact, so clean
           runs are strongly legal per process. *)
        (let sched = Ssos.Sched.build () in
         Ssx.Machine.run sched.Ssos.Sched.machine ~ticks:horizon;
         let end_tick = Ssx.Machine.ticks sched.Ssos.Sched.machine in
         let spec =
           Ssx_stab.Convergence.counter_spec ~max_gap:200_000 ~window:1 ()
         in
         let strict =
           Array.fold_left
             (fun acc hb ->
               acc
               + Ssx_stab.Convergence.violation_count ~spec
                   ~samples:(Ssx_devices.Heartbeat.samples hb)
                   ~end_tick)
             0 sched.Ssos.Sched.heartbeats
         in
         [ "s5 tiny OS (all processes)"; Table.cell_int strict;
           Table.cell_int strict;
           (if strict = 0 then "strong" else "neither") ]) ] }

(* ---------------------------------------------------------------- T10 *)

let t10_composition () =
  let seed = 10L in
  let monitor = Ssos.Monitor.build () in
  let system = monitor.Ssos.Monitor.system in
  let machine = system.Ssos.System.machine in
  let rng = Ssx_faults.Rng.create seed in
  (* Warm up, then corrupt every layer at once. *)
  Ssos.System.run system ~ticks:60_000;
  (* The application layer: an 8-counter token ring (K = 8) stepped one
     round per OS heartbeat, modelling application progress driven by
     OS progress.  A round fires every privileged node in index order,
     in place.  The ring starts from the corruption below, and catches
     up on new heartbeats whenever its layer is read (once per tick,
     after the tick). *)
  let ring = Array.make 8 0 in
  let last_count =
    ref (Ssx_devices.Heartbeat.count system.Ssos.System.heartbeat)
  in
  let advance_ring () =
    let count = Ssx_devices.Heartbeat.count system.Ssos.System.heartbeat in
    if count > !last_count then begin
      last_count := count;
      for i = 0 to Array.length ring - 1 do
        if Ssx_stab.Distributed.privileged ~states:ring i then
          ring.(i) <- Ssx_stab.Distributed.move ~k:8 ~states:ring i
      done
    end
  in
  ignore
    (Ssx_faults.Injector.inject_now (Ssos.System.fault_system system) ~rng
       ~space:Ssos.System.default_fault_space 40);
  for i = 0 to Array.length ring - 1 do
    ring.(i) <- Ssx_faults.Rng.int rng 8
  done;
  let heartbeat_fresh machine =
    let now = Ssx.Machine.ticks machine in
    match Ssx_devices.Heartbeat.last system.Ssos.System.heartbeat with
    | Some s -> now - s.Ssx_devices.Heartbeat.tick < 8000
    | None -> false
  in
  let layers =
    [ { Ssx_stab.Composition.name = "processor executing";
        safe = (fun m -> not (Ssx.Machine.cpu m).Ssx.Cpu.halted) };
      { Ssx_stab.Composition.name = "operating system legal (heartbeat fresh)";
        safe = heartbeat_fresh };
      { Ssx_stab.Composition.name = "application legitimate (one token)";
        safe =
          (fun _ ->
            advance_ring ();
            Ssx_stab.Distributed.legitimate ~states:ring) } ]
  in
  let observations =
    Ssx_stab.Composition.observe machine ~layers ~ticks:600_000
  in
  let rows =
    List.map
      (fun o ->
        [ o.Ssx_stab.Composition.layer_name;
          (match o.Ssx_stab.Composition.stabilized_at with
          | Some t -> Table.cell_int t
          | None -> "never") ])
      observations
    @ [ [ "layering respected (lower before upper)";
          (if Ssx_stab.Composition.respects_layering observations then "yes"
           else "no") ] ]
  in
  { Table.id = "T10";
    title = "Layered stabilization: processor -> OS -> application";
    note =
      "The composition argument of section 1: once the processor executes, \
       the OS stabilizes, and then the (self-stabilizing) application - \
       Dijkstra's token ring driven by OS progress - stabilizes.";
    header = [ "layer"; "stabilized at tick" ];
    rows }

(* ---------------------------------------------------------------- T11 *)

let t11_token_ring_os ?jobs () =
  let seed = 11L and trials = 15 in
  let row n =
    let outcomes =
      sched_trials ?jobs ~trials
        ~build:(fun () -> Ssos.Token_os.build ~n ())
        ~warmup:150_000
        (fun sched i ->
          let machine = sched.Ssos.Sched.machine in
          let rng =
            Ssx_faults.Rng.create (Runner.trial_seed seed (i + (n * 1000)))
          in
          (* Joint corruption of every layer: processor registers,
             scheduler soft state, process code/data, and the ring's
             shared counters. *)
          ignore
            (Ssx_faults.Injector.inject_now (Ssos.Sched.fault_system sched)
               ~rng ~space:(Ssos.Sched.fault_space sched) 20);
          for m = 0 to n - 1 do
            Ssos.Token_os.corrupt_state sched m
              (Ssx_faults.Rng.int rng Ssos.Token_os.k)
          done;
          let start = Ssx.Machine.ticks machine in
          (* Converged = the ring is legitimate and stays so for a full
             scheduler rotation. *)
          let rotations_ticks = 4 * n * Ssos.Sched.default_watchdog_period in
          let rec settle deadline =
            match Ssos.Token_os.run_until_legitimate sched ~limit:deadline with
            | None -> None
            | Some _ ->
              let at = Ssx.Machine.ticks machine in
              let stayed = ref true in
              for _ = 1 to rotations_ticks do
                ignore (Ssx.Machine.tick machine);
                if not (Ssos.Token_os.legitimate sched) then stayed := false
              done;
              if !stayed then Some (at - start)
              else if Ssx.Machine.ticks machine - start > 2_000_000 then None
              else settle deadline
          in
          let settled = settle 2_000_000 in
          { Runner.recovered = settled <> None; recovery_ticks = settled })
    in
    let s = Runner.summarize outcomes in
    [ Printf.sprintf "%d ring machines on the tiny OS" n;
      Table.cell_rate s.Runner.recoveries trials;
      Table.cell_opt_float ~decimals:0 s.Runner.mean_recovery ]
  in
  { Table.id = "T11";
    title = "Dijkstra's token ring as guest processes (three-layer composition)";
    note =
      "Machine-level stabilization preservation: processor, scheduler state \
       and the ring's shared counters are corrupted together; recovery = \
       exactly one privilege again, stable for a full scheduler rotation.";
    header = [ "configuration"; "recovered"; "mean rec (ticks)" ];
    rows = [ row 2; row 4; row 8 ] }

(* ---------------------------------------------------------------- T12 *)

let t12_soft_error_rates ?jobs () =
  let seed = 12L and trials = 3 in
  let horizon = 1_000_000 in
  let clean_beats build =
    let system = build () in
    Ssos.System.run system ~ticks:horizon;
    max 1 (Ssx_devices.Heartbeat.count system.Ssos.System.heartbeat)
  in
  let designs =
    [ ("no recovery", (fun () -> Ssos.Baselines.none ~guest:(Ssos.Guest.heartbeat_kernel ()) ()));
      ("s3 reinstall+restart", fun () -> Ssos.Reinstall.build ());
      ("s4 monitor+repair", fun () -> (Ssos.Monitor.build ()).Ssos.Monitor.system) ]
  in
  let baselines = List.map (fun (name, build) -> (name, clean_beats build)) designs in
  let rows =
    List.concat_map
      (fun rate ->
        List.map
          (fun (name, build) ->
            let baseline = List.assoc name baselines in
            let samples =
              system_trials ?jobs ~trials ~build ~warmup:0 (fun system i ->
                  let rng = Ssx_faults.Rng.create (Runner.trial_seed seed i) in
                  ignore
                    (Ssx_faults.Injector.run_poisson
                       (Ssos.System.fault_system system)
                       ~rng ~space:Ssos.System.default_fault_space ~rate
                       ~ticks:horizon);
                  float_of_int
                    (Ssx_devices.Heartbeat.count system.Ssos.System.heartbeat)
                  /. float_of_int baseline)
            in
            (* Summed in trial order: the mean is bit-identical for any
               worker count. *)
            let mean =
              List.fold_left ( +. ) 0.0 samples /. float_of_int trials
            in
            [ Printf.sprintf "%.0e" rate; name;
              Printf.sprintf "%.1f%%" (100.0 *. mean) ])
          designs)
      [ 1e-6; 5e-6; 2e-5; 1e-4 ]
  in
  { Table.id = "T12";
    title = "Availability under continuous soft-error rates";
    note =
      "The soft-error motivation of section 1 [32]: Poisson faults over the \
       full soft state for 1M ticks; availability = useful work relative to \
       a fault-free run of the same design.";
    header = [ "rate/tick"; "design"; "availability" ];
    rows }

(* ---------------------------------------------------------------- T13 *)

let t13_exhaustive_sweeps ?jobs () =
  (* Every case of a sweep is a trial indexed by the case: each starts
     from the same booted or warmed state. *)
  let failures recovered = List.length (List.filter not recovered) in
  (* Sweep 1: the primitive scheduler from EVERY instruction-pointer
     value (cs fixed at the ROM segment).  Self-stabilization quantifies
     over all states; here we enumerate one whole dimension instead of
     sampling it. *)
  let prim_cases = 0x10000 in
  let round_bound = 4 * Ssos.Primitive_sched.region_size in
  let prim_failures =
    failures
      (primitive_trials ?jobs ~trials:prim_cases ~warmup:0 (fun sched ip ->
           let machine = sched.Ssos.Primitive_sched.machine in
           let regs = (Ssx.Machine.cpu machine).Ssx.Cpu.regs in
           regs.Ssx.Registers.cs <- Ssos.Layout.rom_segment;
           regs.Ssx.Registers.ip <- ip;
           let before =
             Array.map Ssx_devices.Heartbeat.count
               sched.Ssos.Primitive_sched.heartbeats
           in
           let all_beat () =
             Array.for_all2
               (fun hb b -> Ssx_devices.Heartbeat.count hb > b)
               sched.Ssos.Primitive_sched.heartbeats before
           in
           Ssx.Machine.run_until machine ~limit:round_bound (fun _ -> all_beat ())
           <> None))
  in
  (* Sweep 2: every word of the section 5.2 scheduler's soft state
     (process table, index, stack frame area), each set to each of a set
     of adversarial values. *)
  let sched_values = [| 0x0000; 0x0001; 0x00FF; 0x2100; 0x8000; 0xFFFF |] in
  let n = 4 in
  let word_addrs =
    Array.of_list
      (List.init (n * 13) (fun i -> Ssos.Sched.process_record_addr 0 + (2 * i))
      @ [ Ssos.Sched.process_index_addr ]
      @ List.init 6 (fun i ->
            Ssx.Addr.physical ~seg:Ssos.Layout.sched_stack_segment
              ~off:(Ssos.Layout.sched_stack_top - 6 + (2 * i))))
  in
  let values = Array.length sched_values in
  let sched_cases = Array.length word_addrs * values in
  let sched_failures =
    failures
      (sched_trials ?jobs ~trials:sched_cases
         ~build:(fun () -> Ssos.Sched.build ~n ())
         ~warmup:100_000
         (fun sched case ->
           let machine = sched.Ssos.Sched.machine in
           Ssx.Memory.write_word (Ssx.Machine.memory machine)
             word_addrs.(case / values)
             sched_values.(case mod values);
           let before =
             Array.map Ssx_devices.Heartbeat.count sched.Ssos.Sched.heartbeats
           in
           let recovered () =
             Array.for_all2
               (fun hb b -> Ssx_devices.Heartbeat.count hb > b + 1)
               sched.Ssos.Sched.heartbeats before
           in
           Ssx.Machine.run_until machine
             ~limit:(3 * n * Ssos.Sched.default_watchdog_period)
             (fun _ -> recovered ())
           <> None))
  in
  (* Sweep 3: dense single-byte corruption of the running OS image under
     the Figure 1 design (every 4th offset, forced to 0xFF). *)
  let spec = Ssos.Reinstall.weak_spec ~window:10_000 () in
  let image_cases = (Ssos.Layout.os_image_size + 3) / 4 in
  let image_failures =
    failures
      (system_trials ?jobs ~trials:image_cases
         ~build:(fun () -> Ssos.Reinstall.build ())
         ~warmup:10_000
         (fun system case ->
           Ssx.Memory.write_byte
             (Ssx.Machine.memory system.Ssos.System.machine)
             ((Ssos.Layout.os_segment lsl 4) + (4 * case))
             0xFF;
           Ssos.System.run system ~ticks:120_000;
           (heartbeat_outcome ~spec ~faults_end:10_000 system).Runner.recovered))
  in
  { Table.id = "T13";
    title = "Exhaustive state-space sweeps (no sampling)";
    note =
      "Self-stabilization quantifies over ALL states. Where a dimension is \
       small enough we enumerate it outright: every instruction-pointer \
       value for the 5.1 scheduler, every soft-state word of the 5.2 \
       scheduler against six adversarial values, and a dense (stride 4) \
       single-byte corruption sweep of the running OS image under Figure 1.";
    header = [ "sweep"; "cases"; "failures" ];
    rows =
      [ [ "primitive scheduler: all 65536 ip values";
          Table.cell_int prim_cases;
          Table.cell_int prim_failures ];
        [ "5.2 scheduler: every soft-state word x 6 values";
          Table.cell_int sched_cases;
          Table.cell_int sched_failures ];
        [ "figure 1: OS image byte -> 0xFF, stride 4";
          Table.cell_int image_cases;
          Table.cell_int image_failures ] ] }

(* ---------------------------------------------------------------- T14 *)

let t14_ring_link_faults ?jobs () =
  let seed = 14L and trials = 12 in
  let n = 4 in
  let rates = [ 0.0; 0.05; 0.1; 0.2; 0.4 ] in
  let rows =
    List.map
      (fun drop ->
        let build () =
          Ssos_net.Net_ring.build ~n
            ~faults:(fun ~src:_ ~dst:_ ->
              Ssos_net.Link.lossy ~drop ~max_delay:2 ())
            ~seed:(Ssx_faults.Rng.derive seed 100) ()
        in
        (* The same master seed across rates pairs the trials: row r and
           row r' corrupt trial i identically, so differences are the
           link fault rate's alone. *)
        Printf.sprintf "%.0f%%" (100. *. drop)
        :: summary_cells
             (Runner.summarize
                (Runner.ring_campaign ~build ~perturb:Ssos_net.Net_ring.corrupt
                   ~horizon:4_000 ~window:600 ?jobs ~trials ~seed ())))
      rates
  in
  { Table.id = "T14";
    title = "Distributed token ring: convergence vs link-fault rate";
    note =
      "Dijkstra's K-state ring run across 4 machines (one guest per 5.2 \
       scheduler, counters exchanged over NICs). Each trial corrupts every \
       counter and every predecessor view with arbitrary words, then the \
       ring must reconverge to a single privilege over links that drop \
       each message with the given probability (plus 0-2 steps of delay \
       jitter). Recovery in cluster steps.";
    header = [ "drop rate"; "recovered"; "mean steps"; "max steps" ];
    rows }

(* ---------------------------------------------------------------- T15 *)

(* The combined fault phase of T15 and T17.  Machine faults: [burst]
   random corruptions, each from a random node's full 5.2 fault space
   (RAM, registers, control state, watchdog) — a node may lose its
   scheduler state entirely and must recover through its own watchdog
   NMI, during which it neither forwards counters nor serves.  Then
   [corrupt]: arbitrary words in the distributed state, so the
   configuration is arbitrary in the paper's sense when the message
   phase starts.  Message faults: a 150-step phase in which every link
   drops 30% of messages and corrupts a byte of half the rest; healthy
   nodes partially reconverge during it, crashed ones hold their
   corrupt state until their watchdog fires.  The links are clean
   again afterwards, for the judged recovery (and T17's serve phase:
   corrupting links while serving would forge store writes, which no
   replication protocol can linearize through). *)
let combined_faults ~burst rng ~systems ~cluster ~corrupt =
  let set_links ~drop ~corrupt =
    Array.iter
      (fun link ->
        let f = Ssos_net.Link.faults link in
        f.Ssos_net.Link.drop <- drop;
        f.Ssos_net.Link.corrupt <- corrupt)
      (Ssos_net.Cluster.links cluster)
  in
  for _ = 1 to burst do
    let sched = systems.(Ssx_faults.Rng.int rng (Array.length systems)) in
    ignore
      (Ssx_faults.Fault.apply
         (Ssos.Sched.fault_system sched)
         (Ssx_faults.Fault.random rng (Ssos.Sched.fault_space sched)))
  done;
  corrupt ();
  set_links ~drop:0.3 ~corrupt:0.5;
  Ssos_net.Cluster.run_sharded cluster ~steps:150;
  set_links ~drop:0.0 ~corrupt:0.0

let t15_ring_combined_faults ?jobs () =
  let seed = 15L and trials = 10 in
  let n = 4 in
  let build () =
    Ssos_net.Net_ring.build ~n ~seed:(Ssx_faults.Rng.derive seed 200) ()
  in
  let perturb ~burst rng ring =
    combined_faults ~burst rng ~systems:ring.Ssos_net.Net_ring.systems
      ~cluster:ring.Ssos_net.Net_ring.cluster ~corrupt:(fun () ->
        Ssos_net.Net_ring.corrupt rng ring)
  in
  let rows =
    List.map
      (fun burst ->
        Table.cell_int burst
        :: summary_cells
             (Runner.summarize
                (Runner.ring_campaign ~build ~perturb:(perturb ~burst)
                   ~horizon:6_000 ~window:800 ?jobs ~trials ~seed ())))
      [ 2; 4; 8; 16 ]
  in
  { Table.id = "T15";
    title = "Distributed ring under combined memory and message faults";
    note =
      "Per-node machine faults (the full 5.2 soft-state fault space), \
       arbitrary words in every counter and view, and a 150-step \
       lossy/corrupting phase on every link. Stabilization must compose: \
       each node's OS recovers via its watchdog NMI, then the ring \
       reconverges to a single privilege. Recovery in cluster steps from \
       the end of the message-fault phase.";
    header = [ "machine faults"; "recovered"; "mean steps"; "max steps" ];
    rows }

(* ---------------------------------------------------------------- T16 *)

let rsm_summary_cells (s : Runner.rsm_summary) =
  [ Table.cell_rate s.Runner.core.Runner.recoveries s.Runner.core.Runner.trials;
    Table.cell_opt_float ~decimals:0 s.Runner.core.Runner.mean_recovery;
    Table.cell_float ~decimals:1 s.Runner.mean_committed;
    Table.cell_float ~decimals:1 s.Runner.mean_lost;
    Table.cell_rate s.Runner.linearized s.Runner.core.Runner.trials ]

let t16_rsm_link_faults ?jobs () =
  let seed = 16L and trials = 8 in
  let n = 5 in
  let rates = [ 0.0; 0.05; 0.1; 0.2; 0.3 ] in
  let rows =
    List.map
      (fun drop ->
        let build () =
          Ssos_rsm.Service.build ~n
            ~faults:(fun ~src:_ ~dst:_ ->
              Ssos_net.Link.lossy ~drop ~max_delay:1 ())
            ~seed:(Ssx_faults.Rng.derive seed 100) ()
        in
        (* Same master seed across rates: row r and row r' corrupt and
           serve trial i identically, so differences are the drop
           rate's alone. *)
        Printf.sprintf "%.0f%%" (100. *. drop)
        :: rsm_summary_cells
             (Runner.rsm_summarize
                (Runner.rsm_campaign ~build ~perturb:Ssos_rsm.Service.corrupt
                   ?jobs ~trials ~seed ())))
      rates
  in
  { Table.id = "T16";
    title = "Replicated state machine: commit throughput vs link-fault rate";
    note =
      "A 5-replica key-value log (lib/rsm) riding the token ring: replicas \
       serve client get/put traffic only while holding the token, and \
       replicate by retransmitting their tagged store every pass. Each \
       trial corrupts every replica's counter, view, store and tag row \
       with arbitrary words; the service must reconverge (common store \
       prefix) and then serve a seeded client workload linearizably while \
       the links keep dropping messages at the given rate. Recovery in \
       cluster steps; committed/lost are per-trial means over the \
       1200-step serve phase.";
    header =
      [ "drop rate"; "recovered"; "mean steps"; "committed"; "lost";
        "linearized" ];
    rows }

(* ---------------------------------------------------------------- T17 *)

let t17_rsm_combined_faults ?jobs () =
  let seed = 17L and trials = 8 in
  let n = 5 in
  let build () =
    Ssos_rsm.Service.build ~n
      ~seed:(Ssx_faults.Rng.derive seed 200) ()
  in
  let perturb ~burst rng service =
    combined_faults ~burst rng ~systems:service.Ssos_rsm.Service.systems
      ~cluster:service.Ssos_rsm.Service.cluster ~corrupt:(fun () ->
        Ssos_rsm.Service.corrupt rng service)
  in
  let rows =
    List.map
      (fun burst ->
        Table.cell_int burst
        :: rsm_summary_cells
             (Runner.rsm_summarize
                (Runner.rsm_campaign ~build ~perturb:(perturb ~burst)
                   ~horizon:3_500 ~window:500 ?jobs ~trials ~seed ())))
      [ 2; 4; 8 ]
  in
  { Table.id = "T17";
    title = "Replicated state machine under combined machine and message faults";
    note =
      "Per-replica machine faults (the full 5.2 soft-state fault space), \
       arbitrary words in every counter, view, store and tag row, and a \
       150-step lossy/corrupting phase on every link. Stabilization must \
       compose end to end: each node's OS recovers via its watchdog NMI, \
       the ring reconverges, the stores rejoin a common prefix, and the \
       service then serves fresh client traffic linearizably. Mean steps \
       is the MTTR from the end of the message phase; lost counts \
       accepted-but-unanswered requests (the lost window).";
    header =
      [ "machine faults"; "recovered"; "mean steps"; "committed"; "lost";
        "linearized" ];
    rows }

(* ---------------------------------------------------------------- T18 *)

let dist_cells = function
  | None -> [ "-"; "-"; "-"; "-" ]
  | Some (d : Runner.distribution) ->
    [ Table.cell_int d.Runner.p50;
      Table.cell_int d.Runner.p90;
      Table.cell_int d.Runner.p99;
      Table.cell_int d.Runner.max ]

(* The daemon matrix shared by T18/T19: the two friendly built-ins,
   the unfair starver, crash-and-resurrect, and the state-inspecting
   adaptive adversary (heuristic scoring — the exact-table variant is
   exercised by the differential tests, where the table is cheap).
   Victim 1/2 rather than 0: starving the bottom node only stops the
   increment, while starving a copier freezes a whole ring segment. *)
let t18_daemons ~warmup =
  [ ("round-robin", Ssos_net.Cluster.Round_robin);
    ("fair-random", Ssos_net.Cluster.Fair_random);
    ( "starve{1}",
      Ssos_net.Cluster.Daemon (Ssx_stab.Adversary.starve ~victim:1 ()) );
    ( "crash{1}",
      (* Down for the first 400 recovery steps, state preserved. *)
      Ssos_net.Cluster.Daemon
        (Ssx_stab.Adversary.crash ~victim:1 ~down_from:warmup ~down_for:400 ())
    );
    ( "adaptive",
      Ssos_net.Cluster.Daemon
        (Ssx_stab.Adversary.adaptive ~k:Ssos_net.Net_ring.k ()) ) ]

let t18_ring_daemon_matrix ?jobs () =
  let seed = 18L and trials = 10 in
  let n = 4 in
  let warmup = 200 in
  let drops = [ 0.0; 0.2 ] in
  let rows =
    List.concat_map
      (fun (label, policy) ->
        List.map
          (fun drop ->
            let build () =
              Ssos_net.Net_ring.build ~n ~policy
                ~faults:(fun ~src:_ ~dst:_ ->
                  Ssos_net.Link.lossy ~drop ~max_delay:2 ())
                ~seed:(Ssx_faults.Rng.derive seed 100) ()
            in
            (* Same master seed everywhere: every cell corrupts trial i
               identically, so differences are the daemon's and the
               drop rate's alone. *)
            let outcomes =
              Runner.ring_campaign ~build
                ~perturb:Ssos_net.Net_ring.corrupt ~warmup ~horizon:3_000
                ~window:500 ?jobs ~trials ~seed ()
            in
            let summary = Runner.summarize outcomes in
            label
            :: Printf.sprintf "%.0f%%" (100. *. drop)
            :: Table.cell_rate summary.Runner.recoveries summary.Runner.trials
            :: dist_cells (Runner.distribution outcomes))
          drops)
      (t18_daemons ~warmup)
  in
  { Table.id = "T18";
    title = "Token ring: convergence distributions per scheduling daemon";
    note =
      "The T14 scenario (4-node ring, every counter and view corrupted \
       with arbitrary words) re-run under the full daemon matrix, \
       reporting the exact convergence distribution in cluster steps \
       (nearest-rank percentiles over recovered trials) instead of the \
       mean alone. Round-robin and fair-random are the paper's friendly \
       schedules; starve{1} never schedules node 1 (Dolev/Herman's \
       unsupportive environment — the ring cannot reconverge and the \
       claim's fairness hypothesis is shown necessary, not decorative); \
       crash{1} silences node 1 for the first 400 recovery steps with \
       state preserved (convergence waits for the resurrection); the \
       adaptive daemon inspects the enabled guards each step and \
       schedules the node whose move maximizes distance to legitimacy.";
    header = [ "daemon"; "drop"; "recovered"; "p50"; "p90"; "p99"; "max" ];
    rows }

(* ---------------------------------------------------------------- T19 *)

let t19_rsm_daemon_matrix ?jobs () =
  let seed = 19L and trials = 6 in
  let n = 5 in
  let warmup = 400 in
  let daemons =
    [ ("round-robin", Ssos_net.Cluster.Round_robin);
      ("fair-random", Ssos_net.Cluster.Fair_random);
      ( "starve{2}",
        Ssos_net.Cluster.Daemon (Ssx_stab.Adversary.starve ~victim:2 ()) );
      ( "crash{2}",
        (* Recurring outages: 100 steps down out of every 500, through
           both the recovery horizon and the serve phase. *)
        Ssos_net.Cluster.Daemon
          (Ssx_stab.Adversary.crash ~victim:2 ~down_from:warmup ~down_for:100
             ~period:500 ()) );
      ( "adaptive",
        Ssos_net.Cluster.Daemon
          (Ssx_stab.Adversary.adaptive ~k:Ssos_rsm.Wire.k ()) ) ]
  in
  let rows =
    List.map
      (fun (label, policy) ->
        let build () =
          Ssos_rsm.Service.build ~n ~policy
            ~faults:(fun ~src:_ ~dst:_ ->
              Ssos_net.Link.lossy ~drop:0.1 ~max_delay:1 ())
            ~seed:(Ssx_faults.Rng.derive seed 100) ()
        in
        let outcomes =
          Runner.rsm_campaign ~build ~perturb:Ssos_rsm.Service.corrupt
            ~warmup ?jobs ~trials ~seed ()
        in
        let summary = Runner.rsm_summarize outcomes in
        let base = List.map (fun o -> o.Runner.base) outcomes in
        (label
         :: Table.cell_rate summary.Runner.core.Runner.recoveries
              summary.Runner.core.Runner.trials
         :: dist_cells (Runner.distribution base))
        @ [ Table.cell_float ~decimals:1 summary.Runner.mean_committed;
            Table.cell_float ~decimals:1 summary.Runner.mean_lost;
            Table.cell_rate summary.Runner.linearized
              summary.Runner.core.Runner.trials ])
      daemons
  in
  { Table.id = "T19";
    title = "Replicated state machine under adversarial daemons";
    note =
      "The T16 scenario (5 replicas, 10% link drop, every counter, view, \
       store and tag row corrupted) under the daemon matrix. A starved \
       replica freezes its whole ring segment: the service never \
       reconverges and the token parks once it reaches the victim, so \
       commits collapse and the lost window grows — safety (linearized \
       commits) survives while liveness dies. Crash-and-resurrect \
       outages recur through the serve phase and show up as committed \
       throughput lost to each 100-step silence. The adaptive adversary \
       can stall recovery but not a stabilized ring: in a legitimate \
       configuration exactly one replica is enabled, so the \
       worst-enabled-node daemon has no choice left but the token \
       holder.";
    header =
      [ "daemon"; "recovered"; "p50"; "p90"; "p99"; "max"; "committed";
        "lost"; "linearized" ];
    rows }

(* ---------------------------------------------------------------- T20 *)

let t20_serve_fault_rates () =
  let seed = 20L and duration = 3_000 in
  let rates = [ 0.0; 0.001; 0.004; 0.016 ] in
  let rows =
    List.mapi
      (fun i fault_rate ->
        let s =
          Ssos_serve.Engine.serve ~nodes:5 ~rate:0.08 ~fault_rate ~duration
            ~seed:(Ssx_faults.Rng.derive seed (i + 1)) ()
        in
        let mean_mttr =
          match s.Ssos_serve.Engine.mttr with
          | [] -> None
          | mttr ->
            let count, sum =
              List.fold_left
                (fun (c, sum) (m : Ssos_serve.Engine.mttr) ->
                  ( c + m.Ssos_serve.Engine.incidents,
                    sum
                    +. (m.Ssos_serve.Engine.mean_steps
                       *. float_of_int m.Ssos_serve.Engine.incidents) ))
                (0, 0.) mttr
            in
            Some (sum /. float_of_int count)
        in
        [ Table.cell_float ~decimals:3 fault_rate;
          Table.cell_int
            (List.fold_left (fun a (_, c) -> a + c) 0
               s.Ssos_serve.Engine.fault_arrivals);
          Table.cell_float ~decimals:3 s.Ssos_serve.Engine.availability;
          Table.cell_float ~decimals:3
            s.Ssos_serve.Engine.min_window_availability;
          Table.cell_int s.Ssos_serve.Engine.p50;
          Table.cell_int s.Ssos_serve.Engine.p99;
          Table.cell_int s.Ssos_serve.Engine.detected;
          Table.cell_int s.Ssos_serve.Engine.repaired;
          Table.cell_opt_float ~decimals:1 mean_mttr;
          (if s.Ssos_serve.Engine.final_legal then "yes" else "no") ])
      rates
  in
  { Table.id = "T20";
    title = "Continuous operation: availability and MTTR vs fault rate";
    note =
      "The serve engine's closed execute/observe/detect/repair loop \
       (lib/serve) over a 5-replica service for 3,000 cluster steps at \
       8% request rate, under increasing background fault rates \
       (Bernoulli per-step arrivals, each one random fault from a \
       uniformly chosen node's full \xc2\xa75.2 space). Availability is \
       committed/injected; incidents open when a 150-step window loses \
       ring legality or its availability floor (85%) and close at the \
       next fully healthy window; MTTR is the mean open time in cluster \
       steps. Availability-under-continuous-faults is the claim the \
       paper motivates in \xc2\xa71 and Ideal Stabilization formalizes; \
       the loop itself is SNIPPETS.md #3's ouroboros pattern.";
    header =
      [ "fault-rate"; "arrivals"; "avail"; "min-window"; "p50"; "p99";
        "detected"; "repaired"; "mttr"; "final-legal" ];
    rows }

let all =
  [ ("T1", t1_reinstall_recovery);
    ("T2", t2_lemma_bounds);
    ("T3", t3_approach_comparison);
    ("T4", t4_period_sweep);
    ("T5", t5_primitive_fairness);
    ("T6", t6_sched_stabilization);
    ("T7", t7_ablations);
    ("T8", t8_monitor_coverage);
    ("T9", fun ?jobs () -> ignore jobs; t9_weak_vs_strict ());
    ("T10", fun ?jobs () -> ignore jobs; t10_composition ());
    ("T11", t11_token_ring_os);
    ("T12", t12_soft_error_rates);
    ("T13", t13_exhaustive_sweeps);
    ("T14", t14_ring_link_faults);
    ("T15", t15_ring_combined_faults);
    ("T16", t16_rsm_link_faults);
    ("T17", t17_rsm_combined_faults);
    ("T18", t18_ring_daemon_matrix);
    ("T19", t19_rsm_daemon_matrix);
    ("T20", fun ?jobs () -> ignore jobs; t20_serve_fault_rates ()) ]

let find id =
  let id = String.uppercase_ascii id in
  List.assoc_opt id all
