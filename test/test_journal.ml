(* The §4 monitor generalised to a second, structurally different guest:
   the journal kernel, protected by build_custom + journal predicates. *)

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

let build () =
  Ssos.Monitor.build_custom ~guest:(Ssos.Guest.journal_kernel ())
    ~predicates:(Ssos.Monitor.journal_predicates ())
    ()

let samples monitor =
  Ssx_devices.Heartbeat.samples monitor.Ssos.Monitor.system.Ssos.System.heartbeat

let end_tick monitor =
  Ssx.Machine.ticks monitor.Ssos.Monitor.system.Ssos.System.machine

let strictly_legal monitor =
  Ssx_stab.Convergence.converged
    (Ssx_stab.Convergence.judge ~spec:(Ssos.Reinstall.strict_spec ())
       ~samples:(samples monitor) ~end_tick:(end_tick monitor))

let mem monitor = Ssx.Machine.memory monitor.Ssos.Monitor.system.Ssos.System.machine

let test_journal_runs_clean () =
  let monitor = build () in
  Ssos.System.run monitor.Ssos.Monitor.system ~ticks:150_000;
  check_bool "strongly legal" true (strictly_legal monitor);
  check_int "no detections" 0 (List.length (Ssos.Monitor.detections monitor))

let test_journal_entries_are_consistent () =
  let monitor = build () in
  Ssos.System.run monitor.Ssos.Monitor.system ~ticks:60_000;
  let mem = mem monitor in
  (* Every written slot must carry seq xor MAC. *)
  for i = 0 to Ssos.Guest.journal_slots - 1 do
    let seq = Ssx.Memory.read_word mem (Ssos.Guest.journal_addr + (4 * i)) in
    let mac = Ssx.Memory.read_word mem (Ssos.Guest.journal_addr + (4 * i) + 2) in
    if seq <> 0 then
      check_int (Printf.sprintf "slot %d mac" i) (seq lxor Ssos.Guest.journal_mac) mac
  done;
  check_bool "pointer in range" true
    (Ssx.Memory.read_word mem Ssos.Guest.write_ptr_addr < Ssos.Guest.journal_slots)

let test_write_ptr_repaired () =
  let monitor = build () in
  Ssos.System.run monitor.Ssos.Monitor.system ~ticks:60_000;
  Ssx.Memory.write_word (mem monitor) Ssos.Guest.write_ptr_addr 0x4141;
  Ssos.System.run monitor.Ssos.Monitor.system ~ticks:200_000;
  check_bool "detected" true
    (List.exists
       (fun d -> List.mem "journal-write-ptr-in-range" d.Ssos.Monitor.violated)
       (Ssos.Monitor.detections monitor));
  check_bool "repaired" true
    (Ssx.Memory.read_word (mem monitor) Ssos.Guest.write_ptr_addr
    < Ssos.Guest.journal_slots);
  check_bool "legal again" true (strictly_legal monitor)

let test_mac_repaired () =
  (* The kernel overwrites the whole ring every ~1.1k ticks, so a
     corrupted MAC usually self-heals before the next NMI check; the
     predicate's detect/repair semantics are therefore exercised
     directly (the monitor calls exactly this code at each check). *)
  let monitor = build () in
  let machine = monitor.Ssos.Monitor.system.Ssos.System.machine in
  Ssos.System.run monitor.Ssos.Monitor.system ~ticks:60_000;
  let slot = Ssos.Guest.journal_addr + 8 in
  let seq = Ssx.Memory.read_word (mem monitor) slot in
  check_bool "slot written" true (seq <> 0);
  Ssx.Memory.write_word (mem monitor) (slot + 2) (seq lxor 0x1111);
  let violated =
    Ssx_stab.Predicate.check_and_repair (Ssos.Monitor.journal_predicates ())
      machine
  in
  check_bool "detected" true
    (List.exists
       (fun p -> p.Ssx_stab.Predicate.name = "journal-entry-macs")
       violated);
  check_int "mac recomputed" (seq lxor Ssos.Guest.journal_mac)
    (Ssx.Memory.read_word (mem monitor) (slot + 2))

let test_recovers_from_bursts () =
  let rng = Ssx_faults.Rng.create 63L in
  let spec = Ssos.Reinstall.strict_spec () in
  for _ = 1 to 8 do
    let monitor = build () in
    Ssos.System.run monitor.Ssos.Monitor.system ~ticks:30_000;
    ignore
      (Ssx_faults.Injector.inject_now
         (Ssos.System.fault_system monitor.Ssos.Monitor.system)
         ~rng ~space:Ssos.System.default_fault_space 40);
    Ssos.System.run monitor.Ssos.Monitor.system ~ticks:300_000;
    check_bool "recovered" true
      (Ssx_stab.Convergence.converged
         (Ssx_stab.Convergence.judge ~spec ~samples:(samples monitor)
            ~end_tick:(end_tick monitor)))
  done

let test_without_code_integrity () =
  let monitor =
    Ssos.Monitor.build_custom ~guest:(Ssos.Guest.journal_kernel ())
      ~predicates:(Ssos.Monitor.journal_predicates ())
      ~code_integrity:false ()
  in
  check_int "two predicates only" 2 (List.length monitor.Ssos.Monitor.predicates)

let suite =
  [ case "journal kernel runs strongly legal" test_journal_runs_clean;
    case "journal entries carry valid MACs" test_journal_entries_are_consistent;
    case "write pointer detected and repaired" test_write_ptr_repaired;
    case "corrupted MAC detected and recomputed" test_mac_repaired;
    case "recovers from fault bursts" test_recovers_from_bursts;
    case "code-integrity predicate is optional" test_without_code_integrity ]
