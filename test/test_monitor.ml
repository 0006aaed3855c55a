let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

let samples monitor =
  Ssx_devices.Heartbeat.samples monitor.Ssos.Monitor.system.Ssos.System.heartbeat

let end_tick monitor =
  Ssx.Machine.ticks monitor.Ssos.Monitor.system.Ssos.System.machine

let strictly_legal monitor =
  Ssx_stab.Convergence.converged
    (Ssx_stab.Convergence.judge ~spec:(Ssos.Reinstall.strict_spec ())
       ~samples:(samples monitor) ~end_tick:(end_tick monitor))

let test_clean_run_strongly_legal () =
  let monitor = Ssos.Monitor.build () in
  Ssos.System.run monitor.Ssos.Monitor.system ~ticks:200_000;
  check_bool "no violations across watchdog pulses" true (strictly_legal monitor);
  check_int "no detections on a clean run" 0
    (List.length (Ssos.Monitor.detections monitor));
  check_bool "checks did run" true (monitor.Ssos.Monitor.checks > 0)

let test_index_repair () =
  let monitor = Ssos.Monitor.build () in
  let system = monitor.Ssos.Monitor.system in
  Ssos.System.run system ~ticks:30_000;
  let mem = Ssx.Machine.memory system.Ssos.System.machine in
  Ssx.Memory.write_word mem Ssos.Guest.task_index_addr 0x4444;
  Ssos.System.run system ~ticks:200_000;
  check_bool "detected" true
    (List.exists
       (fun d -> List.mem "task-index-in-range" d.Ssos.Monitor.violated)
       (Ssos.Monitor.detections monitor));
  check_bool "index back in range" true
    (Ssx.Memory.read_word mem Ssos.Guest.task_index_addr < 4);
  check_bool "behaviour legal again" true (strictly_legal monitor)

let test_table_repair () =
  let monitor = Ssos.Monitor.build () in
  let system = monitor.Ssos.Monitor.system in
  Ssos.System.run system ~ticks:30_000;
  let mem = Ssx.Machine.memory system.Ssos.System.machine in
  Ssx.Memory.write_word mem Ssos.Guest.task_table_addr 0x0042;
  Ssos.System.run system ~ticks:200_000;
  check_bool "detected" true
    (List.exists
       (fun d -> List.mem "task-table-golden" d.Ssos.Monitor.violated)
       (Ssos.Monitor.detections monitor));
  check_int "golden value restored" 1
    (Ssx.Memory.read_word mem Ssos.Guest.task_table_addr)

let test_divisor_zero_graduated_repair () =
  (* #DE -> exception path -> predicate repairs the divisor -> retry
     succeeds with no full restart. *)
  let monitor = Ssos.Monitor.build () in
  let system = monitor.Ssos.Monitor.system in
  Ssos.System.run system ~ticks:30_000;
  let mem = Ssx.Machine.memory system.Ssos.System.machine in
  Ssx.Memory.write_word mem (Ssos.Guest.task_table_addr + 2) 0;
  let counter_before = Ssx.Memory.read_word mem Ssos.Guest.counter_addr in
  Ssos.System.run system ~ticks:50_000;
  check_bool "repaired" true
    (Ssx.Memory.read_word mem (Ssos.Guest.task_table_addr + 2)
    = Ssos.Guest.task_divisor);
  (* The counter kept growing from where it was: no reinstall of data. *)
  let counter_after = Ssx.Memory.read_word mem Ssos.Guest.counter_addr in
  check_bool "counter survived (graduated repair, not restart)" true
    (counter_after > counter_before)

let test_code_refresh () =
  let monitor = Ssos.Monitor.build () in
  let system = monitor.Ssos.Monitor.system in
  Ssos.System.run system ~ticks:30_000;
  let mem = Ssx.Machine.memory system.Ssos.System.machine in
  (* Corrupt an early code byte; the next NMI (or exception) refreshes. *)
  Ssx.Memory.write_byte mem ((Ssos.Layout.os_segment lsl 4) + 1) 0xEE;
  Ssos.System.run system ~ticks:120_000;
  check_bool "code matches the golden image again" true
    (Ssx_devices.Nvstore.verify system.Ssos.System.nvstore mem "os"
    ||
    (* data half may differ; compare only the code portion *)
    (let golden = Ssos.Guest.image_bytes system.Ssos.System.guest in
     Ssx.Memory.dump mem
       ~base:(Ssos.Layout.os_segment lsl 4)
       ~len:Ssos.Layout.os_data_offset
     = String.sub golden 0 Ssos.Layout.os_data_offset));
  check_bool "legal again" true (strictly_legal monitor)

let test_wild_frame_restarts () =
  let monitor = Ssos.Monitor.build () in
  let system = monitor.Ssos.Monitor.system in
  Ssos.System.run system ~ticks:30_000;
  let regs = (Ssx.Machine.cpu system.Ssos.System.machine).Ssx.Cpu.regs in
  regs.Ssx.Registers.cs <- 0x4242;
  regs.Ssx.Registers.ip <- 0x1234;
  Ssos.System.run system ~ticks:200_000;
  check_bool "guest runs again" true
    (match Ssx_devices.Heartbeat.last system.Ssos.System.heartbeat with
    | Some s -> end_tick monitor - s.Ssx_devices.Heartbeat.tick < 10_000
    | None -> false)

let test_exception_escalation_without_predicates () =
  (* With predicates disabled nothing repairs a zero divisor; the
     repeat-exception latch must escalate to the full reinstall, which
     restores the golden data. *)
  let monitor =
    Ssos.Monitor.build_custom ~guest:(Ssos.Guest.task_kernel ()) ~predicates:[]
      ~code_integrity:false ()
  in
  let system = monitor.Ssos.Monitor.system in
  Ssos.System.run system ~ticks:30_000;
  let mem = Ssx.Machine.memory system.Ssos.System.machine in
  Ssx.Memory.write_word mem (Ssos.Guest.task_table_addr + 2) 0;
  Ssos.System.run system ~ticks:200_000;
  check_int "golden divisor restored by reinstall" Ssos.Guest.task_divisor
    (Ssx.Memory.read_word mem (Ssos.Guest.task_table_addr + 2));
  check_bool "beating again" true
    (match Ssx_devices.Heartbeat.last system.Ssos.System.heartbeat with
    | Some s -> end_tick monitor - s.Ssx_devices.Heartbeat.tick < 10_000
    | None -> false)

let test_stack_repair () =
  let monitor = Ssos.Monitor.build () in
  let system = monitor.Ssos.Monitor.system in
  Ssos.System.run system ~ticks:30_000;
  let regs = (Ssx.Machine.cpu system.Ssos.System.machine).Ssx.Cpu.regs in
  regs.Ssx.Registers.sp <- 0x0010;
  Ssos.System.run system ~ticks:200_000;
  check_bool "detected" true
    (List.exists
       (fun d -> List.mem "stack-registers-sane" d.Ssos.Monitor.violated)
       (Ssos.Monitor.detections monitor));
  check_bool "sp back in range" true (regs.Ssx.Registers.sp >= 0xFF00)

let test_guest_predicates_structure () =
  let predicates = Ssos.Monitor.guest_predicates ~tasks:4 in
  check_int "three predicates" 3 (List.length predicates);
  List.iter
    (fun p ->
      check_bool "repairable" true (p.Ssx_stab.Predicate.repair <> None))
    predicates

let suite =
  [ case "clean runs are strongly legal" test_clean_run_strongly_legal;
    case "index predicate detects and repairs" test_index_repair;
    case "table predicate restores golden entries" test_table_repair;
    case "divisor zero: graduated repair without restart"
      test_divisor_zero_graduated_repair;
    case "code refresh repairs corrupted code" test_code_refresh;
    case "wild frames are restarted" test_wild_frame_restarts;
    case "repeat exceptions escalate to reinstall"
      test_exception_escalation_without_predicates;
    case "stack predicate repairs sp" test_stack_repair;
    case "guest predicates structure" test_guest_predicates_structure ]
