let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

let system () =
  let machine, _ = Helpers.machine_with "spin:\n    jmp spin\n" in
  { Ssx_faults.Fault.machine; watchdog = None }

let test_rng_deterministic () =
  let a = Ssx_faults.Rng.create 42L and b = Ssx_faults.Rng.create 42L in
  for _ = 1 to 100 do
    check_bool "same stream" true
      (Ssx_faults.Rng.next_int64 a = Ssx_faults.Rng.next_int64 b)
  done

let test_rng_bounds () =
  let rng = Ssx_faults.Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Ssx_faults.Rng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let f = Ssx_faults.Rng.float rng in
    check_bool "unit interval" true (f >= 0.0 && f < 1.0)
  done

let test_rng_split_independent () =
  let rng = Ssx_faults.Rng.create 1L in
  let child = Ssx_faults.Rng.split rng in
  check_bool "different streams" true
    (Ssx_faults.Rng.next_int64 rng <> Ssx_faults.Rng.next_int64 child)

let test_rng_copy () =
  let rng = Ssx_faults.Rng.create 5L in
  ignore (Ssx_faults.Rng.next_int64 rng);
  let snapshot = Ssx_faults.Rng.copy rng in
  check_bool "copy continues identically" true
    (Ssx_faults.Rng.next_int64 rng = Ssx_faults.Rng.next_int64 snapshot)

let test_ram_bit_flip () =
  let sys = system () in
  let mem = Ssx.Machine.memory sys.Ssx_faults.Fault.machine in
  Ssx.Memory.write_byte mem 0x5000 0b1010;
  check_bool "applied" true
    (Ssx_faults.Fault.apply sys (Ssx_faults.Fault.Ram_bit_flip { addr = 0x5000; bit = 1 }));
  check_int "bit flipped" 0b1000 (Ssx.Memory.read_byte mem 0x5000)

let test_rom_refused () =
  let sys = system () in
  let mem = Ssx.Machine.memory sys.Ssx_faults.Fault.machine in
  Ssx.Memory.protect mem { Ssx.Memory.base = 0x7000; size = 0x100 };
  check_bool "refused" false
    (Ssx_faults.Fault.apply sys (Ssx_faults.Fault.Ram_bit_flip { addr = 0x7000; bit = 0 }));
  check_bool "byte refused too" false
    (Ssx_faults.Fault.apply sys (Ssx_faults.Fault.Ram_byte { addr = 0x7050; value = 1 }))

let test_register_faults () =
  let sys = system () in
  let regs = (Ssx.Machine.cpu sys.Ssx_faults.Fault.machine).Ssx.Cpu.regs in
  ignore (Ssx_faults.Fault.apply sys (Ssx_faults.Fault.Reg16 (Ssx.Registers.BX, 0xDEAD)));
  check_int "bx" 0xDEAD regs.Ssx.Registers.bx;
  ignore (Ssx_faults.Fault.apply sys (Ssx_faults.Fault.Sreg (Ssx.Registers.SS, 0x1234)));
  check_int "ss" 0x1234 regs.Ssx.Registers.ss;
  ignore (Ssx_faults.Fault.apply sys (Ssx_faults.Fault.Ip 0x4321));
  check_int "ip" 0x4321 regs.Ssx.Registers.ip;
  ignore (Ssx_faults.Fault.apply sys (Ssx_faults.Fault.Psw 0xFFFF));
  check_int "psw" 0xFFFF regs.Ssx.Registers.psw

let test_control_faults () =
  let sys = system () in
  let cpu = Ssx.Machine.cpu sys.Ssx_faults.Fault.machine in
  ignore (Ssx_faults.Fault.apply sys (Ssx_faults.Fault.Idtr 0x12345));
  check_int "idtr" 0x12345 cpu.Ssx.Cpu.idtr;
  ignore (Ssx_faults.Fault.apply sys (Ssx_faults.Fault.Nmi_latch true));
  check_bool "latch" true cpu.Ssx.Cpu.in_nmi;
  ignore (Ssx_faults.Fault.apply sys Ssx_faults.Fault.Spurious_halt);
  check_bool "halted" true cpu.Ssx.Cpu.halted;
  ignore (Ssx_faults.Fault.apply sys (Ssx_faults.Fault.Nmi_counter 99));
  check_int "counter" 99 cpu.Ssx.Cpu.regs.Ssx.Registers.nmi_counter

let test_watchdog_fault_needs_device () =
  let sys = system () in
  check_bool "no watchdog -> refused" false
    (Ssx_faults.Fault.apply sys (Ssx_faults.Fault.Watchdog_counter 5));
  let wd = Ssx_devices.Watchdog.create ~period:10 ~target:Ssx_devices.Watchdog.Nmi_pin in
  let sys = { sys with Ssx_faults.Fault.watchdog = Some wd } in
  check_bool "applied" true
    (Ssx_faults.Fault.apply sys (Ssx_faults.Fault.Watchdog_counter 5));
  check_int "counter set" 5 (Ssx_devices.Watchdog.counter wd)

let space_without sel =
  let base = Ssx_faults.Fault.default_space in
  sel { base with Ssx_faults.Fault.ram_regions = [ (0x1000, 0x100) ] }

let test_space_filters () =
  let rng = Ssx_faults.Rng.create 11L in
  (* idtr disabled: no Idtr faults in 2000 draws. *)
  let space =
    space_without (fun s -> { s with Ssx_faults.Fault.idtr_faults = false })
  in
  for _ = 1 to 2000 do
    match Ssx_faults.Fault.random rng space with
    | Ssx_faults.Fault.Idtr _ -> Alcotest.fail "idtr fault drawn"
    | _ -> ()
  done;
  let space =
    space_without (fun s -> { s with Ssx_faults.Fault.halt_faults = false })
  in
  for _ = 1 to 2000 do
    match Ssx_faults.Fault.random rng space with
    | Ssx_faults.Fault.Spurious_halt -> Alcotest.fail "halt fault drawn"
    | _ -> ()
  done

let test_ram_faults_respect_regions () =
  let rng = Ssx_faults.Rng.create 13L in
  let space =
    { Ssx_faults.Fault.ram_regions = [ (0x2000, 0x10); (0x8000, 0x10) ];
      registers = false;
      control_state = false;
      halt_faults = false;
      idtr_faults = false;
      watchdog_state = false }
  in
  for _ = 1 to 1000 do
    match Ssx_faults.Fault.random rng space with
    | Ssx_faults.Fault.Ram_bit_flip { addr; _ } | Ssx_faults.Fault.Ram_byte { addr; _ } ->
      check_bool "in region" true
        ((addr >= 0x2000 && addr < 0x2010) || (addr >= 0x8000 && addr < 0x8010))
    | fault ->
      Alcotest.failf "unexpected fault %s" (Ssx_faults.Fault.to_string fault)
  done

(* [run_poisson] against a reference loop: tick by tick on the raw
   interpreter, one draw after each tick, one fault per arrival.
   The windowed jit run between arrivals must land the same faults at
   the same ticks and end in the same machine. *)
let test_run_poisson_matches_per_tick_reference () =
  let rate = 0.0005 and ticks = 60_000 in
  let space = Ssos.System.default_fault_space in
  let reference =
    let system = Ssos.Reinstall.build () in
    let fault_system = Ssos.System.fault_system system in
    let machine = system.Ssos.System.machine in
    Ssx.Machine.set_jit machine false;
    let rng = Ssx_faults.Rng.create 41L in
    let landed = ref [] in
    for _ = 1 to ticks do
      ignore (Ssx.Machine.tick machine);
      if Ssx_faults.Rng.float rng < rate then begin
        let fault = Ssx_faults.Fault.random rng space in
        if Ssx_faults.Fault.apply fault_system fault then
          landed := (Ssx.Machine.ticks machine, fault) :: !landed
      end
    done;
    (List.rev !landed, Ssx.Snapshot.digest (Ssx.Snapshot.capture machine))
  in
  let system = Ssos.Reinstall.build () in
  let landed =
    Ssx_faults.Injector.run_poisson
      (Ssos.System.fault_system system)
      ~rng:(Ssx_faults.Rng.create 41L) ~space ~rate ~ticks
  in
  let machine = system.Ssos.System.machine in
  let ref_landed, ref_digest = reference in
  check_bool "faults landed" true (List.length ref_landed > 10);
  Alcotest.(check (list int)) "same arrival ticks" (List.map fst ref_landed)
    (List.map fst landed);
  check_bool "same faults" true (List.map snd ref_landed = List.map snd landed);
  check_int "ran exactly the ticks" ticks (Ssx.Machine.ticks machine);
  Helpers.check_string "same final machine" ref_digest
    (Ssx.Snapshot.digest (Ssx.Snapshot.capture machine))

let test_run_poisson_rejects_bad_arguments () =
  let machine, _ = Helpers.machine_with "spin:\n    jmp spin\n" in
  let sys = { Ssx_faults.Fault.machine; watchdog = None } in
  let run ~rate ~ticks () =
    ignore
      (Ssx_faults.Injector.run_poisson sys ~rng:(Ssx_faults.Rng.create 1L)
         ~space:Ssx_faults.Fault.default_space ~rate ~ticks)
  in
  List.iter
    (fun rate ->
      Alcotest.check_raises
        (Printf.sprintf "rate %g" rate)
        (Invalid_argument "Injector.run_poisson: rate")
        (run ~rate ~ticks:10))
    [ -0.1; 1.5; Float.nan ];
  Alcotest.check_raises "negative ticks"
    (Invalid_argument "Injector.run_poisson: ticks")
    (run ~rate:0.5 ~ticks:(-1));
  check_int "nothing ran" 0 (Ssx.Machine.ticks machine);
  run ~rate:0.0 ~ticks:25 ();
  check_int "rate 0 runs the ticks" 25 (Ssx.Machine.ticks machine)

let test_fault_pretty_printing () =
  List.iter
    (fun (fault, fragment) ->
      check_bool
        (Printf.sprintf "renders %s" fragment)
        true
        (Astring_contains.contains (Ssx_faults.Fault.to_string fault) fragment))
    [ (Ssx_faults.Fault.Ram_bit_flip { addr = 0x1234; bit = 3 }, "ram-bit-flip");
      (Ssx_faults.Fault.Ram_byte { addr = 0x1234; value = 0xFF }, "ram-byte");
      (Ssx_faults.Fault.Reg16 (Ssx.Registers.AX, 1), "reg ax");
      (Ssx_faults.Fault.Sreg (Ssx.Registers.SS, 1), "sreg ss");
      (Ssx_faults.Fault.Ip 0x10, "ip <-");
      (Ssx_faults.Fault.Psw 0x10, "psw <-");
      (Ssx_faults.Fault.Nmi_counter 9, "nmi-counter");
      (Ssx_faults.Fault.Nmi_latch true, "nmi-latch");
      (Ssx_faults.Fault.Idtr 0x10, "idtr");
      (Ssx_faults.Fault.Spurious_halt, "halt");
      (Ssx_faults.Fault.Watchdog_counter 7, "watchdog-counter") ]

let test_inject_now () =
  let sys = system () in
  let rng = Ssx_faults.Rng.create 17L in
  let space =
    { Ssx_faults.Fault.default_space with
      Ssx_faults.Fault.ram_regions = [ (0x2000, 0x100) ] }
  in
  let faults = Ssx_faults.Injector.inject_now sys ~rng ~space 7 in
  check_int "exactly seven applied" 7 (List.length faults)

let prop_random_faults_apply =
  QCheck.Test.make ~count:200 ~name:"random faults always apply outside ROM"
    (QCheck.int_bound 1_000_000)
    (fun seed ->
      let machine, _ = Helpers.machine_with "spin:\n    jmp spin\n" in
      let wd = Ssx_devices.Watchdog.create ~period:10 ~target:Ssx_devices.Watchdog.Nmi_pin in
      let sys = { Ssx_faults.Fault.machine; watchdog = Some wd } in
      let rng = Ssx_faults.Rng.create (Int64.of_int seed) in
      let space =
        { Ssx_faults.Fault.default_space with
          Ssx_faults.Fault.ram_regions = [ (0x1000, 0x1000) ] }
      in
      Ssx_faults.Fault.apply sys (Ssx_faults.Fault.random rng space))

let suite =
  [ case "rng is deterministic" test_rng_deterministic;
    case "rng bounds" test_rng_bounds;
    case "rng split independence" test_rng_split_independent;
    case "rng copy" test_rng_copy;
    case "ram bit flip" test_ram_bit_flip;
    case "ROM faults are refused" test_rom_refused;
    case "register faults" test_register_faults;
    case "control-state faults" test_control_faults;
    case "watchdog fault needs the device" test_watchdog_fault_needs_device;
    case "space filters exclude classes" test_space_filters;
    case "ram faults stay in their regions" test_ram_faults_respect_regions;
    case "run_poisson matches a per-tick reference"
      test_run_poisson_matches_per_tick_reference;
    case "run_poisson rejects bad arguments"
      test_run_poisson_rejects_bad_arguments;
    case "fault pretty-printing" test_fault_pretty_printing;
    case "inject_now applies exactly n" test_inject_now ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_random_faults_apply ]
