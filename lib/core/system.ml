type t = {
  machine : Ssx.Machine.t;
  watchdog : Ssx_devices.Watchdog.t option;
  heartbeat : Ssx_devices.Heartbeat.t;
  console : Ssx_devices.Console.t;
  nvstore : Ssx_devices.Nvstore.t;
  guest : Guest.t;
  obs_label : string;
}

let build ?nmi_counter_enabled ?hardwired_nmi ?(obs_label = "")
    ?(watchdog = `Nmi Layout.default_watchdog_period) ~rom ~guest () =
  let config = Layout.machine_config ?nmi_counter_enabled ?hardwired_nmi () in
  let machine = Ssx.Machine.create ~config () in
  Rom_builder.install rom (Ssx.Machine.memory machine);
  (Ssx.Machine.cpu machine).Ssx.Cpu.idtr <- Layout.rom_base + Layout.idt_offset;
  let watchdog =
    match watchdog with
    | `None -> None
    | `Nmi period ->
      let wd = Ssx_devices.Watchdog.create ~period ~target:Ssx_devices.Watchdog.Nmi_pin in
      Ssx.Machine.add_device machine (Ssx_devices.Watchdog.device wd);
      Ssx.Machine.add_resettable machine (Ssx_devices.Watchdog.resettable wd);
      Some wd
    | `Reset period ->
      let wd = Ssx_devices.Watchdog.create ~period ~target:Ssx_devices.Watchdog.Reset_pin in
      Ssx.Machine.add_device machine (Ssx_devices.Watchdog.device wd);
      Ssx.Machine.add_resettable machine (Ssx_devices.Watchdog.resettable wd);
      Some wd
  in
  let heartbeat = Ssx_devices.Heartbeat.create () in
  Ssx_devices.Heartbeat.attach heartbeat ~port:Layout.heartbeat_port machine;
  let console = Ssx_devices.Console.create () in
  Ssx_devices.Console.attach console ~port:Layout.console_port machine;
  let nvstore = Ssx_devices.Nvstore.create () in
  Ssx_devices.Nvstore.add nvstore ~name:"os"
    ~base:((Layout.os_segment lsl 4))
    (Guest.image_bytes guest);
  Ssx.Cpu.reset (Ssx.Machine.cpu machine);
  { machine; watchdog; heartbeat; console; nvstore; guest; obs_label }

(* The label goes on the block-table rows only: the rest must read the
   same whichever campaign worker ran a trial. *)
let counts system =
  let jit, simulated =
    List.partition Ssx.Machine.is_host_count (Ssx.Machine.counts system.machine)
  in
  simulated
  @ (if system.obs_label = "" then jit else Ssx.Counts.label system.obs_label jit)
  @ Option.fold ~none:[] ~some:Ssx_devices.Watchdog.counts system.watchdog
  @ Ssx_devices.Heartbeat.counts system.heartbeat

let fault_system system =
  { Ssx_faults.Fault.machine = system.machine; watchdog = system.watchdog }

let guest_ram_region = ((Layout.os_segment lsl 4), Layout.os_image_size)

let default_fault_space =
  { Ssx_faults.Fault.ram_regions = [ guest_ram_region ];
    registers = true;
    control_state = true;
    halt_faults = true;
    idtr_faults = true;
    watchdog_state = true }

let ram_only_fault_space =
  { Ssx_faults.Fault.ram_regions = [ guest_ram_region ];
    registers = false;
    control_state = false;
    halt_faults = false;
    idtr_faults = false;
    watchdog_state = false }

let install_guest system =
  Ssx_devices.Nvstore.install system.nvstore (Ssx.Machine.memory system.machine) "os"

let run system ~ticks = Ssx.Machine.run system.machine ~ticks
