type port_handler = {
  read : Instruction.width -> int;
  write : Instruction.width -> int -> unit;
}

let null_port =
  { read = (fun _ -> 0); write = (fun _ _ -> ()) }

type t = {
  cpu : Cpu.t;
  mem : Memory.t;
  mutable devices : Device.t array;
  mutable device_ticks : (Cpu.t -> unit) array;
      (* devices.(i).tick, pre-extracted for the per-tick loop *)
  ports : port_handler array;  (* indexed by port byte, 256 entries *)
  mutable resettables : (unit -> unit -> unit) array;
      (* device-state capture hooks: calling one captures the device's
         current host-side state and returns the thunk that restores it *)
  mutable jit : Block_compiler.t option;
  counters : Tick_counters.t;  (* every tick's event, always counted *)
}

let cpu m = m.cpu
let memory m = m.mem
let ticks m = m.cpu.Cpu.steps
let jit m = m.jit
let tick_counters m = m.counters

let is_host_count (name, _) = String.starts_with ~prefix:"machine.jit." name

let counts m =
  let c = m.counters in
  let jit read = match m.jit with Some jit -> read jit | None -> 0 in
  [ ("machine.ticks", c.Tick_counters.ticks);
    ("machine.executed", c.Tick_counters.executed);
    ("machine.interrupts", c.Tick_counters.interrupts);
    ("machine.nmis", c.Tick_counters.nmis);
    ("machine.exceptions", c.Tick_counters.exceptions);
    ("machine.idle", c.Tick_counters.idle);
    ("machine.resets", c.Tick_counters.resets);
    ("machine.mem.writes", Memory.write_count m.mem);
    ("machine.mem.rom-refusals", Memory.rom_refusal_count m.mem);
    ("machine.jit.blocks-built", jit Block_compiler.built);
    ("machine.jit.retranslations", jit Block_compiler.retranslations);
    ("machine.jit.block-ticks", jit Block_compiler.block_ticks) ]

(* The block table reads code changes from the memory's page
   generations. *)
let set_jit m enabled =
  match (m.jit, enabled) with
  | Some _, true | None, false -> ()
  | None, true -> m.jit <- Some (Block_compiler.create m.mem)
  | Some _, false -> m.jit <- None

(* Default from the environment, like [Obs.enabled] / SSOS_OBS: the jit
   is on unless SSOS_JIT is "0", "false" or empty. *)
let jit_env_default =
  match Sys.getenv_opt "SSOS_JIT" with
  | Some ("0" | "false" | "") -> false
  | Some _ | None -> true

let jit_default = ref jit_env_default
let set_jit_default v = jit_default := v
let jit_default_enabled () = !jit_default

let create ?config () =
  let mem = Memory.create () in
  let cpu = Cpu.create ?config mem in
  let m =
    { cpu; mem; devices = [||]; device_ticks = [||];
      ports = Array.make 256 null_port; resettables = [||];
      jit = None; counters = Tick_counters.make () }
  in
  (* Port numbers are a single byte in the instruction encoding, so a
     flat 256-entry table replaces the hashtable (and its per-I/O
     option allocation) on the in/out path. *)
  let io_in port width = (Array.unsafe_get m.ports (port land 0xff)).read width in
  let io_out port width value =
    (Array.unsafe_get m.ports (port land 0xff)).write width value
  in
  cpu.Cpu.io <- { Cpu.io_in; io_out };
  set_jit m !jit_default;
  m

let add_device m device =
  m.devices <- Array.append m.devices [| device |];
  m.device_ticks <- Array.map (fun d -> d.Device.tick) m.devices

let register_port m ~port ~read ~write =
  m.ports.(port land 0xff) <- { read; write }

let add_resettable m capture =
  m.resettables <- Array.append m.resettables [| capture |]

let resettable_count m = Array.length m.resettables
let capture_device_state m = Array.map (fun capture -> capture ()) m.resettables

(* One tick: every device, one engine step, the event counted. *)
let tick m =
  let cpu = m.cpu in
  let devices = m.device_ticks in
  for i = 0 to Array.length devices - 1 do
    (Array.unsafe_get devices i) cpu
  done;
  let event =
    match m.jit with
    | Some jit -> Block_compiler.step_cpu jit cpu
    | None -> Cpu.step cpu
  in
  Tick_counters.note m.counters event;
  event

let run m ~ticks =
  (* A jit machine hands whole chunks to the block compiler's windowed
     quiet runner ({!Block_compiler.run_quiet}); a raw one ticks.
     Re-decided every chunk: a port handler may add devices or toggle
     the jit mid-run. *)
  let remaining = ref ticks in
  while !remaining > 0 do
    match m.jit with
    | Some jit ->
      let chunk = if !remaining < 4096 then !remaining else 4096 in
      Block_compiler.run_quiet jit m.cpu ~devices:m.devices
        ~counters:m.counters ~budget:chunk;
      remaining := !remaining - chunk
    | None ->
      ignore (tick m);
      decr remaining
  done

let run_until m ~limit pred =
  let rec loop n =
    if n >= limit then None
    else begin
      ignore (tick m);
      if pred m then Some (n + 1) else loop (n + 1)
    end
  in
  loop 0
