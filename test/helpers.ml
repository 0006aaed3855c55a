(* Shared test plumbing. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let case name f = Alcotest.test_case name `Quick f

(* [with_jit ~jit machine] switches [machine] to the block compiler
   ([true]) or the plain interpreter ([false]) and returns it. *)
let with_jit ~jit machine =
  Ssx.Machine.set_jit machine jit;
  machine

(* Build a bare machine with a program assembled at [seg]:0 and the CPU
   pointed at it.  No ROM, no devices: pure ISA semantics. *)
let machine_with ?(seg = 0x1000) ?(symbols = []) ?jit source =
  let machine = Ssx.Machine.create () in
  Option.iter (Ssx.Machine.set_jit machine) jit;
  let image = Ssx_asm.Assemble.assemble ~origin:0 ~symbols source in
  Ssx.Memory.load_image (Ssx.Machine.memory machine) ~base:(seg lsl 4)
    image.Ssx_asm.Assemble.bytes;
  let regs = (Ssx.Machine.cpu machine).Ssx.Cpu.regs in
  regs.Ssx.Registers.cs <- seg;
  regs.Ssx.Registers.ip <- 0;
  regs.Ssx.Registers.ss <- seg;
  regs.Ssx.Registers.sp <- 0xFFFE;
  (machine, image)

let run_steps machine n = Ssx.Machine.run machine ~ticks:n

let regs machine = (Ssx.Machine.cpu machine).Ssx.Cpu.regs

(* Run until the CPU halts (the conventional end of a test program). *)
let run_to_halt ?(limit = 100_000) machine =
  match
    Ssx.Machine.run_until machine ~limit (fun m ->
        (Ssx.Machine.cpu m).Ssx.Cpu.halted)
  with
  | Some _ -> ()
  | None -> Alcotest.fail "program did not halt"

let exec ?seg ?symbols source =
  let machine, _ = machine_with ?seg ?symbols source in
  run_to_halt machine;
  machine

let flag machine f = Ssx.Flags.get (regs machine).Ssx.Registers.psw f
