(* Differential tests for the basic-block compiler.  Compiled execution
   and the raw interpreter, which decodes the bytes now in memory on
   every step, must be observationally identical — same per-tick
   Cpu.event trace and same final machine state — on every seed
   workload, under self-modifying code and under fault injection into
   code regions.  This is the faithfulness argument for the §5.2
   mis-decode hazard: compiling never changes what the machine does,
   only how fast the host simulates it.  The [jit ...] cases step both
   engines tick by tick; the unprefixed seed-workload cases drive
   [Machine.run], and the unprefixed fault cases rewind a faulted
   machine to a snapshot.  The trap cases check [Cpu.on_trap] on three
   runners, self-vectoring #UD storms among them.  The raw interpreter
   is itself checked against the fuzzer's independent oracle on
   self-modifying code. *)

let pp_event ppf = function
  | Ssx.Cpu.Executed i -> Format.fprintf ppf "executed %a" Ssx.Instruction.pp i
  | Ssx.Cpu.Took_interrupt { vector; nmi } ->
    Format.fprintf ppf "interrupt vector=%d nmi=%b" vector nmi
  | Ssx.Cpu.Took_exception v -> Format.fprintf ppf "exception %d" v
  | Ssx.Cpu.Halted_idle -> Format.fprintf ppf "halted"
  | Ssx.Cpu.Did_reset -> Format.fprintf ppf "reset"

(* Run both machines in lock-step, each tick through [tick_fast] /
   [tick_slow], and fail at the first divergent tick, then compare
   complete final snapshots. *)
let assert_lockstep_by name ~ticks tick_fast tick_slow fast slow =
  for tick = 1 to ticks do
    let ef = tick_fast fast in
    let es = tick_slow slow in
    if ef <> es then
      Alcotest.failf "%s: traces diverge at tick %d: fast %a, plain %a" name
        tick pp_event ef pp_event es
  done;
  let sf = Ssx.Snapshot.capture fast and ss = Ssx.Snapshot.capture slow in
  if not (Ssx.Snapshot.equal sf ss) then
    Alcotest.failf "%s: final states differ after identical traces: %a" name
      (Format.pp_print_list Ssx.Snapshot.pp_difference)
      (Ssx.Snapshot.diff sf ss)

let assert_lockstep name ~ticks fast slow =
  assert_lockstep_by name ~ticks Ssx.Machine.tick Ssx.Machine.tick fast slow

let assert_jit_exercised name machine =
  match Ssx.Machine.jit machine with
  | None -> Alcotest.failf "%s: jit machine has no block compiler" name
  | Some jit ->
    Helpers.check_bool
      (name ^ ": blocks were compiled")
      true
      (Ssx.Block_compiler.built jit > 0);
    Helpers.check_bool
      (name ^ ": ticks ran through compiled blocks")
      true
      (Ssx.Block_compiler.block_ticks jit > 0)

let jit_of name machine =
  match Ssx.Machine.jit machine with
  | Some jit -> jit
  | None -> Alcotest.failf "%s: jit machine has no block compiler" name

(* Block compiler differential: same workload through compiled blocks
   vs the raw interpreter. *)
let jit_differential name ~ticks build =
  let name = "jit " ^ name in
  Helpers.case name (fun () ->
      let compiled = build ~jit:true in
      let interpreted = build ~jit:false in
      assert_lockstep name ~ticks compiled interpreted;
      assert_jit_exercised name compiled)

(* --- seed workloads -------------------------------------------------- *)

(* Every builder makes its machine on the process default engine;
   [Helpers.with_jit] then picks the side. *)
let reinstall_restart ~jit =
  Helpers.with_jit ~jit (Ssos.Reinstall.build ()).Ssos.System.machine

let reinstall_continue ~jit =
  Helpers.with_jit ~jit
    (Ssos.Reinstall.build ~variant:Ssos.Reinstall.Continue ())
      .Ssos.System.machine

let reinstall_reset_wired ~jit =
  Helpers.with_jit ~jit
    (Ssos.Reinstall.build ~wiring:Ssos.Reinstall.Reset_wired ())
      .Ssos.System.machine

let reinstall_journal ~jit =
  Helpers.with_jit ~jit
    (Ssos.Reinstall.build ~guest:(Ssos.Guest.journal_kernel ()) ())
      .Ssos.System.machine

let reinstall_preemptive ~jit =
  Helpers.with_jit ~jit
    (Ssos.Reinstall.build ~timer_period:700
       ~guest:(Ssos.Guest.preemptive_kernel ()) ())
      .Ssos.System.machine

let monitor_tasks ~jit =
  Helpers.with_jit ~jit
    (Ssos.Monitor.build ()).Ssos.Monitor.system.Ssos.System.machine

let sched_default ~jit =
  Helpers.with_jit ~jit (Ssos.Sched.build ()).Ssos.Sched.machine

let sched_paper ~jit =
  Helpers.with_jit ~jit
    (Ssos.Sched.build ~cs_check:Ssos.Sched.Paper_jb
       ~ip_mask:Ssos.Sched.Paper_mask ~refresh:false ())
      .Ssos.Sched.machine

let token_os ~jit =
  Helpers.with_jit ~jit (Ssos.Token_os.build ()).Ssos.Sched.machine

(* --- fault injection into code regions ------------------------------- *)

(* The fault cases' schedule: one random fault after every 97th tick
   from tick 500 through [stop], landed between ticks by the test
   itself.  [landed] counts the faults that applied. *)
type stream = {
  target : Ssx_faults.Fault.system;
  rng : Ssx_faults.Rng.t;
  space : Ssx_faults.Fault.space;
  stop : int;
  mutable landed : int;
}

let stream target rng ~space ~stop =
  { target; rng; space = space (); stop; landed = 0 }

let due s tick = tick >= 500 && tick <= s.stop && (tick - 500) mod 97 = 0

let land_if_due s =
  if due s (Ssx.Machine.ticks s.target.Ssx_faults.Fault.machine) then
    if
      Ssx_faults.Fault.apply s.target
        (Ssx_faults.Fault.random s.rng s.space)
    then s.landed <- s.landed + 1

(* One tick, then the fault due after it. *)
let stream_tick s machine =
  let event = Ssx.Machine.tick machine in
  land_if_due s;
  event

(* [ticks] ticks with [Machine.run] between due ticks. *)
let stream_run s ~ticks =
  let machine = s.target.Ssx_faults.Fault.machine in
  let stop_at = Ssx.Machine.ticks machine + ticks in
  while Ssx.Machine.ticks machine < stop_at do
    let now = Ssx.Machine.ticks machine in
    let next =
      if now < 500 then 500 else now + 97 - ((now - 500) mod 97)
    in
    Ssx.Machine.run machine ~ticks:(min next stop_at - now);
    land_if_due s
  done

(* Same seed on both sides: as long as the traces stay identical, both
   streams draw the same faults at the same ticks, so any divergence
   caused by a stale compiled block of a corrupted code byte would
   surface as a trace mismatch. *)
let jit_faulted name ~ticks ~seed ~space build =
  let name = "jit " ^ name in
  Helpers.case name (fun () ->
      let with_stream ~jit =
        let machine, fault_system = build ~jit in
        let rng = Ssx_faults.Rng.create seed in
        (machine, stream fault_system rng ~space ~stop:ticks)
      in
      let fast_machine, s_fast = with_stream ~jit:true in
      let slow_machine, s_slow = with_stream ~jit:false in
      assert_lockstep_by name ~ticks (stream_tick s_fast) (stream_tick s_slow)
        fast_machine slow_machine;
      assert_jit_exercised name fast_machine;
      Helpers.check_int
        (name ^ ": both streams applied the same number of faults")
        s_fast.landed s_slow.landed;
      Helpers.check_bool (name ^ ": faults were actually injected") true
        (s_fast.landed > 0))

(* The snapshot-reset path under the same fault stream.  The jit
   machine runs half the budget under the stream and is captured
   (once the next instruction sits in RAM, when the guest runs at
   all).  It then takes a detour of its own: a bit flip lands in the
   instruction it was about to execute, and it runs on for a few
   ticks, too few for a reset or a code refresh to rewrite the page,
   compiling a block from the corrupted bytes.  Then it is restored to
   the capture.  The table survives the restore, and that block sits at
   the very ip the replay starts from; only the fresh generation the
   restore gives its page sends it to a byte comparison that condemns
   it.  From the capture on, the machine must replay the raw
   interpreter's run tick for tick, drawing the same faults. *)
let faulted ?(guest_runs = true) name ~ticks ~seed ~space build =
  Helpers.case name (fun () ->
      let next_instruction m =
        let regs = Helpers.regs m in
        ((regs.Ssx.Registers.cs lsl 4) + regs.Ssx.Registers.ip) land 0xFFFFF
      in
      let reference, reference_faults = build ~jit:false in
      let s_reference =
        stream reference_faults (Ssx_faults.Rng.create seed) ~space ~stop:ticks
      in
      let rewound, rewound_faults = build ~jit:true in
      let rng = Ssx_faults.Rng.create seed in
      let s_first = stream rewound_faults rng ~space ~stop:ticks in
      stream_run s_reference ~ticks:(ticks / 2);
      stream_run s_first ~ticks:(ticks / 2);
      while
        guest_runs
        && Ssx.Memory.is_protected (Ssx.Machine.memory rewound)
             (next_instruction rewound)
        && Ssx.Machine.ticks rewound < ticks
      do
        ignore (stream_tick s_reference reference);
        ignore (stream_tick s_first rewound)
      done;
      let captured_at = Ssx.Machine.ticks rewound in
      let saved = Ssx.Snapshot.capture rewound in
      let saved_rng = Ssx_faults.Rng.copy rng in
      Helpers.check_string (name ^ ": same state at the capture")
        (Ssx.Snapshot.digest (Ssx.Snapshot.capture reference))
        (Ssx.Snapshot.digest saved);
      let jit = jit_of name rewound in
      let built = Ssx.Block_compiler.built jit in
      if guest_runs then
        Helpers.check_bool
          (name ^ ": the detour corrupted the next instruction")
          true
          (Ssx_faults.Fault.apply rewound_faults
             (Ssx_faults.Fault.Ram_bit_flip
                { addr = next_instruction rewound; bit = 0 }));
      stream_run s_first ~ticks:5;
      if guest_runs then
        Helpers.check_bool (name ^ ": the detour compiled the corrupted code")
          true
          (Ssx.Block_compiler.built jit > built);
      Ssx.Snapshot.restore saved rewound;
      let before_replay = s_reference.landed in
      let s_replay = stream rewound_faults saved_rng ~space ~stop:ticks in
      assert_lockstep_by name ~ticks:(ticks - captured_at)
        (stream_tick s_replay) (stream_tick s_reference) rewound reference;
      assert_jit_exercised name rewound;
      Helpers.check_int
        (name ^ ": the replay drew the reference's faults")
        (s_reference.landed - before_replay)
        s_replay.landed;
      Helpers.check_bool (name ^ ": faults were injected after the capture")
        true
        (s_replay.landed > 0))

let reinstall_fault_target ~jit =
  let system = Ssos.Reinstall.build () in
  ( Helpers.with_jit ~jit system.Ssos.System.machine,
    Ssos.System.fault_system system )

let sched_fault_target ~jit =
  let sched = Ssos.Sched.build () in
  ( Helpers.with_jit ~jit sched.Ssos.Sched.machine,
    Ssos.Sched.fault_system sched )

(* Corruption aimed exclusively at the guest image (code included): the
   §5.2 hazard in its purest form — code bytes change under the
   interpreter's feet and must be re-decoded. *)
let code_only_space () = Ssos.System.ram_only_fault_space

let full_space () = Ssos.System.default_fault_space

(* --- self-modifying code --------------------------------------------- *)

(* A guest that patches the immediate operand of its own next
   instruction on every loop iteration.  The first iteration compiles
   the surrounding block; each later patch must condemn it, or dx ends
   up holding a stale immediate.  This is the store-into-the-*current*-
   block case: the patching [mov] and its target live in the same
   straight-line run. *)
let self_modifying_immediate_source =
  "start:\n\
  \    mov ax, cs\n\
  \    mov ds, ax\n\
  \    mov cx, 4\n\
  \    mov bx, 0x1000\n\
   loop_top:\n\
  \    add bx, 0x1111\n\
  \    mov [target+2], bx\n\
   target:\n\
  \    mov dx, 0x9999\n\
  \    loop loop_top\n\
  \    hlt\n"

let self_modifying_immediate ~jit =
  fst (Helpers.machine_with ~jit self_modifying_immediate_source)

(* A guest that rewrites the opcode bytes of its (already executed, so
   already compiled) next instruction: two nops become [inc dx]. *)
let self_modifying_opcode_source =
  "start:\n\
  \    mov ax, cs\n\
  \    mov ds, ax\n\
  \    mov dx, 0\n\
  \    mov cx, 2\n\
   loop_top:\n\
  \    cmp cx, 1\n\
  \    jne skip_patch\n\
  \    mov ax, PATCH_WORD\n\
  \    mov [target], ax\n\
   skip_patch:\n\
   target:\n\
  \    nop\n\
  \    nop\n\
  \    loop loop_top\n\
  \    hlt\n"

let inc_dx_patch () =
  match Ssx.Codec.encode (Ssx.Instruction.Inc_r16 Ssx.Registers.DX) with
  | [ opcode; operand ] -> [ ("PATCH_WORD", opcode lor (operand lsl 8)) ]
  | _ -> Alcotest.fail "inc dx is expected to encode in two bytes"

let self_modifying_opcode ~jit =
  fst
    (Helpers.machine_with ~symbols:(inc_dx_patch ()) ~jit
       self_modifying_opcode_source)

(* The cross-block variant: the patch site and its target sit in
   different basic blocks (a [jmp] separates them), and the target
   block has already executed — so it is compiled — when the store
   lands.  The write must condemn the *other* block, not the one
   currently running. *)
let cross_block_patch ~jit =
  let patch_word =
    match Ssx.Codec.encode (Ssx.Instruction.Inc_r16 Ssx.Registers.DX) with
    | [ opcode; operand ] -> opcode lor (operand lsl 8)
    | _ -> Alcotest.fail "inc dx is expected to encode in two bytes"
  in
  let source =
    "start:\n\
    \    mov ax, cs\n\
    \    mov ds, ax\n\
    \    mov dx, 0\n\
    \    mov cx, 3\n\
     loop_top:\n\
    \    jmp target_block\n\
     target_block:\n\
     target:\n\
    \    nop\n\
    \    nop\n\
    \    jmp patcher\n\
     patcher:\n\
    \    cmp cx, 2\n\
    \    jne skip_patch\n\
    \    mov ax, PATCH_WORD\n\
    \    mov [target], ax\n\
     skip_patch:\n\
    \    loop loop_top\n\
    \    hlt\n"
  in
  let machine, _ =
    Helpers.machine_with ~symbols:[ ("PATCH_WORD", patch_word) ] ~jit source
  in
  machine

(* The raw interpreter is the reference every [jit ...] case is held
   to, so it is held in turn to the independent oracle.  Each
   self-modifying guest runs as a fuzzer trial: [Machine] with the
   block compiler off and [Ref_interp], which shares no decoder with
   [lib/machine], must agree on every event, on every register after
   every tick and on all of RAM at the end. *)
let oracle_trial ?(symbols = []) ~ticks source =
  let image = Ssx_asm.Assemble.assemble ~origin:0 ~symbols source in
  let program =
    { Ssx_fuzz.Gen.code = image.Ssx_asm.Assemble.bytes; schedule = [];
      steps = ticks }
  in
  (match Ssx_fuzz.Fuzz_loop.run_program ~jit:false program with
  | None -> ()
  | Some (tick, detail) ->
    Alcotest.failf "raw interpreter and oracle diverge at tick %d: %s" tick
      detail);
  let machine =
    Helpers.with_jit ~jit:false (Ssx_fuzz.Fuzz_loop.prepare_machine program)
  in
  Ssx.Machine.run machine ~ticks;
  Helpers.regs machine

let test_self_modifying_immediate () =
  let regs = oracle_trial ~ticks:60 self_modifying_immediate_source in
  Helpers.check_int "dx reflects the last patched immediate" 0x5444
    regs.Ssx.Registers.dx

let test_self_modifying_opcode () =
  let regs =
    oracle_trial ~symbols:(inc_dx_patch ()) ~ticks:40
      self_modifying_opcode_source
  in
  Helpers.check_int "the patched-in inc dx executed" 1 regs.Ssx.Registers.dx

let test_jit_self_modifying_immediate () =
  let compiled = self_modifying_immediate ~jit:true in
  let interpreted = self_modifying_immediate ~jit:false in
  assert_lockstep "jit self-modifying immediate" ~ticks:60 compiled interpreted;
  assert_jit_exercised "jit self-modifying immediate" compiled;
  Helpers.check_int "dx reflects the last patched immediate" 0x5444
    (Helpers.regs compiled).Ssx.Registers.dx

let test_jit_self_modifying_opcode () =
  let compiled = self_modifying_opcode ~jit:true in
  let interpreted = self_modifying_opcode ~jit:false in
  assert_lockstep "jit self-modifying opcode" ~ticks:40 compiled interpreted;
  assert_jit_exercised "jit self-modifying opcode" compiled;
  Helpers.check_int "the patched-in inc dx executed" 1
    (Helpers.regs compiled).Ssx.Registers.dx

(* A jmp-heavy guest whose hot path is a cycle of tiny blocks linked by
   unconditional [jmp]s, so every jmp crossing re-enters compiled code
   through the block table.  Mid-run the guest patches the two nops at
   [target] — the *interior of a block entered only through a jmp* —
   into [inc dx]: the stale block must fail revalidation and force a
   retranslation, not execute stale code. *)
let jmp_cycle_guest ~jit =
  let patch_word =
    match Ssx.Codec.encode (Ssx.Instruction.Inc_r16 Ssx.Registers.DX) with
    | [ opcode; operand ] -> opcode lor (operand lsl 8)
    | _ -> Alcotest.fail "inc dx is expected to encode in two bytes"
  in
  let source =
    "start:\n\
    \    mov ax, cs\n\
    \    mov ds, ax\n\
    \    mov dx, 0\n\
    \    mov cx, 60\n\
     hub:\n\
    \    inc si\n\
    \    jmp spoke_a\n\
     spoke_a:\n\
    \    inc bx\n\
    \    jmp spoke_b\n\
     spoke_b:\n\
    \    cmp cx, 30\n\
    \    jne skip_patch\n\
    \    mov ax, PATCH_WORD\n\
    \    mov [target], ax\n\
     skip_patch:\n\
    \    jmp spoke_c\n\
     spoke_c:\n\
     target:\n\
    \    nop\n\
    \    nop\n\
    \    jmp tail\n\
     tail:\n\
    \    loop hub\n\
    \    hlt\n"
  in
  let machine, _ =
    Helpers.machine_with ~symbols:[ ("PATCH_WORD", patch_word) ] ~jit source
  in
  machine

let test_jit_jmp_cycle_patch () =
  let compiled = jmp_cycle_guest ~jit:true in
  let interpreted = jmp_cycle_guest ~jit:false in
  assert_lockstep "jit jmp cycle" ~ticks:1_000 compiled interpreted;
  assert_jit_exercised "jit jmp cycle" compiled;
  (* The patch lands with 30 iterations left, so the patched-in
     [inc dx] runs exactly 30 times. *)
  Helpers.check_int "the patched jmp target block took effect" 30
    (Helpers.regs compiled).Ssx.Registers.dx;
  match Ssx.Machine.jit compiled with
  | None -> Alcotest.fail "jit machine has no block compiler"
  | Some jit ->
    Helpers.check_bool "the patched jmp target was re-translated" true
      (Ssx.Block_compiler.retranslations jit > 0)

let test_jit_cross_block_patch () =
  let compiled = cross_block_patch ~jit:true in
  let interpreted = cross_block_patch ~jit:false in
  assert_lockstep "jit cross-block patch" ~ticks:80 compiled interpreted;
  assert_jit_exercised "jit cross-block patch" compiled;
  (* The target block runs three times and the patch (one two-byte
     [inc dx] over both nops) lands after its second pass, so only the
     final pass increments dx. *)
  Helpers.check_int "the cross-block patch took effect" 1
    (Helpers.regs compiled).Ssx.Registers.dx;
  (match Ssx.Machine.jit compiled with
  | Some jit ->
    Helpers.check_bool "the condemned block was re-translated" true
      (Ssx.Block_compiler.retranslations jit > 0)
  | None -> Alcotest.fail "jit machine has no block compiler")

(* --- NMI in the middle of a block ------------------------------------ *)

(* A long straight-line run compiles into one block; NMIs raised at
   ticks that land mid-block must be accepted at exactly the same
   instruction boundary as in the interpreter, the handler must run,
   and the block must resume correctly from its interior. *)
let test_jit_nmi_mid_block () =
  let source =
    "start:\n\
    \    mov ax, cs\n\
    \    mov ds, ax\n\
    \    mov bx, 0\n\
     loop_top:\n\
    \    inc bx\n\
    \    inc bx\n\
    \    inc bx\n\
    \    inc bx\n\
    \    inc bx\n\
    \    inc bx\n\
    \    inc bx\n\
    \    inc bx\n\
    \    jmp loop_top\n\
     handler:\n\
    \    inc dx\n\
    \    iret\n"
  in
  let build ~jit =
    let machine, image = Helpers.machine_with ~jit source in
    (* The default CPU config dispatches NMIs through a hardwired IDT at
       0xF0000; point vector 2 at the handler. *)
    let mem = Ssx.Machine.memory machine in
    let handler_ip =
      List.assoc "handler" image.Ssx_asm.Assemble.symbols
    in
    Ssx.Memory.write_word mem (0xF0000 + (4 * 2)) handler_ip;
    Ssx.Memory.write_word mem (0xF0000 + (4 * 2) + 2) 0x1000;
    machine
  in
  let compiled = build ~jit:true in
  let interpreted = build ~jit:false in
  for tick = 1 to 400 do
    (* A prime stride so the NMI lands at every offset within the
       8-instruction straight-line body over the course of the run. *)
    if tick mod 13 = 0 then begin
      Ssx.Cpu.raise_nmi (Ssx.Machine.cpu compiled);
      Ssx.Cpu.raise_nmi (Ssx.Machine.cpu interpreted)
    end;
    let ec = Ssx.Machine.tick compiled in
    let ei = Ssx.Machine.tick interpreted in
    if ec <> ei then
      Alcotest.failf "jit nmi mid-block: diverged at tick %d: jit %a, plain %a"
        tick pp_event ec pp_event ei
  done;
  let sc = Ssx.Snapshot.capture compiled in
  let si = Ssx.Snapshot.capture interpreted in
  Helpers.check_string "same final digest" (Ssx.Snapshot.digest si)
    (Ssx.Snapshot.digest sc);
  assert_jit_exercised "jit nmi mid-block" compiled;
  Helpers.check_bool "the handler actually ran" true
    ((Helpers.regs compiled).Ssx.Registers.dx > 0)

(* --- the quiet runner in odd-sized chunks ---------------------------- *)

(* The per-tick lockstep tests above drive [Machine.tick], which steps
   one op at a time; quiescence windows, closed-form self-loops and
   [rep] bursts only run inside the quiet runner used by
   [Machine.run].  These tests drive [Machine.run] in odd-sized chunks
   so the quiet runner sees budgets that end mid-block, and compare
   full snapshot digests against the plain interpreter after every
   chunk. *)

let odd_chunks = [ 7; 1; 13; 2; 1; 97; 3; 251; 499; 1021; 4999 ]

(* A guest of short straight-line blocks: back-to-back register loads,
   a dec/jnz counted inner loop, and a cmp/je loop exit. *)
let plain_blocks_guest ~jit =
  let source =
    "start:\n\
    \    mov ax, cs\n\
    \    mov ds, ax\n\
    \    mov cx, 400\n\
     outer:\n\
    \    mov ax, 3\n\
    \    mov bx, 5\n\
    \    add ax, bx\n\
    \    mov dx, 7\n\
     inner:\n\
    \    dec dx\n\
    \    jnz inner\n\
    \    add si, ax\n\
    \    cmp cx, 1\n\
    \    je finish\n\
    \    dec cx\n\
    \    jmp outer\n\
     finish:\n\
    \    hlt\n"
  in
  let machine, _ = Helpers.machine_with ~jit source in
  machine

let compiled_blocks = ("compiled blocks", Ssx.Block_compiler.block_ticks)
let loops = ("self-loops", Ssx.Block_compiler.loop_ticks)
let bursts = ("rep bursts", Ssx.Block_compiler.burst_ticks)

(* A builder for the chunked differential: the machine, plus a host
   action run after every chunk (numbered from 0) that may deliver
   words to the machine's devices and returns a summary of the device
   state the digest does not cover — transmitted words, counters —
   which must agree between the two engines. *)
let no_host machine = (machine, fun _ -> "")

(* Run both engines through [Machine.run] in odd-sized chunks, so the
   quiet runner sees budgets that end mid-block, mid-window and
   mid-burst, and compare full snapshot digests and host summaries
   after every chunk.  [fired] names the fast paths that must have run
   on the compiled machine: a differential over a path that never
   fired proves nothing.  Returns the compiled machine and its host
   action. *)
let chunked_run_differential ?(chunks = odd_chunks) ~fired name build =
  let compiled, host_c = build ~jit:true in
  let interpreted, host_i = build ~jit:false in
  List.iteri
    (fun i ticks ->
      Ssx.Machine.run compiled ~ticks;
      Ssx.Machine.run interpreted ~ticks;
      let dc = Ssx.Snapshot.digest (Ssx.Snapshot.capture compiled) in
      let di = Ssx.Snapshot.digest (Ssx.Snapshot.capture interpreted) in
      if dc <> di then
        Alcotest.failf "%s: digests diverge after chunk %d (%d ticks)" name i
          ticks;
      let sc = host_c i and si = host_i i in
      if sc <> si then
        Alcotest.failf "%s: device state diverges after chunk %d: %s vs %s"
          name i sc si)
    chunks;
  let jit = jit_of name compiled in
  List.iter
    (fun (what, count) ->
      Helpers.check_bool (Printf.sprintf "%s: %s fired" name what) true
        (count jit > 0))
    fired;
  (compiled, host_c)

let test_plain_blocks_quiet () =
  ignore
    (chunked_run_differential ~fired:[ compiled_blocks ]
       "plain blocks, no devices"
       (fun ~jit -> no_host (plain_blocks_guest ~jit)))

(* The reinstall system's watchdog bounds every window; its NMIs land
   mid-block, mid-window and mid-countdown of the heartbeat kernel's
   delay loop, exercising the per-tick stopping tick. *)
let test_self_loops_device_path () =
  ignore
    (chunked_run_differential ~fired:[ compiled_blocks; loops ]
       "self-loops, watchdog device"
       (fun ~jit -> no_host (reinstall_restart ~jit)))

let long_chunks = odd_chunks @ odd_chunks @ odd_chunks

(* The seed workloads through the same production path: [Machine.run]
   with the block compiler, in odd-sized chunks adding up to [ticks],
   against the raw interpreter.  The [jit ...] cases above step both
   engines through [Machine.tick], which never opens a quiescence
   window; here each system's own devices (watchdog, timer) bound the
   windows. *)
let differential name ~ticks build =
  let rec chunks left = function
    | [] -> chunks left odd_chunks
    | c :: rest -> if left <= c then [ left ] else c :: chunks (left - c) rest
  in
  Helpers.case name (fun () ->
      ignore
        (chunked_run_differential ~chunks:(chunks ticks odd_chunks)
           ~fired:[ compiled_blocks ] name
           (fun ~jit -> no_host (build ~jit))))

let nic_summary nic =
  let s = Ssos_net.Nic.stats nic in
  Printf.sprintf "tx=[%s] rx_read=%d pending=%d"
    (String.concat ";"
       (List.map string_of_int (Ssos_net.Nic.drain_tx nic)))
    s.Ssos_net.Nic.rx_read (Ssos_net.Nic.pending_rx nic)

(* A serve replica on its own: the §5.2 scheduler on a watchdog NMI
   (whose code refresh is a [rep movsb]), a client NIC and a ring NIC,
   with requests and ring frames delivered between chunks. *)
let serve_replica ~jit =
  let service =
    Ssos_rsm.Service.build ~n:2 ~watchdog_period:3_000 ~seed:41L ()
  in
  let machine =
    Helpers.with_jit ~jit
      (Ssos_net.Cluster.machine service.Ssos_rsm.Service.cluster 0)
  in
  let client = service.Ssos_rsm.Service.clients.(0) in
  let ring = Ssos_net.Cluster.nic service.Ssos_rsm.Service.cluster 0 in
  let host i =
    let key = i mod Ssos_rsm.Wire.keys in
    ignore
      (Ssos_net.Nic.deliver client
         (Ssos_rsm.Wire.request ~put:(i mod 3 <> 0) ~rid:(1 + (i mod 15)) ~key
            ~value:i));
    ignore (Ssos_net.Nic.deliver ring (Ssos_rsm.Wire.token (i mod 8)));
    ignore
      (Ssos_net.Nic.deliver ring
         (Ssos_rsm.Wire.sync ~tag:(i mod 4) ~key ~value:(i * 7)));
    nic_summary client ^ " | " ^ nic_summary ring
  in
  (machine, host)

let test_window_serve_replica () =
  let machine, _ =
    chunked_run_differential ~chunks:long_chunks
      ~fired:[ compiled_blocks; bursts ]
      "serve replica, watchdog + two NICs" serve_replica
  in
  Helpers.check_bool "the replica polled its NICs" true
    (Ssx.Memory.write_count (Ssx.Machine.memory machine) > 0)

(* The ring node, whose guest has the shortest quiet windows of any
   workload: two identical 4-node rings over latency-2 lossy links,
   every node of one on the plain interpreter, corrupted alike and
   stepped in odd-sized chunks of cluster steps.  Counters, views and
   the cluster digest must agree after every chunk. *)
let test_window_ring_nodes () =
  let ring ~jit =
    let ring =
      Ssos_net.Net_ring.build ~n:4 ~latency:2
        ~faults:(fun ~src:_ ~dst:_ ->
          Ssos_net.Link.lossy ~drop:0.1 ~max_delay:2 ())
        ~seed:53L ()
    in
    Array.iter
      (fun sched -> Ssx.Machine.set_jit sched.Ssos.Sched.machine jit)
      ring.Ssos_net.Net_ring.systems;
    Ssos_net.Net_ring.corrupt (Ssx_faults.Rng.create 54L) ring;
    ring
  in
  let compiled = ring ~jit:true and interpreted = ring ~jit:false in
  let show a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  List.iteri
    (fun i steps ->
      let agree what read =
        let c = read compiled and r = read interpreted in
        if c <> r then
          Alcotest.failf
            "ring nodes: %s diverge after chunk %d (%d steps): %s vs %s" what
            i steps c r
      in
      Ssos_net.Cluster.run_sharded compiled.Ssos_net.Net_ring.cluster ~steps;
      Ssos_net.Cluster.run_sharded interpreted.Ssos_net.Net_ring.cluster ~steps;
      agree "states" (fun r -> show (Ssos_net.Net_ring.states r));
      agree "views" (fun r -> show (Ssos_net.Net_ring.views r));
      agree "digests" (fun r ->
          Ssos_net.Cluster.digest r.Ssos_net.Net_ring.cluster))
    odd_chunks;
  let block_ticks =
    Array.fold_left
      (fun sum sched ->
        sum
        + Ssx.Block_compiler.block_ticks
            (jit_of "ring nodes" sched.Ssos.Sched.machine))
      0 compiled.Ssos_net.Net_ring.systems
  in
  Helpers.check_bool "ring nodes: compiled blocks fired" true (block_ticks > 0)

(* An interrupting NIC next to the watchdog: while its RX queue is empty
   it never bounds a window; a delivery between chunks raises the
   maskable interrupt on the next tick, and the handler drains the
   queue through the RX port (port I/O inside the handler ends a
   window). *)
let irq_nic_guest ~jit =
  let source =
    "start:\n\
    \    mov ax, cs\n\
    \    mov ds, ax\n\
    \    sti\n\
     main:\n\
    \    mov ax, 3\n\
    \    mov bx, 5\n\
    \    add ax, bx\n\
    \    mov cx, 20\n\
     spin:\n\
    \    loop spin\n\
    \    inc si\n\
    \    jmp main\n\
     rx_handler:\n\
    \    push ax\n\
    \    push dx\n\
    \    mov dx, 0x31\n\
    \    in ax, dx\n\
    \    add di, ax\n\
    \    pop dx\n\
    \    pop ax\n\
    \    iret\n\
     nmi_handler:\n\
    \    inc bp\n\
    \    iret\n"
  in
  let machine, image = Helpers.machine_with ~jit source in
  let mem = Ssx.Machine.memory machine in
  let sym name = List.assoc name image.Ssx_asm.Assemble.symbols in
  (* Vector 0x21 through the IDT at 0; the NMI through the hardwired
     table at 0xF0000. *)
  Ssx.Memory.write_word mem (4 * 0x21) (sym "rx_handler");
  Ssx.Memory.write_word mem ((4 * 0x21) + 2) 0x1000;
  Ssx.Memory.write_word mem (0xF0000 + (4 * 2)) (sym "nmi_handler");
  Ssx.Memory.write_word mem (0xF0000 + (4 * 2) + 2) 0x1000;
  let wd =
    Ssx_devices.Watchdog.create ~period:700 ~target:Ssx_devices.Watchdog.Nmi_pin
  in
  Ssx.Machine.add_device machine (Ssx_devices.Watchdog.device wd);
  let nic = Ssos_net.Nic.create ~rx_irq:0x21 () in
  Ssos_net.Nic.attach nic machine;
  let host i =
    if i mod 2 = 0 then ignore (Ssos_net.Nic.deliver nic (i + 1));
    Printf.sprintf "%s wd=%d fired=%d" (nic_summary nic)
      (Ssx_devices.Watchdog.counter wd)
      (Ssx_devices.Watchdog.fired_count wd)
  in
  (machine, host)

let test_window_irq_nic () =
  let machine, _ =
    chunked_run_differential ~chunks:long_chunks
      ~fired:[ compiled_blocks; loops ]
      "irq-armed NIC + watchdog" irq_nic_guest
  in
  let regs = Helpers.regs machine in
  Helpers.check_bool "the RX handler drained words" true
    (regs.Ssx.Registers.di > 0);
  Helpers.check_bool "the watchdog NMI handler ran" true
    (regs.Ssx.Registers.bp > 0)

(* The petted-watchdog baseline: the guest's [out] to the pet port
   lands mid-window, and the pet must see the watchdog counter exactly
   as the per-tick machine would. *)
let petted ~jit =
  let system = Ssos.Baselines.petted_watchdog ~watchdog_period:5_000 () in
  let machine = system.Ssos.System.machine in
  Ssx.Machine.set_jit machine jit;
  let wd = Option.get system.Ssos.System.watchdog in
  let host _ =
    Printf.sprintf "fired=%d wd=%d" (Ssx_devices.Watchdog.fired_count wd)
      (Ssx_devices.Watchdog.counter wd)
  in
  (machine, host)

let test_window_petted_watchdog () =
  let _, host =
    chunked_run_differential ~chunks:long_chunks
      ~fired:[ compiled_blocks; loops ]
      "petted watchdog" petted
  in
  (* Four periods passed without a bite: the pets landed. *)
  Helpers.check_bool "the guest's pets kept the watchdog quiet" true
    (String.starts_with ~prefix:"fired=0 " (host 0))

(* [rep] bursts.  Each pass first copies 8 bytes of code over [tail],
   right after the [rep movsb], alternating two sources so every pass
   really changes the bytes the next instruction decodes from.  Then a
   [rep movsb] copies over its own encoding: its second iteration turns
   it into [rep stosb], so the burst must stop there and the remaining
   iterations store AL (nops over nop padding) — a burst that kept
   copying would paste [inc dx] into the padding.  Then a backwards
   copy (DF = 1) into a data area, a [rep stosb] into a ROM-protected
   page (every byte refused), and a [rep lodsw] sweep. *)
let rep_guest ~jit =
  let word instr =
    match Ssx.Codec.encode instr with
    | [ b0; b1 ] -> b0 lor (b1 lsl 8)
    | [ b0 ] -> b0 lor (b0 lsl 8)
    | _ -> Alcotest.fail "expected a one- or two-byte encoding"
  in
  let symbols =
    Ssx.Instruction.
      [ ("MOVSB_WORD", word (Rep (Movs Byte)));
        ("STOSB_WORD", word (Rep (Stos Byte)));
        ("NOP_WORD", word Nop) ]
  in
  let source =
    "start:\n\
    \    mov ax, cs\n\
    \    mov ds, ax\n\
    \    mov es, ax\n\
     again:\n\
    \    mov si, src_a\n\
    \    test bx, 1\n\
    \    je use_a\n\
    \    mov si, src_b\n\
     use_a:\n\
    \    inc bx\n\
    \    mov di, tail\n\
    \    mov cx, 8\n\
    \    rep movsb\n\
     tail:\n\
    \    nop\n\
    \    nop\n\
    \    nop\n\
    \    nop\n\
    \    nop\n\
    \    nop\n\
    \    nop\n\
    \    nop\n\
    \    mov si, new_rep\n\
    \    mov di, patch\n\
    \    mov cx, 6\n\
    \    mov ax, NOP_WORD\n\
     patch:\n\
    \    rep movsb\n\
    \    nop\n\
    \    nop\n\
    \    nop\n\
    \    nop\n\
    \    mov ax, MOVSB_WORD\n\
    \    mov [patch], ax\n\
    \    std\n\
    \    mov si, 0x4ff\n\
    \    mov di, 0x5ff\n\
    \    mov cx, 200\n\
    \    rep movsb\n\
    \    cld\n\
    \    mov ax, bx\n\
    \    mov di, 0x6000\n\
    \    mov cx, 300\n\
    \    rep stosb\n\
    \    mov si, 0x500\n\
    \    mov cx, 100\n\
    \    rep lodsw\n\
    \    jmp again\n\
     src_a:\n\
    \    inc dx\n\
    \    inc dx\n\
    \    inc dx\n\
    \    inc dx\n\
     src_b:\n\
    \    inc bp\n\
    \    inc bp\n\
    \    inc bp\n\
    \    inc bp\n\
     new_rep:\n\
    \    dw STOSB_WORD\n\
    \    inc dx\n\
    \    inc dx\n"
  in
  let machine, _ = Helpers.machine_with ~symbols ~jit source in
  let mem = Ssx.Machine.memory machine in
  Ssx.Memory.protect mem { Ssx.Memory.base = 0x16000; size = 0x100 };
  (machine, fun _ -> Printf.sprintf "refused=%d" (Ssx.Memory.rom_refusal_count mem))

let test_rep_bursts () =
  let machine, _ =
    chunked_run_differential ~fired:[ bursts ] "rep bursts" rep_guest
  in
  let regs = Helpers.regs machine in
  Helpers.check_bool "both patched sources ran" true
    (regs.Ssx.Registers.dx > 0 && regs.Ssx.Registers.bp > 0);
  Helpers.check_bool "ROM refused the stores" true
    (Ssx.Memory.rom_refusal_count (Ssx.Machine.memory machine) > 0)

(* Generated programs (the fuzzer's mix of valid, corrupted and
   self-modifying code) through the quiet runner: each runs on a
   machine with a short-period watchdog on the NMI pin, whose handler
   in the fuzzer's vector image is a bare [iret], in odd-sized
   [Machine.run] chunks, and must match the plain interpreter's digest
   after every chunk. *)
let fuzz_window_machine ~jit p =
  let m = Helpers.with_jit ~jit (Ssx_fuzz.Fuzz_loop.prepare_machine p) in
  let wd =
    Ssx_devices.Watchdog.create ~period:37 ~target:Ssx_devices.Watchdog.Nmi_pin
  in
  Ssx.Machine.add_device m (Ssx_devices.Watchdog.device wd);
  m

let test_window_generated_programs () =
  let rng = Ssx_faults.Rng.create 0x5eedL in
  let chunks = [ 1; 7; 3; 50; 2; 129; 11; 400 ] in
  let block_total = ref 0 and burst_total = ref 0 in
  for prog = 1 to 200 do
    let p = Ssx_fuzz.Gen.generate rng in
    let compiled = fuzz_window_machine ~jit:true p in
    let interpreted = fuzz_window_machine ~jit:false p in
    List.iteri
      (fun i ticks ->
        Ssx.Machine.run compiled ~ticks;
        Ssx.Machine.run interpreted ~ticks;
        let sc = Ssx.Snapshot.capture compiled
        and si = Ssx.Snapshot.capture interpreted in
        if not (Ssx.Snapshot.equal sc si) then
          Alcotest.failf "program %d diverges after chunk %d: %a" prog i
            (Format.pp_print_list Ssx.Snapshot.pp_difference)
            (Ssx.Snapshot.diff sc si))
      chunks;
    let jit = jit_of "generated program" compiled in
    block_total := !block_total + Ssx.Block_compiler.block_ticks jit;
    burst_total := !burst_total + Ssx.Block_compiler.burst_ticks jit
  done;
  Helpers.check_bool "compiled blocks fired" true (!block_total > 0);
  Helpers.check_bool "rep bursts fired" true (!burst_total > 0)

(* --- code rewrites under the block table ------------------------------ *)

(* Every way memory can change must reach the block table.  A jit tick
   compiles [mov ax, imm] at 0x5000; each write source then rewrites
   the immediate, and the next jit tick must compile and execute the
   new bytes.  The snapshot case captures the new bytes, puts the old
   ones back and runs them once, so the block compiled from them is
   fresh when the restore copies the page: only the fresh generation
   the restore gives that page keeps the stale block from running.
   With [~jit:false] the same rewrites must reach the raw interpreter,
   the reference for every differential here: it keeps nothing decoded
   between ticks. *)
let write_sources ~jit () =
  let machine = Helpers.with_jit ~jit (Ssx.Machine.create ()) in
  let mem = Ssx.Machine.memory machine in
  let compiler = if jit then Some (jit_of "write sources" machine) else None in
  let regs = Helpers.regs machine in
  regs.Ssx.Registers.cs <- 0x500;
  let encode v =
    Ssx.Codec.encode (Ssx.Instruction.Mov_r16_imm (Ssx.Registers.AX, v))
    |> List.map Char.chr |> List.to_seq |> String.of_seq
  in
  let run_code what v =
    let counts =
      Option.map
        (fun jit ->
          ( jit,
            Ssx.Block_compiler.built jit,
            Ssx.Block_compiler.block_ticks jit ))
        compiler
    in
    regs.Ssx.Registers.ip <- 0;
    ignore (Ssx.Machine.tick machine);
    Helpers.check_int (what ^ ": executed the bytes now in memory") v
      regs.Ssx.Registers.ax;
    Option.iter
      (fun (jit, built, block_ticks) ->
        Helpers.check_int (what ^ ": compiled a fresh block") (built + 1)
          (Ssx.Block_compiler.built jit);
        Helpers.check_int (what ^ ": ran it as compiled code")
          (block_ticks + 1)
          (Ssx.Block_compiler.block_ticks jit))
      counts
  in
  let per_byte write code =
    String.iteri (fun i c -> write mem (0x5000 + i) (Char.code c)) code
  in
  let sources =
    [ ("write_byte", per_byte Ssx.Memory.write_byte);
      ("force_write_byte", per_byte Ssx.Memory.force_write_byte);
      ("load_image", fun code -> Ssx.Memory.load_image mem ~base:0x5000 code);
      ( "blit",
        fun code ->
          Ssx.Memory.load_image mem ~base:0x6000 code;
          Ssx.Memory.blit mem ~src:0x6000 ~dst:0x5000 ~len:(String.length code)
      );
      ( "snapshot restore",
        fun code ->
          let len = String.length code in
          let stale = Ssx.Memory.dump mem ~base:0x5000 ~len in
          Ssx.Memory.load_image mem ~base:0x5000 code;
          let saved = Ssx.Snapshot.capture machine in
          Ssx.Memory.load_image mem ~base:0x5000 stale;
          regs.Ssx.Registers.ip <- 0;
          ignore (Ssx.Machine.tick machine);
          Ssx.Snapshot.restore saved machine ) ]
  in
  Ssx.Memory.load_image mem ~base:0x5000 (encode 0x1000);
  run_code "first compile" 0x1000;
  List.iteri
    (fun i (what, rewrite) ->
      let v = 0x1001 + i in
      rewrite (encode v);
      run_code what v)
    sources

let test_jit_toggle_mid_run () =
  (* Toggling the block compiler mid-run (fresh, empty block table on
     re-enable) is invisible. *)
  let reference = self_modifying_immediate ~jit:false in
  let toggled = self_modifying_immediate ~jit:true in
  for tick = 1 to 60 do
    if tick = 20 then Ssx.Machine.set_jit toggled false;
    if tick = 35 then Ssx.Machine.set_jit toggled true;
    let et = Ssx.Machine.tick toggled and er = Ssx.Machine.tick reference in
    if et <> er then Alcotest.failf "jit toggle run diverged at tick %d" tick
  done;
  Helpers.check_string "same final digest"
    (Ssx.Snapshot.digest (Ssx.Snapshot.capture reference))
    (Ssx.Snapshot.digest (Ssx.Snapshot.capture toggled))

let test_protection_bitmap_matches_regions () =
  let mem = Ssx.Memory.create () in
  Ssx.Memory.protect mem { Ssx.Memory.base = 0x5000; size = 0x100 };
  Ssx.Memory.protect mem { Ssx.Memory.base = 0xF0000; size = 0x800 };
  let in_region addr { Ssx.Memory.base; size } =
    addr >= base && addr < base + size
  in
  let rng = Ssx_faults.Rng.create 0x9e3779b97f4a7c15L in
  for _ = 1 to 10_000 do
    let addr = Ssx_faults.Rng.int rng Ssx.Memory.size in
    let reference =
      List.exists (in_region addr) (Ssx.Memory.protected_regions mem)
    in
    if Ssx.Memory.is_protected mem addr <> reference then
      Alcotest.failf "bitmap disagrees with region list at %05X" addr
  done;
  (* Region boundaries, exactly. *)
  Helpers.check_bool "below base unprotected" false
    (Ssx.Memory.is_protected mem 0x4FFF);
  Helpers.check_bool "base protected" true (Ssx.Memory.is_protected mem 0x5000);
  Helpers.check_bool "last byte protected" true
    (Ssx.Memory.is_protected mem 0x50FF);
  Helpers.check_bool "past end unprotected" false
    (Ssx.Memory.is_protected mem 0x5100)

(* --- the trap path ------------------------------------------------------ *)

(* [Cpu.on_trap] fires inside the step, on both engines and inside the
   block compiler's quiet windows.  A machine's trap log — the tick and
   cs:ip at each call, and the event — must be the same whether it
   runs on the raw interpreter tick by tick, on the jit tick by tick,
   or on the jit through [Machine.run] in odd chunk sizes (windows cut
   at arbitrary points, chunks split at 4,096).  On the raw per-tick
   run it must also be exactly the interrupt and exception events that
   [Machine.tick] returned, with the tick count and cs:ip after each:
   that pins "at the end of every entry", which three runners that all
   dropped a trap would still agree on. *)

type trap = { at : int; cs : int; ip : int; event : Ssx.Cpu.event }

let trap_after machine event =
  let regs = Helpers.regs machine in
  { at = Ssx.Machine.ticks machine; cs = regs.Ssx.Registers.cs;
    ip = regs.Ssx.Registers.ip; event }

(* Chain a logger after whatever callback the machine already has (the
   monitor's predicate check). *)
let record_traps machine =
  let log = ref [] in
  let cpu = Ssx.Machine.cpu machine in
  let previous = cpu.Ssx.Cpu.on_trap in
  cpu.Ssx.Cpu.on_trap <-
    (fun event ->
      previous event;
      log := trap_after machine event :: !log);
  fun () -> List.rev !log

let is_trap = function
  | Ssx.Cpu.Took_interrupt _ | Ssx.Cpu.Took_exception _ -> true
  | Ssx.Cpu.Executed _ | Ssx.Cpu.Halted_idle | Ssx.Cpu.Did_reset -> false

let check_traps name expected actual =
  let rec first_difference i = function
    | [], [] -> ()
    | e :: es, a :: as_ ->
      if e <> a then
        Alcotest.failf "%s: trap %d differs: tick %d %a, expected tick %d %a"
          name i a.at pp_event a.event e.at pp_event e.event
      else first_difference (i + 1) (es, as_)
    | _ ->
      Alcotest.failf "%s: %d traps, expected %d" name (List.length actual)
        (List.length expected)
  in
  first_difference 0 (expected, actual)

let odd_chunks = [| 1; 7; 97; 1001; 4099; 13; 2 |]

let run_in_chunks machine ~ticks =
  let left = ref ticks and i = ref 0 in
  while !left > 0 do
    let n = min !left odd_chunks.(!i mod Array.length odd_chunks) in
    Ssx.Machine.run machine ~ticks:n;
    left := !left - n;
    incr i
  done

(* [prepare ~jit ~seed] builds, warms and corrupts a machine; its next
   [ticks] ticks are logged on the three runners, which must also count
   the same memory writes and ROM refusals.  [expect] sees every seed's
   expected log and windowed machine, and asserts the workload took the
   traps (and did the writes) the test is about. *)
let trap_differential name ~ticks ~seeds prepare ~expect =
  Helpers.case name (fun () ->
      let runs =
        List.map
          (fun seed ->
            let name = Printf.sprintf "%s, seed %d" name seed in
            let raw = prepare ~jit:false ~seed in
            let raw_log = record_traps raw in
            let expected = ref [] in
            for _ = 1 to ticks do
              let event = Ssx.Machine.tick raw in
              if is_trap event then
                expected := trap_after raw event :: !expected
            done;
            let expected = List.rev !expected in
            check_traps (name ^ ", raw per-tick") expected (raw_log ());
            let ticked = prepare ~jit:true ~seed in
            let ticked_log = record_traps ticked in
            for _ = 1 to ticks do
              ignore (Ssx.Machine.tick ticked)
            done;
            check_traps (name ^ ", jit per-tick") expected (ticked_log ());
            let windowed = prepare ~jit:true ~seed in
            let windowed_log = record_traps windowed in
            run_in_chunks windowed ~ticks;
            check_traps (name ^ ", jit windowed") expected (windowed_log ());
            Helpers.check_string (name ^ ": same final machine")
              (Ssx.Snapshot.digest (Ssx.Snapshot.capture raw))
              (Ssx.Snapshot.digest (Ssx.Snapshot.capture windowed));
            let raw_mem = Ssx.Machine.memory raw
            and windowed_mem = Ssx.Machine.memory windowed in
            Helpers.check_int (name ^ ": same write count")
              (Ssx.Memory.write_count raw_mem)
              (Ssx.Memory.write_count windowed_mem);
            Helpers.check_int (name ^ ": same ROM refusals")
              (Ssx.Memory.rom_refusal_count raw_mem)
              (Ssx.Memory.rom_refusal_count windowed_mem);
            (expected, windowed))
          seeds
      in
      expect name (List.concat_map fst runs) (List.map snd runs))

let count_traps log p = List.length (List.filter (fun t -> p t.event) log)

let nmi = function Ssx.Cpu.Took_interrupt { nmi; _ } -> nmi | _ -> false

let maskable = function
  | Ssx.Cpu.Took_interrupt { nmi; _ } -> not nmi
  | _ -> false

let exception_ = function Ssx.Cpu.Took_exception _ -> true | _ -> false

let expect_kinds kinds name log _machines =
  List.iter
    (fun (label, p) ->
      Helpers.check_bool
        (Printf.sprintf "%s: %s entries were logged" name label)
        true
        (count_traps log p > 0))
    kinds

let burst ~seed ~n fault_system space =
  ignore
    (Ssx_faults.Injector.inject_now fault_system
       ~rng:(Ssx_faults.Rng.create (Int64.of_int seed))
       ~space n)

let reinstall_burst ~jit ~seed =
  let system = Ssos.Reinstall.build () in
  Ssx.Machine.set_jit system.Ssos.System.machine jit;
  Ssos.System.run system ~ticks:5_000;
  burst ~seed ~n:60 (Ssos.System.fault_system system)
    Ssos.System.default_fault_space;
  system.Ssos.System.machine

let preemptive_timer ~jit ~seed =
  let system =
    Ssos.Reinstall.build ~timer_period:700
      ~guest:(Ssos.Guest.preemptive_kernel ()) ()
  in
  Ssx.Machine.set_jit system.Ssos.System.machine jit;
  Ssos.System.run system ~ticks:(2_000 + seed);
  system.Ssos.System.machine

let monitor_burst ~jit ~seed =
  let monitor = Ssos.Monitor.build () in
  let system = monitor.Ssos.Monitor.system in
  Ssx.Machine.set_jit system.Ssos.System.machine jit;
  Ssos.System.run system ~ticks:30_000;
  burst ~seed ~n:40 (Ssos.System.fault_system system)
    Ssos.System.default_fault_space;
  system.Ssos.System.machine

(* --- exception storms ------------------------------------------------- *)

(* A bare machine in a self-vectoring #UD storm: zero bytes decode to
   [Invalid], and the #UD entry of the IDT at [idtr] points back at
   [cs]:0, so every tick is an exception entry that vectors to the
   opcode that raised it and pushes three more words below
   [ss]:([sp] + [seed]).  This is the IDTR hazard of the paper's §1 in
   its purest form; where the frames land decides what else happens. *)
let storm ?(rom = []) ?(psw = 0) ?(cs = 0) ~ss ~sp ~idtr ~jit ~seed () =
  let machine = Helpers.with_jit ~jit (Ssx.Machine.create ()) in
  let mem = Ssx.Machine.memory machine in
  let cpu = Ssx.Machine.cpu machine in
  let entry = idtr + (4 * Ssx.Cpu.vec_invalid_opcode) in
  Ssx.Memory.write_word mem entry 0;
  Ssx.Memory.write_word mem (entry + 2) cs;
  List.iter (Ssx.Memory.protect mem) rom;
  cpu.Ssx.Cpu.idtr <- idtr;
  let regs = cpu.Ssx.Cpu.regs in
  regs.Ssx.Registers.cs <- cs;
  regs.Ssx.Registers.ip <- 0;
  regs.Ssx.Registers.ss <- ss;
  regs.Ssx.Registers.sp <- sp + seed;
  regs.Ssx.Registers.psw <- psw;
  machine

let clear_storm = storm ~ss:0x1000 ~sp:0x5000 ~idtr:0x7D090

(* A campaign-t1 trial (master 77) up to its first horizon tick:
   reinstall, 10,000 warmup ticks, a 10-fault burst.  Trials 6 and 31
   corrupt the IDTR into a one-address #UD loop. *)
let campaign_t1_trial ~jit ~seed =
  let system = Ssos.Reinstall.build () in
  Ssx.Machine.set_jit system.Ssos.System.machine jit;
  Ssos.System.run system ~ticks:10_000;
  ignore
    (Ssx_faults.Injector.inject_now (Ssos.System.fault_system system)
       ~rng:(Ssx_faults.Rng.create (Ssx_faults.Rng.derive 77L seed))
       ~space:Ssos.System.default_fault_space 10);
  system.Ssos.System.machine

let expect_mostly_exceptions ~ticks name log machines =
  Helpers.check_bool
    (name ^ ": most ticks were exception entries")
    true
    (count_traps log exception_ * 2 > ticks * List.length machines)

let expect_on_machines what p name _log machines =
  Helpers.check_bool (name ^ ": " ^ what) true (List.exists p machines)

let retranslated machine =
  Ssx.Block_compiler.retranslations (jit_of "storm" machine) > 0

let handlers log =
  List.sort_uniq compare
    (List.filter_map
       (fun t -> if exception_ t.event then Some (t.cs, t.ip) else None)
       log)

let refused machine =
  Ssx.Memory.rom_refusal_count (Ssx.Machine.memory machine) > 0

let byte0_written machine = Ssx.Memory.read_byte (Ssx.Machine.memory machine) 0 <> 0

(* A jit storm tick allocates nothing: no raise, no tuple, no event. *)
let test_storm_allocation () =
  let machine = clear_storm ~jit:true ~seed:0 () in
  Ssx.Machine.run machine ~ticks:100;
  let before = Gc.minor_words () in
  Ssx.Machine.run machine ~ticks:30_000;
  let words = Gc.minor_words () -. before in
  Helpers.check_bool
    (Printf.sprintf "30,000 storm ticks allocated %.0f minor words" words)
    true (words < 100.)

let storm_suite =
  [ trap_differential "trap log: #UD storm, stack clear of code and IDT"
      ~ticks:30_000 ~seeds:[ 0; 1 ]
      (fun ~jit ~seed -> clear_storm ~jit ~seed ())
      ~expect:(expect_mostly_exceptions ~ticks:30_000);
    trap_differential "trap log: #UD storm, frames overwrite their code"
      ~ticks:30_000 ~seeds:[ 0; 1; 2; 3; 4; 5 ]
      (fun ~jit ~seed ->
        storm ~cs:0x0050 ~psw:0x7070 ~ss:0 ~sp:0x0560 ~idtr:0x7D090 ~jit ~seed ())
      ~expect:(expect_on_machines "code was retranslated" retranslated);
    trap_differential "trap log: #UD storm, frames overwrite their IDT entry"
      ~ticks:30_000 ~seeds:[ 0; 1 ]
      (fun ~jit ~seed ->
        storm ~cs:0x0050 ~psw:0x7070 ~ss:0x1000 ~sp:0x5000 ~idtr:0x14000 ~jit
          ~seed ())
      ~expect:(fun name log _ ->
        Helpers.check_bool (name ^ ": more than one handler") true
          (List.length (handlers log) > 1));
    trap_differential "trap log: #UD storm, frames hit a ragged ROM"
      ~ticks:30_000 ~seeds:[ 0; 1 ]
      (fun ~jit ~seed ->
        storm ~rom:[ { Ssx.Memory.base = 0x23F00; size = 0x203 } ]
          ~ss:0x2000 ~sp:0x5000 ~idtr:0x7D090 ~jit ~seed ())
      ~expect:(expect_on_machines "ROM refused writes" refused);
    (* Seed 2's fourth frame stores psw across the wrap; the stack's
       next visit to byte 0 is a lap (10,923 frames) later. *)
    trap_differential "trap log: #UD storm, frames straddle the 1 MiB wrap"
      ~ticks:10_000 ~seeds:[ 0; 2 ]
      (fun ~jit ~seed ->
        storm ~psw:0x7070 ~cs:0x0050 ~ss:0xFFFF ~sp:0x0021 ~idtr:0x7D090 ~jit
          ~seed ())
      ~expect:(expect_on_machines "byte 0 was written" byte0_written);
    trap_differential "trap log: campaign-t1 storm trials (master 77)"
      ~ticks:40_000 ~seeds:[ 6; 31 ] campaign_t1_trial
      ~expect:(expect_mostly_exceptions ~ticks:40_000);
    Helpers.case "exception storm: a jit storm tick allocates nothing"
      test_storm_allocation ]

(* The monitor's own verdicts: detections (tick and violated
   predicates) and the final machine must not depend on the engine,
   though the jit checks its predicates from inside quiet windows. *)
let test_monitor_detections_engine_independent () =
  let run ~jit ~seed =
    let monitor = Ssos.Monitor.build () in
    let system = monitor.Ssos.Monitor.system in
    Ssx.Machine.set_jit system.Ssos.System.machine jit;
    Ssos.System.run system ~ticks:30_000;
    burst ~seed ~n:40 (Ssos.System.fault_system system)
      Ssos.System.default_fault_space;
    Ssos.System.run system ~ticks:150_000;
    ( Ssos.Monitor.detections monitor,
      Ssx.Snapshot.digest (Ssx.Snapshot.capture system.Ssos.System.machine) )
  in
  let detected =
    List.fold_left
      (fun detected seed ->
        let name = Printf.sprintf "seed %d" seed in
        let raw_detections, raw_digest = run ~jit:false ~seed in
        let jit_detections, jit_digest = run ~jit:true ~seed in
        Helpers.check_bool (name ^ ": same detections") true
          (raw_detections = jit_detections);
        Helpers.check_string (name ^ ": same final machine") raw_digest
          jit_digest;
        detected + List.length raw_detections)
      0 [ 1; 2; 3; 4; 5 ]
  in
  Helpers.check_bool "the corruption was detected" true (detected > 0)

let suite =
  [ differential "reinstall/restart" ~ticks:50_000 reinstall_restart;
    differential "reinstall/continue" ~ticks:50_000 reinstall_continue;
    differential "reinstall/reset-wired" ~ticks:50_000 reinstall_reset_wired;
    differential "reinstall/journal guest" ~ticks:50_000 reinstall_journal;
    differential "reinstall/preemptive guest + timer" ~ticks:50_000
      reinstall_preemptive;
    differential "monitor/task kernel" ~ticks:50_000 monitor_tasks;
    differential "scheduler/default" ~ticks:60_000 sched_default;
    differential "scheduler/paper variant" ~ticks:60_000 sched_paper;
    differential "token ring OS" ~ticks:60_000 token_os;
    jit_differential "reinstall/restart" ~ticks:50_000 reinstall_restart;
    jit_differential "reinstall/continue" ~ticks:50_000 reinstall_continue;
    jit_differential "reinstall/reset-wired" ~ticks:50_000
      reinstall_reset_wired;
    jit_differential "reinstall/journal guest" ~ticks:50_000 reinstall_journal;
    jit_differential "reinstall/preemptive guest + timer" ~ticks:50_000
      reinstall_preemptive;
    jit_differential "monitor/task kernel" ~ticks:50_000 monitor_tasks;
    jit_differential "scheduler/default" ~ticks:60_000 sched_default;
    jit_differential "scheduler/paper variant" ~ticks:60_000 sched_paper;
    jit_differential "token ring OS" ~ticks:60_000 token_os;
    faulted "faults/reinstall, code-region corruption" ~ticks:40_000
      ~seed:0x1234L ~space:code_only_space reinstall_fault_target;
    (* Faults from tick 500 on break this system's boot copy out of
       ROM, so its guest never runs. *)
    faulted ~guest_runs:false "faults/reinstall, full fault space"
      ~ticks:40_000 ~seed:0x5678L ~space:full_space reinstall_fault_target;
    faulted "faults/scheduler, code-region corruption" ~ticks:40_000
      ~seed:0x9abcL ~space:code_only_space sched_fault_target;
    jit_faulted "faults/reinstall, code-region corruption" ~ticks:40_000
      ~seed:0x1234L ~space:code_only_space reinstall_fault_target;
    jit_faulted "faults/reinstall, full fault space" ~ticks:40_000
      ~seed:0x5678L ~space:full_space reinstall_fault_target;
    jit_faulted "faults/scheduler, code-region corruption" ~ticks:40_000
      ~seed:0x9abcL ~space:code_only_space sched_fault_target;
    trap_differential "trap log: reinstall under a full-fault-space burst"
      ~ticks:80_000 ~seeds:[ 1; 2; 3; 4 ] reinstall_burst
      ~expect:(expect_kinds [ ("nmi", nmi); ("exception", exception_) ]);
    trap_differential "trap log: preemptive guest and its timer"
      ~ticks:60_000 ~seeds:[ 0; 333 ] preemptive_timer
      ~expect:(expect_kinds [ ("nmi", nmi); ("maskable interrupt", maskable) ]);
    trap_differential "trap log: monitor under a 40-fault burst"
      ~ticks:80_000 ~seeds:[ 1; 2; 3 ] monitor_burst
      ~expect:(expect_kinds [ ("nmi", nmi); ("exception", exception_) ]);
    Helpers.case "monitor detections: jit windowed = raw per-tick"
      test_monitor_detections_engine_independent;
    Helpers.case "self-modifying code: patched immediate"
      test_self_modifying_immediate;
    Helpers.case "self-modifying code: patched opcode"
      test_self_modifying_opcode;
    Helpers.case "jit self-modifying code: patched immediate"
      test_jit_self_modifying_immediate;
    Helpers.case "jit self-modifying code: patched opcode"
      test_jit_self_modifying_opcode;
    Helpers.case "jit cross-block patch" test_jit_cross_block_patch;
    Helpers.case "jit jmp-linked block cycle: patched interior"
      test_jit_jmp_cycle_patch;
    Helpers.case "jit NMI mid-block" test_jit_nmi_mid_block;
    Helpers.case "jit plain blocks: chunked quiet run" test_plain_blocks_quiet;
    Helpers.case "jit self-loops: device path" test_self_loops_device_path;
    Helpers.case "jit window: serve replica, watchdog + two NICs"
      test_window_serve_replica;
    Helpers.case "jit window: 4-node ring over lossy links"
      test_window_ring_nodes;
    Helpers.case "jit window: irq-armed NIC + watchdog" test_window_irq_nic;
    Helpers.case "jit window: petted watchdog" test_window_petted_watchdog;
    Helpers.case "jit rep bursts: self-patch, DF=1, ROM" test_rep_bursts;
    Helpers.case "jit window: generated programs + watchdog"
      test_window_generated_programs;
    Helpers.case "every write source invalidates" (write_sources ~jit:true);
    Helpers.case "raw interpreter decodes every write source"
      (write_sources ~jit:false);
    Helpers.case "jit toggle mid-run is invisible" test_jit_toggle_mid_run;
    Helpers.case "protection bitmap matches region list"
      test_protection_bitmap_matches_regions ]
  @ storm_suite
