type detection = {
  tick : int;
  violated : string list;
}

type t = {
  system : System.t;
  predicates : Ssx_stab.Predicate.t list;
  mutable detections : detection list;
  mutable checks : int;
}

let monitor_offset = 0x0400

(* The monitor handler serves both the watchdog NMI and exceptions.

   NMI path (entry [monitor_handler]): clear the repeat-exception latch,
   refresh the executable portion from ROM, validate the interrupted
   cs:ip and resume; a bad frame falls through to the full
   reinstall-and-restart procedure (§4 modification (3)).

   Exception path (entry [exception_handler], offset +0x100): the
   graduated repair of §4 — "correcting actions that are less severe
   than reinstall".  Refresh the code and retry the faulting
   instruction; if the {e same} address faults twice in a row (recorded
   in a scratch word), the local repair evidently failed, so escalate to
   the full reinstall.  The scratch word lives in corruptible RAM: a
   corrupted latch costs at most one spurious escalation (safe) or one
   extra retry (the next exception escalates), preserving
   self-stabilization. *)
let monitor_source =
  "; Section 4 monitor handler: refresh code, validate return frame,\n\
   ; retry-once exceptions.\n\
   CODE_SIZE equ OS_DATA_OFFSET\n\
   LATCH_NONE equ 0xFFFF\n\
   monitor_handler:\n\
  \    push ds\n\
  \    push ax\n\
  \    push bx\n\
   ; a healthy watchdog pulse clears the repeat-exception latch\n\
  \    mov ax, SCRATCH_SEGMENT\n\
  \    mov ds, ax\n\
  \    mov word [0], LATCH_NONE\n\
   common:\n\
  \    push cx\n\
  \    push si\n\
  \    push di\n\
  \    push es\n\
   ; refresh only the executable portion (modification (1))\n\
  \    mov ax, OS_ROM_SEGMENT\n\
  \    mov ds, ax\n\
  \    mov si, 0x00\n\
  \    mov ax, OS_SEGMENT\n\
  \    mov es, ax\n\
  \    mov di, 0x00\n\
  \    mov cx, CODE_SIZE\n\
  \    cld\n\
  \    rep movsb\n\
  \    pop es\n\
  \    pop di\n\
  \    pop si\n\
  \    pop cx\n\
   ; validate the return frame (modification (3))\n\
  \    mov bx, sp\n\
  \    mov ax, [ss:bx+8]        ; interrupted cs\n\
  \    cmp ax, OS_SEGMENT\n\
  \    jne bad_frame\n\
  \    mov ax, [ss:bx+6]        ; interrupted ip\n\
  \    cmp ax, CODE_SIZE\n\
  \    jb frame_ok\n\
   bad_frame:\n\
  \    jmp RESTART_ENTRY        ; reinstall and start from the first command\n\
   frame_ok:\n\
  \    pop bx\n\
  \    pop ax\n\
  \    pop ds\n\
  \    iret\n\
   org EXCEPTION_ENTRY\n\
   exception_handler:\n\
  \    push ds\n\
  \    push ax\n\
  \    push bx\n\
  \    mov ax, SCRATCH_SEGMENT\n\
  \    mov ds, ax\n\
  \    mov bx, sp\n\
  \    mov ax, [ss:bx+6]        ; faulting ip\n\
  \    cmp ax, [0]              ; faulted here last time too?\n\
  \    je bad_frame             ; local repair failed - escalate\n\
  \    mov [0], ax              ; remember and attempt local repair\n\
  \    jmp common\n"

let guest_predicates ~tasks =
  let index_predicate =
    Ssx_stab.Predicate.word_in_range ~name:"task-index-in-range"
      ~addr:Guest.task_index_addr ~lo:0 ~hi:(tasks - 1) ~reset:0
  in
  let table_predicate =
    let golden i = if i mod 2 = 0 then 1 else Guest.task_divisor in
    let entry_addr i = Guest.task_table_addr + (2 * i) in
    let holds machine =
      let mem = Ssx.Machine.memory machine in
      let rec ok i =
        i >= 2 * tasks
        || (Ssx.Memory.read_word mem (entry_addr i) = golden i && ok (i + 1))
      in
      ok 0
    in
    let repair machine =
      let mem = Ssx.Machine.memory machine in
      for i = 0 to (2 * tasks) - 1 do
        Ssx.Memory.write_word mem (entry_addr i) (golden i)
      done
    in
    Ssx_stab.Predicate.make ~name:"task-table-golden" ~repair holds
  in
  let stack_predicate =
    let holds machine =
      let regs = (Ssx.Machine.cpu machine).Ssx.Cpu.regs in
      regs.Ssx.Registers.ss = Layout.os_segment
      && regs.Ssx.Registers.sp >= 0xFF00
      && regs.Ssx.Registers.sp <= Layout.guest_stack_top
    in
    let repair machine =
      let regs = (Ssx.Machine.cpu machine).Ssx.Cpu.regs in
      regs.Ssx.Registers.ss <- Layout.os_segment;
      regs.Ssx.Registers.sp <- Layout.guest_stack_top
    in
    Ssx_stab.Predicate.make ~name:"stack-registers-sane" ~repair holds
  in
  [ index_predicate; table_predicate; stack_predicate ]

let exception_entry = monitor_offset + 0x200

let build_rom ~guest =
  let rom = Rom_builder.create () in
  let reset_stub =
    Printf.sprintf "    jmp 0x%04X\n" Layout.recovery_offset
  in
  ignore (Rom_builder.add_asm rom ~offset:Layout.reset_offset reset_stub);
  ignore
    (Rom_builder.add_asm rom ~offset:Layout.recovery_offset
       Reinstall.figure1_source);
  ignore
    (Rom_builder.add_asm rom ~offset:monitor_offset
       ~symbols:
         [ ("RESTART_ENTRY", Layout.recovery_offset);
           ("EXCEPTION_ENTRY", exception_entry);
           ("SCRATCH_SEGMENT", Layout.sched_stack_segment) ]
       monitor_source);
  Rom_builder.add_blob rom ~offset:Layout.os_image_offset (Guest.image_bytes guest);
  Rom_builder.set_all_vectors rom ~seg:Layout.rom_segment ~off:exception_entry;
  Rom_builder.set_vector rom Ssx.Cpu.vec_nmi ~seg:Layout.rom_segment
    ~off:monitor_offset;
  rom

let journal_predicates () =
  let write_ptr =
    Ssx_stab.Predicate.word_in_range ~name:"journal-write-ptr-in-range"
      ~addr:Guest.write_ptr_addr ~lo:0 ~hi:(Guest.journal_slots - 1) ~reset:0
  in
  let slot_addr i = Guest.journal_addr + (4 * i) in
  let slot_valid mem i =
    let seq = Ssx.Memory.read_word mem (slot_addr i) in
    let mac = Ssx.Memory.read_word mem (slot_addr i + 2) in
    (seq = 0 && mac = 0) || mac = seq lxor Guest.journal_mac
  in
  let macs =
    let holds machine =
      let mem = Ssx.Machine.memory machine in
      let rec ok i = i >= Guest.journal_slots || (slot_valid mem i && ok (i + 1)) in
      ok 0
    in
    let repair machine =
      let mem = Ssx.Machine.memory machine in
      for i = 0 to Guest.journal_slots - 1 do
        if not (slot_valid mem i) then begin
          let seq = Ssx.Memory.read_word mem (slot_addr i) in
          Ssx.Memory.write_word mem (slot_addr i + 2) (seq lxor Guest.journal_mac)
        end
      done
    in
    Ssx_stab.Predicate.make ~name:"journal-entry-macs" ~repair holds
  in
  [ write_ptr; macs ]

(* Detection-only predicate: the executable portion matches the golden
   image.  No repair is attached — the ROM handler's refresh is the
   repair; the predicate exists so code corruption is *reported* like
   any other inconsistency. *)
let code_integrity_predicate ~guest =
  let golden =
    String.sub (Guest.image_bytes guest) 0 Layout.os_data_offset
  in
  let holds machine =
    Ssx.Memory.dump
      (Ssx.Machine.memory machine)
      ~base:(Layout.os_segment lsl 4)
      ~len:Layout.os_data_offset
    = golden
  in
  Ssx_stab.Predicate.make ~name:"code-matches-golden" holds

let build_custom ?(code_integrity = true) ~guest ~predicates () =
  let rom = build_rom ~guest in
  let system =
    System.build ~watchdog:(`Nmi Layout.default_watchdog_period) ~rom ~guest ()
  in
  let predicates =
    if code_integrity then predicates @ [ code_integrity_predicate ~guest ]
    else predicates
  in
  let monitor = { system; predicates; detections = []; checks = 0 } in
  let check machine =
    monitor.checks <- monitor.checks + 1;
    let violated =
      Ssx_stab.Predicate.check_and_repair monitor.predicates machine
    in
    if violated <> [] then
      monitor.detections <-
        { tick = Ssx.Machine.ticks machine;
          violated = List.map (fun p -> p.Ssx_stab.Predicate.name) violated }
        :: monitor.detections
  in
  (* Consistency checks run at every entry to the ROM monitor: the
     periodic watchdog NMI and the graduated-repair exception path.  The
     predicates touch only memory and registers, as the trap contract
     requires. *)
  let machine = system.System.machine in
  (Ssx.Machine.cpu machine).Ssx.Cpu.on_trap <-
    (fun event ->
      match event with
      | Ssx.Cpu.Took_interrupt { nmi = true; _ } | Ssx.Cpu.Took_exception _ ->
        check machine
      | Ssx.Cpu.Executed _ | Ssx.Cpu.Took_interrupt _ | Ssx.Cpu.Halted_idle
      | Ssx.Cpu.Did_reset -> ());
  (* The detection log is observational host state; rewind it with the
     machine on snapshot restore so snapshot-reset trials report exactly
     what a rebuilt system would. *)
  Ssx.Machine.add_resettable machine (fun () ->
      let detections = monitor.detections and checks = monitor.checks in
      fun () ->
        monitor.detections <- detections;
        monitor.checks <- checks);
  monitor

let build () =
  build_custom ~guest:(Guest.task_kernel ~tasks:4 ())
    ~predicates:(guest_predicates ~tasks:4) ()

let detections monitor = List.rev monitor.detections

