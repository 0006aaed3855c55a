let checkpoint_offset = 0x0400

(* Progress-checked checkpoint/rollback, the Windows-XP/EROS-style
   mechanism the paper contrasts with (§1).  CKPT_META is the saved
   liveness value, stored just past the image copy in the (corruptible)
   checkpoint RAM segment.  Exceptions enter at [exception_rollback] and
   roll back unconditionally: checkpointing on the exception path would
   capture the already-broken state. *)
let checkpoint_source =
  "; Checkpoint/rollback NMI handler (baseline)\n\
   CKPT_META equ IMAGE_SIZE\n\
   checkpoint_handler:\n\
  \    push ds\n\
  \    push ax\n\
  \    push bx\n\
  \    push cx\n\
  \    push si\n\
  \    push di\n\
  \    push es\n\
  \    mov ax, OS_SEGMENT\n\
  \    mov ds, ax\n\
  \    mov bx, [LIVENESS_OFF]\n\
  \    mov ax, CHECKPOINT_SEGMENT\n\
  \    mov es, ax\n\
  \    cmp bx, [es:CKPT_META]\n\
  \    je rollback                 ; no progress since the last pulse\n\
   ; progress: take a checkpoint of the whole image\n\
  \    mov si, 0x00\n\
  \    mov di, 0x00\n\
  \    mov cx, IMAGE_SIZE\n\
  \    cld\n\
  \    rep movsb\n\
  \    mov word [es:CKPT_META], bx\n\
  \    pop es\n\
  \    pop di\n\
  \    pop si\n\
  \    pop cx\n\
  \    pop bx\n\
  \    pop ax\n\
  \    pop ds\n\
  \    iret\n\
   rollback:\n\
  \    mov ax, CHECKPOINT_SEGMENT\n\
  \    mov ds, ax\n\
  \    mov ax, OS_SEGMENT\n\
  \    mov es, ax\n\
  \    mov si, 0x00\n\
  \    mov di, 0x00\n\
  \    mov cx, IMAGE_SIZE\n\
  \    cld\n\
  \    rep movsb\n\
   ; restart the guest from its entry with a fresh stack\n\
  \    mov ax, OS_SEGMENT\n\
  \    mov ss, ax\n\
  \    mov sp, 0xFFFF\n\
  \    push word 0x02\n\
  \    push word OS_SEGMENT\n\
  \    push word 0x0\n\
  \    iret\n\
   org EXCEPTION_ENTRY\n\
   exception_rollback:\n\
  \    jmp rollback\n"

let warm_boot_stub = "    jmp OS_SEGMENT:0x0000\n"

let halt_stub = "    hlt\n"

let default_guest () = Guest.task_kernel ()

let none ?guest () =
  let guest = match guest with Some g -> g | None -> default_guest () in
  let rom = Rom_builder.create () in
  ignore (Rom_builder.add_asm rom ~offset:Layout.reset_offset warm_boot_stub);
  ignore (Rom_builder.add_asm rom ~offset:Layout.exception_offset halt_stub);
  Rom_builder.set_all_vectors rom ~seg:Layout.rom_segment
    ~off:Layout.exception_offset;
  let system = System.build ~watchdog:`None ~rom ~guest () in
  System.install_guest system;
  system

let reset_only ?(watchdog_period = Layout.default_watchdog_period) ?guest () =
  let guest = match guest with Some g -> g | None -> default_guest () in
  let rom = Rom_builder.create () in
  ignore (Rom_builder.add_asm rom ~offset:Layout.reset_offset warm_boot_stub);
  (* Exceptions also reboot, but nothing refreshes the code. *)
  ignore (Rom_builder.add_asm rom ~offset:Layout.exception_offset warm_boot_stub);
  Rom_builder.set_all_vectors rom ~seg:Layout.rom_segment
    ~off:Layout.exception_offset;
  let system = System.build ~watchdog:(`Reset watchdog_period) ~rom ~guest () in
  System.install_guest system;
  system

let checkpoint ?(watchdog_period = Layout.default_watchdog_period) ?guest () =
  let guest = match guest with Some g -> g | None -> default_guest () in
  let rom = Rom_builder.create () in
  ignore (Rom_builder.add_asm rom ~offset:Layout.reset_offset warm_boot_stub);
  let exception_entry = checkpoint_offset + 0x180 in
  ignore
    (Rom_builder.add_asm rom ~offset:checkpoint_offset
       ~symbols:
         [ ("LIVENESS_OFF", Layout.os_data_offset + 4);
           ("EXCEPTION_ENTRY", exception_entry) ]
       checkpoint_source);
  (* Exceptions roll back unconditionally (no checkpoint of a broken
     state); the periodic NMI decides between checkpoint and rollback. *)
  Rom_builder.set_all_vectors rom ~seg:Layout.rom_segment ~off:exception_entry;
  Rom_builder.set_vector rom Ssx.Cpu.vec_nmi ~seg:Layout.rom_segment
    ~off:checkpoint_offset;
  let system = System.build ~watchdog:(`Nmi watchdog_period) ~rom ~guest () in
  System.install_guest system;
  system

let pet_port = 0x18

let petting_guest () =
  let base = Guest.heartbeat_kernel () in
  (* Insert a watchdog kick right after the heartbeat. *)
  let source =
    Str_replace.replace_first base.Guest.source
      ~pattern:"    out HEARTBEAT_PORT, ax\n"
      ~replacement:"    out HEARTBEAT_PORT, ax\n    out PET_PORT, ax\n"
  in
  { Guest.name = "petting-kernel";
    source;
    symbols = ("PET_PORT", pet_port) :: base.Guest.symbols }

let petted_watchdog ?(watchdog_period = Layout.default_watchdog_period) ?guest () =
  let guest = match guest with Some g -> g | None -> petting_guest () in
  (* Best case for the baseline: a firing reboots through the full
     reinstall procedure, exactly like the section 3 design — the only
     difference is the petting discipline. *)
  let rom = Rom_builder.create () in
  let reset_stub = Printf.sprintf "    jmp 0x%04X\n" Layout.recovery_offset in
  ignore (Rom_builder.add_asm rom ~offset:Layout.reset_offset reset_stub);
  ignore
    (Rom_builder.add_asm rom ~offset:Layout.recovery_offset
       Reinstall.figure1_source);
  Rom_builder.add_blob rom ~offset:Layout.os_image_offset (Guest.image_bytes guest);
  Rom_builder.set_all_vectors rom ~seg:Layout.rom_segment
    ~off:Layout.recovery_offset;
  let system = System.build ~watchdog:(`Nmi watchdog_period) ~rom ~guest () in
  (match system.System.watchdog with
  | Some wd ->
    Ssx.Machine.register_port system.System.machine ~port:pet_port
      ~read:(fun _ -> 0)
      ~write:(fun _ _ -> Ssx_devices.Watchdog.pet wd)
  | None -> assert false);
  system

let checkpoint_fault_space =
  { System.default_fault_space with
    Ssx_faults.Fault.ram_regions =
      ((Layout.os_segment lsl 4), Layout.os_image_size)
      :: [ ((Layout.checkpoint_segment lsl 4), Layout.os_image_size + 2) ] }
