type variant = Restart | Continue

(* Figure 1 of the paper, kept line-for-line (comments cite the paper's
   line numbers).  The iret both jumps to the operating system's first
   command and re-enables NMIs. *)
let figure1_source =
  "; Figure 1 - Operating System Watchdog/Reinstall Procedure\n\
   watchdog_reinstall:\n\
   ; copy OS image\n\
  \    mov ax, OS_ROM_SEGMENT   ; 1\n\
  \    mov ds, ax               ; 2\n\
  \    mov si, 0x00             ; 3\n\
  \    mov ax, OS_SEGMENT       ; 4\n\
  \    mov es, ax               ; 5\n\
  \    mov di, 0x00             ; 6\n\
  \    mov cx, IMAGE_SIZE       ; 7\n\
  \    cld                      ; 8\n\
  \    rep movsb                ; 9\n\
   ; prepare for journey\n\
  \    mov ax, OS_SEGMENT       ; 10\n\
  \    mov ss, ax               ; 11\n\
  \    mov sp, 0xFFFF           ; 12\n\
  \    push word 0x02           ; 13 flag\n\
  \    push word OS_SEGMENT     ; 14 cs\n\
  \    push word 0x0            ; 15 ip\n\
  \    iret                     ; 16\n"

(* The second §3 design: reinstall the image but resume the interrupted
   execution.  Registers are preserved through the guest's own stack —
   the stack may be arbitrary after a fault, which is exactly why this
   variant is only weakly self-stabilizing. *)
let continue_source =
  "; Reinstall-and-continue NMI handler (section 3, second design)\n\
   continue_reinstall:\n\
  \    push ds\n\
  \    push ax\n\
  \    push bx\n\
  \    push cx\n\
  \    push si\n\
  \    push di\n\
  \    push es\n\
  \    mov ax, OS_ROM_SEGMENT\n\
  \    mov ds, ax\n\
  \    mov si, 0x00\n\
  \    mov ax, OS_SEGMENT\n\
  \    mov es, ax\n\
  \    mov di, 0x00\n\
  \    mov cx, IMAGE_SIZE\n\
  \    cld\n\
  \    rep movsb\n\
  \    pop es\n\
  \    pop di\n\
  \    pop si\n\
  \    pop cx\n\
  \    pop bx\n\
  \    pop ax\n\
  \    pop ds\n\
  \    iret\n"

let reset_stub_source =
  Printf.sprintf
    "; Reset stub: boot through the reinstall procedure.\n\
    \    jmp 0x%04X\n"
    Layout.recovery_offset

let build_rom ~variant ~guest ~with_timer =
  let rom = Rom_builder.create () in
  ignore (Rom_builder.add_asm rom ~offset:Layout.reset_offset reset_stub_source);
  ignore (Rom_builder.add_asm rom ~offset:Layout.recovery_offset figure1_source);
  let nmi_target =
    match variant with
    | Restart -> Layout.recovery_offset
    | Continue ->
      let image =
        Rom_builder.add_asm rom ~offset:Layout.exception_offset continue_source
      in
      ignore image;
      Layout.exception_offset
  in
  Rom_builder.add_blob rom ~offset:Layout.os_image_offset (Guest.image_bytes guest);
  (* Exceptions and stray interrupts all reinstall-and-restart. *)
  Rom_builder.set_all_vectors rom ~seg:Layout.rom_segment ~off:Layout.recovery_offset;
  Rom_builder.set_vector rom Ssx.Cpu.vec_nmi ~seg:Layout.rom_segment ~off:nmi_target;
  if with_timer then
    (* The timer vector points into the (reinstalled) guest image. *)
    Rom_builder.set_vector rom Layout.timer_vector ~seg:Layout.os_segment
      ~off:Guest.timer_handler_offset;
  rom

type wiring = Nmi_wired | Reset_wired

let build ?nmi_counter_enabled ?hardwired_nmi ?obs_label
    ?(watchdog_period = Layout.default_watchdog_period) ?(variant = Restart)
    ?(wiring = Nmi_wired) ?timer_period ?guest () =
  let guest = match guest with Some g -> g | None -> Guest.heartbeat_kernel () in
  let rom = build_rom ~variant ~guest ~with_timer:(timer_period <> None) in
  let watchdog =
    match wiring with
    | Nmi_wired -> `Nmi watchdog_period
    | Reset_wired -> `Reset watchdog_period
  in
  let system =
    System.build ?nmi_counter_enabled ?hardwired_nmi ?obs_label ~watchdog
      ~rom ~guest ()
  in
  (match timer_period with
  | Some period ->
    let timer = Ssx_devices.Timer.create ~period ~vector:Layout.timer_vector in
    Ssx.Machine.add_device system.System.machine (Ssx_devices.Timer.device timer);
    Ssx.Machine.add_resettable system.System.machine
      (Ssx_devices.Timer.resettable timer)
  | None -> ());
  system

let strict_spec () =
  Ssx_stab.Convergence.counter_spec ~max_gap:8000 ~window:20_000 ()

let weak_spec ?(window = 20_000) () =
  { Ssx_stab.Convergence.legal_step =
      (fun prev next -> next = Ssx.Word.mask (prev + 1) || next = 1);
    max_gap = 8000;
    window }
