type cs_check = Strict_eq | Paper_jb | No_check
type ip_mask = Windowed | Paper_mask | No_mask

let default_watchdog_period = 20_000

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* The [cs:si] segment overrides on the processLimits reads are a
   deviation from the printed figures: the paper keeps the limits table
   "in rom" but reads it with a plain [si], which on a real processor
   would read the data segment.  Executing from ROM, [cs] addresses the
   table correctly and is itself trustworthy at that point. *)
let cs_check_text = function
  | No_check -> "; cs validity check disabled (ablation)\n"
  | Paper_jb ->
    "; check cs validity (figure 5, lines 45-50, as printed: jb)\n\
    \    lea si, [PROCESS_LIMITS]         ; 45\n\
    \    add si, word [PROCESS_INDEX]     ; 46\n\
    \    add si, word [PROCESS_INDEX]     ; 47\n\
    \    cmp ax, [cs:si]                  ; 48\n\
    \    jb cs_ok                         ; 49\n\
    \    mov ax, [cs:si]                  ; 50 init cs\n\
     cs_ok:\n"
  | Strict_eq ->
    "; check cs validity (strict equality variant)\n\
    \    lea si, [PROCESS_LIMITS]         ; 45\n\
    \    add si, word [PROCESS_INDEX]     ; 46\n\
    \    add si, word [PROCESS_INDEX]     ; 47\n\
    \    cmp ax, [cs:si]                  ; 48\n\
    \    je cs_ok                         ; 49\n\
    \    mov ax, [cs:si]                  ; 50 init cs\n\
     cs_ok:\n"

let ip_mask_text = function
  | No_mask -> "; ip masking disabled (ablation)\n"
  | Paper_mask -> "    and ax, 0xFFF0               ; 53 validate ip (as printed)\n"
  | Windowed -> "    and ax, IP_MASK_VALUE        ; 53 validate ip (windowed)\n"

let refresh_text refresh =
  if not refresh then "; code refresh disabled\n"
  else
    "; refresh the next process's code image from rom (section 5.2 text:\n\
     ; the scheduler repeatedly reads the code of each process from a\n\
     ; secondary memory device)\n\
    \    mov dx, ax                       ; keep the next index\n\
    \    mov si, ax\n\
    \    shl si, 12                       ; index * PROC_IMAGE_SIZE\n\
    \    add si, PROC_IMAGES_OFFSET\n\
    \    lea bx, [PROCESS_LIMITS]\n\
    \    add bx, dx\n\
    \    add bx, dx\n\
    \    mov es, [cs:bx]                  ; destination segment from rom\n\
    \    mov ax, ROM_SEGMENT\n\
    \    mov ds, ax\n\
    \    mov di, 0\n\
    \    mov cx, PROC_IMAGE_SIZE\n\
    \    cld\n\
    \    rep movsb\n\
    \    mov ax, DATA_SEGMENT             ; restore ds and the index\n\
    \    mov ds, ax\n\
    \    mov ax, dx\n"

let source ~n ~cs_check ~ip_mask ~refresh =
  if not (is_power_of_two n) || n > 8 then
    invalid_arg "Sched.source: n must be a power of two between 1 and 8";
  String.concat ""
    [ "; Figures 2-5: the self-stabilizing scheduler\n";
      Printf.sprintf "N_MASK equ %d\n" (n - 1);
      Printf.sprintf "IP_MASK_VALUE equ 0x%04X\n" Layout.ip_mask;
      "scheduler:\n";
      "; figure 2: verify segment and stack registers; store ax, ds, bx\n";
      "    mov word [ss:STACK_TOP-2], ax    ; 1\n\
      \    mov ax, STACK_SEGMENT            ; 2\n\
      \    mov ss, ax                       ; 3\n\
      \    mov sp, STACK_TOP                ; 4\n\
      \    mov word [ss:STACK_TOP-4], ds    ; 5\n\
      \    mov word [ss:STACK_TOP-6], bx    ; 6\n\
      \    mov ax, DATA_SEGMENT             ; 7\n\
      \    mov ds, ax                       ; 8\n";
      "; figure 3: save the interrupted process's state\n";
      "    mov word ax, [PROCESS_INDEX]     ; 9\n\
      \    and ax, N_MASK                   ; 10\n\
      \    lea bx, [PROCESS_TABLE]          ; 11\n\
      \    mov ah, PROCESS_ENTRY_SIZE       ; 12\n\
      \    mul ah                           ; 13\n\
      \    add bx, ax                       ; 14 bx points to current state\n\
      \    mov ax, [ss:STACK_TOP+4]         ; 15 save flag\n\
      \    mov word [bx], ax                ; 16\n\
      \    mov ax, [ss:STACK_TOP+2]         ; 17 save cs\n\
      \    mov word [bx+2], ax              ; 18\n\
      \    mov ax, [ss:STACK_TOP]           ; 19 save ip\n\
      \    mov word [bx+4], ax              ; 20\n\
      \    mov ax, [ss:STACK_TOP-2]         ; 21 save ax\n\
      \    mov word [bx+6], ax              ; 22\n\
      \    mov ax, [ss:STACK_TOP-4]         ; 23 save ds\n\
      \    mov word [bx+8], ax              ; 24\n\
      \    mov ax, [ss:STACK_TOP-6]         ; 25 save bx\n\
      \    mov word [bx+10], ax             ; 26\n\
      \    mov word [bx+12], cx             ; 27 save cx\n\
      \    mov word [bx+14], dx             ; 28 save dx\n\
      \    mov word [bx+16], si             ; 29 save si\n\
      \    mov word [bx+18], di             ; 30 save di\n\
      \    mov word [bx+20], es             ; 31 save es\n\
      \    mov word [bx+22], fs             ; 32 save fs\n\
      \    mov word [bx+24], gs             ; 33 save gs\n";
      "; figure 4: increment process index\n";
      "    mov word ax, [PROCESS_INDEX]     ; 34\n\
      \    inc ax                           ; 35\n\
      \    and ax, N_MASK                   ; 36\n\
      \    mov word [PROCESS_INDEX], ax     ; 37\n";
      refresh_text refresh;
      "; figure 5: load the next process's state\n";
      "    lea bx, [PROCESS_TABLE]          ; 38\n\
      \    mov ah, PROCESS_ENTRY_SIZE       ; 39\n\
      \    mul ah                           ; 40\n\
      \    add bx, ax                       ; 41 bx points to next state\n\
      \    mov ax, [bx]                     ; 42 restore flag\n\
      \    mov word [ss:STACK_TOP+4], ax    ; 43\n\
      \    mov ax, [bx+2]                   ; 44 restore cs\n";
      cs_check_text cs_check;
      "    mov word [ss:STACK_TOP+2], ax    ; 51\n\
      \    mov ax, [bx+4]                   ; 52 restore ip\n";
      ip_mask_text ip_mask;
      "    mov word [ss:STACK_TOP], ax      ; 54\n\
      \    mov cx, word [bx+12]             ; 55 restore cx\n\
      \    mov dx, word [bx+14]             ; 56 restore dx\n\
      \    mov si, word [bx+16]             ; 57 restore si\n\
      \    mov di, word [bx+18]             ; 58 restore di\n\
      \    mov es, word [bx+20]             ; 59 restore es\n\
      \    mov fs, word [bx+22]             ; 60 restore fs\n\
      \    mov gs, word [bx+24]             ; 61 restore gs\n\
      \    mov ax, word [bx+8]              ; 62 restore ds (above stack)\n\
      \    mov word [ss:STACK_TOP-2], ax    ; 63\n\
      \    mov ax, word [bx+6]              ; 64 restore ax\n\
      \    mov bx, word [bx+10]             ; 65 restore bx\n\
      \    mov ds, word [ss:STACK_TOP-2]    ; 66 finally ds\n\
       ; jump to next process\n\
      \    iret                             ; 67\n" ]

let figures_2_to_5_source =
  source ~n:4 ~cs_check:Paper_jb ~ip_mask:Paper_mask ~refresh:false

type t = {
  machine : Ssx.Machine.t;
  watchdog : Ssx_devices.Watchdog.t;
  heartbeats : Ssx_devices.Heartbeat.t array;
  processes : Process.t array;
  n : int;
}

let process_index_addr =
  (Layout.sched_data_segment lsl 4) + Layout.process_index_offset

let process_record_addr i =
  (Layout.sched_data_segment lsl 4)
  + Layout.process_table_offset
  + (i * Layout.process_entry_size)

let build_rom ~n ~cs_check ~ip_mask ~refresh ~images =
  let rom = Rom_builder.create () in
  let reset_stub = Printf.sprintf "    jmp 0x%04X\n" Layout.sched_offset in
  ignore (Rom_builder.add_asm rom ~offset:Layout.reset_offset reset_stub);
  (* Exceptions re-enter the scheduler, which saves the garbage frame
     into the current record and moves on. *)
  let exception_stub = Printf.sprintf "    jmp 0x%04X\n" Layout.sched_offset in
  ignore (Rom_builder.add_asm rom ~offset:Layout.exception_offset exception_stub);
  ignore
    (Rom_builder.add_asm rom ~offset:Layout.sched_offset
       (source ~n ~cs_check ~ip_mask ~refresh));
  Array.iteri
    (fun i image ->
      Rom_builder.add_blob rom
        ~offset:(Layout.proc_images_offset + (i * Layout.proc_image_size))
        image)
    images;
  (* processLimits: the fixed cs of each process (figure 5, lines 45-50). *)
  let limits =
    String.init (2 * n) (fun byte ->
        let seg = Layout.proc_segment (byte / 2) in
        Char.chr
          (if byte mod 2 = 0 then Ssx.Word.low_byte seg else Ssx.Word.high_byte seg))
  in
  Rom_builder.add_blob rom ~offset:Layout.proc_limits_offset limits;
  Rom_builder.set_all_vectors rom ~seg:Layout.rom_segment
    ~off:Layout.exception_offset;
  Rom_builder.set_vector rom Ssx.Cpu.vec_nmi ~seg:Layout.rom_segment
    ~off:Layout.sched_offset;
  rom

let build ?(n = 4) ?(cs_check = Strict_eq) ?(ip_mask = Windowed)
    ?(refresh = true) ?(watchdog_period = default_watchdog_period)
    ?processes () =
  let processes =
    match processes with
    | Some processes ->
      if Array.length processes <> n then
        invalid_arg "Sched.build: processes array must have length n";
      processes
    | None -> Array.init n (fun index -> Process.counter_process ~index)
  in
  let images = Array.map Process.assemble_image processes in
  let rom = build_rom ~n ~cs_check ~ip_mask ~refresh ~images in
  let config = Layout.machine_config () in
  let machine = Ssx.Machine.create ~config () in
  Rom_builder.install rom (Ssx.Machine.memory machine);
  (Ssx.Machine.cpu machine).Ssx.Cpu.idtr <- Layout.rom_base + Layout.idt_offset;
  (* BIOS-style initial installation of the process code (the refresh
     path keeps it alive thereafter). *)
  Array.iteri
    (fun i image ->
      Ssx.Memory.load_image (Ssx.Machine.memory machine)
        ~base:(Layout.proc_segment i lsl 4)
        image)
    images;
  let watchdog =
    Ssx_devices.Watchdog.create ~period:watchdog_period
      ~target:Ssx_devices.Watchdog.Nmi_pin
  in
  Ssx.Machine.add_device machine (Ssx_devices.Watchdog.device watchdog);
  Ssx.Machine.add_resettable machine (Ssx_devices.Watchdog.resettable watchdog);
  let heartbeats =
    Array.init n (fun i ->
        let hb = Ssx_devices.Heartbeat.create () in
        Ssx_devices.Heartbeat.attach hb ~port:(Layout.process_heartbeat_port i)
          machine;
        hb)
  in
  Ssx.Cpu.reset (Ssx.Machine.cpu machine);
  { machine; watchdog; heartbeats; processes; n }

let counts sched =
  Ssx.Machine.counts sched.machine
  @ Ssx_devices.Watchdog.counts sched.watchdog
  @ Ssx.Counts.indexed string_of_int Ssx_devices.Heartbeat.counts
      sched.heartbeats

let initialize_records sched =
  let mem = Ssx.Machine.memory sched.machine in
  for i = 0 to sched.n - 1 do
    let record = process_record_addr i in
    Ssx.Memory.write_word mem (record + 2) (Layout.proc_segment i);
    Ssx.Memory.write_word mem (record + 4) 0
  done;
  (* Also stage a valid interrupt frame at the scheduler stack top: the
     boot path enters the scheduler without an NMI push, and what it
     finds there is saved into process 0's record. *)
  let frame = Ssx.Addr.physical ~seg:Layout.sched_stack_segment ~off:Layout.sched_stack_top in
  Ssx.Memory.write_word mem frame 0;
  Ssx.Memory.write_word mem (Ssx.Addr.mask (frame + 2)) (Layout.proc_segment 0);
  Ssx.Memory.write_word mem (Ssx.Addr.mask (frame + 4)) 0

let fault_system sched =
  { Ssx_faults.Fault.machine = sched.machine; watchdog = Some sched.watchdog }

let fault_space sched =
  let code_regions =
    List.init sched.n (fun i -> (Layout.proc_segment i lsl 4, Layout.proc_image_size))
  in
  let data_regions =
    List.init sched.n (fun i -> (Process.data_segment i lsl 4, 0x100))
  in
  let sched_regions =
    [ ((Layout.sched_stack_segment lsl 4), 0x200);
      ((Layout.sched_data_segment lsl 4),
       Layout.process_table_offset + (sched.n * Layout.process_entry_size)) ]
  in
  { Ssx_faults.Fault.ram_regions = code_regions @ data_regions @ sched_regions;
    registers = true;
    control_state = true;
    halt_faults = true;
    idtr_faults = true;
    watchdog_state = true }
