type t = {
  name : string;
  source : string;
  symbols : (string * int) list;
}

let work_total = 400
let task_divisor = 4

let heartbeat_kernel ?(work_units = 100) () =
  let source =
    "; Heartbeat kernel: the minimal guest operating system.\n\
     ; Increments a counter in its data area and reports it on the\n\
     ; heartbeat port; the legal executions are exactly the runs whose\n\
     ; heartbeat values increase by one.\n\
     TICK_COUNTER equ OS_DATA_OFFSET\n\
     org 0\n\
     start:\n\
    \    mov ax, OS_SEGMENT\n\
    \    mov ds, ax\n\
    \    mov ss, ax\n\
    \    mov sp, GUEST_STACK_TOP\n\
     main_loop:\n\
    \    mov ax, [TICK_COUNTER]\n\
    \    inc ax\n\
    \    mov [TICK_COUNTER], ax\n\
    \    out HEARTBEAT_PORT, ax\n\
    \    mov cx, WORK_UNITS\n\
     work:\n\
    \    loop work\n\
    \    jmp main_loop\n\
     org OS_DATA_OFFSET\n\
    \    dw 0\n"
  in
  { name = "heartbeat-kernel"; source; symbols = [ ("WORK_UNITS", work_units) ] }

let task_kernel ?(tasks = 4) () =
  if tasks <= 0 then invalid_arg "Guest.task_kernel: tasks must be positive";
  let table_words =
    String.concat ", "
      (List.concat_map (fun _ -> [ "1"; "DIVISOR" ]) (List.init tasks Fun.id))
  in
  let source =
    Printf.sprintf
      "; Task kernel: a guest with monitorable data structures (§4).\n\
       ; Data area: tick counter, round-robin task index, liveness word\n\
       ; and a task table of (increment, divisor) pairs.  The kernel is\n\
       ; deliberately naive: it only handles the exact wrap boundary, it\n\
       ; trusts the table, and it divides by a table field — so state\n\
       ; corruption produces wrong heartbeats, runaway indices or divide\n\
       ; faults unless a monitor repairs the state.\n\
       TICK_COUNTER equ OS_DATA_OFFSET\n\
       TASK_INDEX   equ OS_DATA_OFFSET+2\n\
       LIVENESS     equ OS_DATA_OFFSET+4\n\
       TASK_TABLE   equ OS_DATA_OFFSET+6\n\
       org 0\n\
       start:\n\
      \    mov ax, OS_SEGMENT\n\
      \    mov ds, ax\n\
      \    mov ss, ax\n\
      \    mov sp, GUEST_STACK_TOP\n\
       main_loop:\n\
      \    mov ax, [TASK_INDEX]\n\
      \    mov bx, ax\n\
      \    shl bx, 2\n\
      \    add bx, TASK_TABLE\n\
      \    mov cx, [bx]            ; task increment (golden value 1)\n\
      \    mov si, [bx+2]          ; task divisor (golden value DIVISOR)\n\
      \    inc ax\n\
      \    cmp ax, N_TASKS\n\
      \    jne no_wrap\n\
      \    mov ax, 0\n\
       no_wrap:\n\
      \    mov [TASK_INDEX], ax\n\
      \    mov ax, WORK_TOTAL\n\
      \    mov dx, 0\n\
      \    div si                  ; divide fault if the divisor is corrupted\n\
      \    mov di, ax\n\
       work:\n\
      \    dec di\n\
      \    jnz work\n\
      \    mov ax, [TICK_COUNTER]\n\
      \    add ax, cx\n\
      \    mov [TICK_COUNTER], ax\n\
      \    out HEARTBEAT_PORT, ax\n\
      \    mov [LIVENESS], ax\n\
      \    jmp main_loop\n\
       org OS_DATA_OFFSET\n\
      \    dw 0                    ; tick counter\n\
      \    dw 0                    ; task index\n\
      \    dw 0                    ; liveness\n\
      \    dw %s\n"
      table_words
  in
  { name = "task-kernel";
    source;
    symbols =
      [ ("N_TASKS", tasks); ("WORK_TOTAL", work_total); ("DIVISOR", task_divisor) ] }

let journal_slots = 16
let journal_mac = 0xA5A5

let journal_kernel () =
  let source =
    Printf.sprintf
      "; Journal kernel: a guest with a checksummed append-only journal.\n\
       ; Each iteration advances a sequence number, writes the entry\n\
       ; (seq, seq xor MAC) into a ring of %d slots and reports seq.\n\
       ; Like the task kernel it is deliberately naive: the write pointer\n\
       ; is only wrapped at the exact boundary, and entries are trusted.\n\
       SEQ       equ OS_DATA_OFFSET\n\
       WRITE_PTR equ OS_DATA_OFFSET+2\n\
       JOURNAL   equ OS_DATA_OFFSET+4\n\
       org 0\n\
       start:\n\
      \    mov ax, OS_SEGMENT\n\
      \    mov ds, ax\n\
      \    mov ss, ax\n\
      \    mov sp, GUEST_STACK_TOP\n\
       main_loop:\n\
      \    mov ax, [SEQ]\n\
      \    inc ax\n\
      \    mov [SEQ], ax\n\
       ; append (seq, seq xor MAC) at the write pointer\n\
      \    mov bx, [WRITE_PTR]\n\
      \    shl bx, 2\n\
      \    add bx, JOURNAL\n\
      \    mov [bx], ax\n\
      \    mov cx, ax\n\
      \    xor cx, JOURNAL_MAC\n\
      \    mov [bx+2], cx\n\
       ; naive ring advance (exact-boundary wrap only)\n\
      \    mov bx, [WRITE_PTR]\n\
      \    inc bx\n\
      \    cmp bx, JOURNAL_SLOTS\n\
      \    jne no_wrap\n\
      \    mov bx, 0\n\
       no_wrap:\n\
      \    mov [WRITE_PTR], bx\n\
      \    out HEARTBEAT_PORT, ax\n\
      \    mov cx, WORK_UNITS\n\
       work:\n\
      \    loop work\n\
      \    jmp main_loop\n\
       org OS_DATA_OFFSET\n\
      \    dw 0                    ; seq\n\
      \    dw 0                    ; write pointer\n"
      journal_slots
  in
  { name = "journal-kernel";
    source;
    symbols =
      [ ("WORK_UNITS", 60); ("JOURNAL_SLOTS", journal_slots);
        ("JOURNAL_MAC", journal_mac) ] }

let timer_handler_offset = 0x400

let preemptive_kernel () =
  let source =
    "; Preemptive kernel: the heartbeat kernel plus a timer interrupt\n\
     ; handler.  The handler counts preemptions; the main loop runs with\n\
     ; interrupts enabled, so the timer slices it.\n\
     TICK_COUNTER  equ OS_DATA_OFFSET\n\
     PREEMPT_COUNT equ OS_DATA_OFFSET+2\n\
     org 0\n\
     start:\n\
    \    mov ax, OS_SEGMENT\n\
    \    mov ds, ax\n\
    \    mov ss, ax\n\
    \    mov sp, GUEST_STACK_TOP\n\
    \    sti\n\
     main_loop:\n\
    \    mov ax, [TICK_COUNTER]\n\
    \    inc ax\n\
    \    mov [TICK_COUNTER], ax\n\
    \    out HEARTBEAT_PORT, ax\n\
    \    mov cx, WORK_UNITS\n\
     work:\n\
    \    loop work\n\
    \    jmp main_loop\n\
     org TIMER_HANDLER\n\
     timer_handler:\n\
    \    push ax\n\
    \    push ds\n\
    \    mov ax, OS_SEGMENT\n\
    \    mov ds, ax\n\
    \    mov ax, [PREEMPT_COUNT]\n\
    \    inc ax\n\
    \    mov [PREEMPT_COUNT], ax\n\
    \    pop ds\n\
    \    pop ax\n\
    \    iret\n\
     org OS_DATA_OFFSET\n\
    \    dw 0                    ; tick counter\n\
    \    dw 0                    ; preemption counter\n"
  in
  { name = "preemptive-kernel";
    source;
    symbols =
      [ ("WORK_UNITS", 100); ("TIMER_HANDLER", timer_handler_offset) ] }

let assemble guest =
  Ssx_asm.Assemble.assemble ~origin:0
    ~symbols:(Rom_builder.layout_symbols @ guest.symbols)
    guest.source

let image_bytes guest =
  let image = assemble guest in
  let bytes = image.Ssx_asm.Assemble.bytes in
  let len = String.length bytes in
  if len > Layout.os_image_size then
    invalid_arg
      (Printf.sprintf "Guest.image_bytes: %s is %d bytes, limit %d" guest.name
         len Layout.os_image_size);
  bytes ^ String.make (Layout.os_image_size - len) '\000'

let symbol guest name =
  Ssx_asm.Assemble.symbol (assemble guest) (String.lowercase_ascii name)

let data_addr offset = (Layout.os_segment lsl 4) + Layout.os_data_offset + offset
let counter_addr = data_addr 0
let preempt_count_addr = data_addr 2
let seq_addr = data_addr 0
let write_ptr_addr = data_addr 2
let journal_addr = data_addr 4
let task_index_addr = data_addr 2
let liveness_addr = data_addr 4
let task_table_addr = data_addr 6
