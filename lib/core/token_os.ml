let k = 8
let shared_segment = 0x4800
let shared_addr i = (shared_segment lsl 4) + (2 * i)

(* Block layout mirrors Process.counter_process: derivation blocks are
   replay-idempotent (the conditional jump home guards re-entry after a
   partial move), and the store block ends exactly at the port write. *)
let ring_process ~n ~index =
  if n < 2 then invalid_arg "Token_os.ring_process: need at least two machines";
  let pred = (index + n - 1) mod n in
  let symbols =
    [ ("SHARED_SEG", shared_segment);
      ("SELF_OFF", 2 * index);
      ("PRED_OFF", 2 * pred);
      ("K_MASK", k - 1);
      ("MY_PORT", Layout.process_heartbeat_port index) ]
  in
  let source =
    if index = 0 then
      "; Dijkstra's bottom machine: privileged when equal to its\n\
       ; predecessor; moves by incrementing modulo K.\n\
       org 0\n\
       start:\n\
       ; block 0: load both counters (idempotent)\n\
      \    mov ax, SHARED_SEG\n\
      \    mov ds, ax\n\
      \    mov ax, [PRED_OFF]\n\
      \    mov bx, [SELF_OFF]\n\
       ; block 1: decide and derive; re-entry is guarded by the jump\n\
      \    cmp ax, bx\n\
      \    jne start\n\
      \    inc ax\n\
      \    and ax, K_MASK\n\
      \    times 3 nop\n\
       ; block 2: the move; the port write ends the block exactly\n\
      \    mov [SELF_OFF], ax\n\
      \    times 9 nop\n\
      \    out MY_PORT, ax\n\
       ; block 3: loop closure\n\
      \    jmp start\n"
    else
      "; Dijkstra's other machines: privileged when different from the\n\
       ; predecessor; move by copying it.\n\
       org 0\n\
       start:\n\
       ; block 0: load both counters (idempotent)\n\
      \    mov ax, SHARED_SEG\n\
      \    mov ds, ax\n\
      \    mov ax, [PRED_OFF]\n\
      \    mov bx, [SELF_OFF]\n\
       ; block 1: decide; re-entry is guarded by the jump\n\
      \    cmp ax, bx\n\
      \    je start\n\
      \    times 10 nop\n\
       ; block 2: the move; the port write ends the block exactly\n\
      \    mov [SELF_OFF], ax\n\
      \    times 9 nop\n\
      \    out MY_PORT, ax\n\
       ; block 3: loop closure\n\
      \    jmp start\n"
  in
  { Process.name = Printf.sprintf "ring-%d" index; source; symbols }

let build ?(n = 4) () =
  let processes = Array.init n (fun index -> ring_process ~n ~index) in
  Sched.build ~n ~processes ()

let states sched =
  let mem = Ssx.Machine.memory sched.Sched.machine in
  Array.init sched.Sched.n (fun i -> Ssx.Memory.read_word mem (shared_addr i))

let corrupt_state sched i v =
  Ssx.Memory.write_word (Ssx.Machine.memory sched.Sched.machine) (shared_addr i)
    (v land (k - 1))

let legitimate sched = Ssx_stab.Distributed.legitimate ~states:(states sched)

let run_until_legitimate sched ~limit =
  Ssx.Machine.run_until sched.Sched.machine ~limit (fun _ -> legitimate sched)
