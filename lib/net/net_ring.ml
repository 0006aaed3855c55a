let k = 8

(* One process per machine, so its data segment and heartbeat port are
   those of process 0. *)
let data_segment = Ssos.Process.data_segment 0
let self_off = 0
let view_off = 2
let self_addr = (data_segment lsl 4) + self_off
let view_addr = (data_segment lsl 4) + view_off

let ring_process ~bottom ~index =
  let nic = Nic.default_base_port in
  let symbols =
    [ ("DATA_SEG", data_segment);
      ("SELF_OFF", self_off);
      ("PRED_OFF", view_off);
      ("K_MASK", k - 1);
      ("NIC_TX", nic);
      ("NIC_RX", nic + 1);
      ("NIC_STATUS", nic + 2);
      ("MY_PORT", Ssos.Layout.process_heartbeat_port 0) ]
  in
  (* Every labelled block below starts 16-aligned and fits in one
     16-byte window, so a preemption's ip masking re-enters at the
     block's own start; see the replay notes on each block. *)
  let decide =
    if bottom then
      "; block: decide and derive (bottom: move when equal, by\n\
       ; incrementing modulo K); re-entry is guarded by the comparison\n\
       derive:\n\
      \    cmp ax, bx\n\
      \    jne announce\n\
      \    inc ax\n\
      \    and ax, K_MASK\n"
    else
      "; block: decide (other: move when different, by copying);\n\
       ; re-entry re-checks the comparison\n\
       derive:\n\
      \    cmp ax, bx\n\
      \    je announce\n"
  in
  let source =
    "org 0\n\
     start:\n\
     ; block: establish the data segment (idempotent)\n\
    \    mov ax, DATA_SEG\n\
    \    mov ds, ax\n\
     align 16\n\
     ; block: poll for arrivals (pure reads)\n\
     poll:\n\
    \    mov dx, NIC_STATUS\n\
    \    in ax, dx\n\
    \    cmp ax, 0\n\
    \    je load\n\
     align 16\n\
     ; block: consume one word into the predecessor view; a replayed\n\
     ; destructive read can only lose a word, and the sender\n\
     ; retransmits every pass (a corrupted word lands raw and is healed\n\
     ; when the move commits and the clamp below runs)\n\
     take:\n\
    \    mov dx, NIC_RX\n\
    \    in ax, dx\n\
    \    mov [PRED_OFF], ax\n\
    \    jmp poll\n\
     align 16\n\
     ; block: load both counters (idempotent)\n\
     load:\n\
    \    mov ax, [PRED_OFF]\n\
    \    mov bx, [SELF_OFF]\n\
     align 16\n"
    ^ decide
    ^ "align 16\n\
       ; block: commit the move (re-storing the same ax is idempotent)\n\
       commit:\n\
      \    mov [SELF_OFF], ax\n\
       align 16\n\
       ; block: clamp the counter into 0..K-1 (heals memory corruption)\n\
       announce:\n\
      \    mov ax, [SELF_OFF]\n\
      \    and ax, K_MASK\n\
      \    mov [SELF_OFF], ax\n\
       align 16\n\
       ; block: retransmit unconditionally and report the heartbeat\n\
       emit:\n\
      \    mov dx, NIC_TX\n\
      \    out dx, ax\n\
      \    out MY_PORT, ax\n\
      \    jmp start\n"
  in
  { Ssos.Process.name = Printf.sprintf "net-ring-%d" index; source; symbols }

type t = {
  cluster : Cluster.t;
  systems : Ssos.Sched.t array;
  n : int;
}

let build ?(n = 4) ?policy ?ticks_per_slot ?latency ?edges ?capacity ?faults
    ~seed () =
  if n < 2 then invalid_arg "Net_ring.build: need at least two nodes";
  let systems =
    Array.init n (fun index ->
        Ssos.Sched.build ~n:1
          ~processes:[| ring_process ~bottom:(index = 0) ~index |] ())
  in
  let nodes =
    Array.map
      (fun sched ->
        let nic = Nic.create ?capacity () in
        Nic.attach nic sched.Ssos.Sched.machine;
        { Cluster.machine = sched.Ssos.Sched.machine; nic })
      systems
  in
  let cluster = Cluster.create ?policy ?ticks_per_slot ?latency ~seed nodes in
  (* Adversarial daemons get the abstract ring state: each node's raw
     counter word (the adaptive adversary clamps it into [0, K)). *)
  Cluster.set_abstract cluster (fun i ->
      Ssx.Memory.read_word (Ssx.Machine.memory (Cluster.machine cluster i))
        self_addr);
  let edges =
    match edges with Some e -> e | None -> Cluster.ring_edges ~n
  in
  Cluster.connect_many ?faults cluster edges;
  { cluster; systems; n }

let counts t =
  Ssx.Counts.indexed (Printf.sprintf "node%d") Ssos.Sched.counts t.systems
  @ Cluster.counts t.cluster

let node_memory t i = Ssx.Machine.memory (Cluster.machine t.cluster i)
let states t = Array.init t.n (fun i -> Ssx.Memory.read_word (node_memory t i) self_addr)
let views t = Array.init t.n (fun i -> Ssx.Memory.read_word (node_memory t i) view_addr)

let sample t =
  { Ssx_stab.Distributed.step = Cluster.steps t.cluster; states = states t }

let corrupt_state t i v =
  Ssx.Memory.write_word (node_memory t i) self_addr (Ssx.Word.mask v)

let corrupt_view t i v =
  Ssx.Memory.write_word (node_memory t i) view_addr (Ssx.Word.mask v)

let corrupt rng t =
  for i = 0 to t.n - 1 do
    corrupt_state t i (Ssx_faults.Rng.int rng 0x10000);
    corrupt_view t i (Ssx_faults.Rng.int rng 0x10000)
  done

let token_count t = Ssx_stab.Distributed.token_count ~states:(states t)
let legitimate t = Ssx_stab.Distributed.legitimate ~states:(states t)

(* [record] for the runs below: a node's counter word, read right
   after the node's slot.  A node's memory only
   changes while the node itself runs (delivery just queues words in the
   destination NIC), so the per-step log is enough to replay the exact
   state matrix an observer sampling after every step would see. *)
let record_state cluster who =
  Ssx.Memory.read_word (Ssx.Machine.memory (Cluster.machine cluster who))
    self_addr

let observe t ~steps =
  let current = states t in
  let acc = ref [] in
  Cluster.replay ~record:record_state t.cluster ~steps
    (fun step slot ->
      Option.iter (fun (who, v) -> current.(who) <- v) slot;
      acc :=
        { Ssx_stab.Distributed.step; states = Array.copy current } :: !acc);
  List.rev !acc

type move_trace = {
  converged : int option;
  total_moves : int;
  off_model_moves : int;
  tail_moves : int;
}

(* The walk projects the joint configuration after every single step,
   replayed from the stepper's per-step log. *)
let converge_moves ?(limit = 5_000) t =
  let current = states t in
  let proj () = Array.map (Ssx_stab.Distributed.residue ~k) current in
  let prev = ref (proj ()) in
  let total = ref 0 and off = ref 0 and tail = ref 0 in
  let converged =
    Cluster.replay_until ~record:record_state t.cluster ~limit (fun _ slot ->
        Option.iter (fun (who, v) -> current.(who) <- v) slot;
        let next = proj () in
        let p = !prev in
        for i = 0 to t.n - 1 do
          if next.(i) <> p.(i) then begin
            incr total;
            (* Dijkstra's move from the {e true} previous configuration:
               anything else means the node fired on a stale view (or a
               clamp healed a corrupted word into a new residue). *)
            let fired =
              Ssx_stab.Distributed.privileged ~states:p i
              && next.(i) = Ssx_stab.Distributed.move ~k ~states:p i
            in
            if fired then incr tail
            else begin
              incr off;
              tail := 0
            end
          end
        done;
        prev := next;
        Ssx_stab.Distributed.legitimate ~states:current)
  in
  { converged;
    total_moves = !total;
    off_model_moves = !off;
    tail_moves = !tail }

let run_until_legitimate t ~limit =
  let current = states t in
  Cluster.replay_until ~record:record_state t.cluster ~limit
    (fun _ slot ->
      match slot with
      | None -> false
      | Some (who, v) ->
        current.(who) <- v;
        Ssx_stab.Distributed.legitimate ~states:current)
