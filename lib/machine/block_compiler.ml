(* Basic-block threaded-code compiler for SSX16.

   The interpreter pays a per-tick fetch/decode/dispatch price: a
   byte-at-a-time decode and one walk of the instruction match per
   executed instruction.  This module discovers basic blocks —
   straight-line instruction runs ending at a control transfer, port
   I/O, iret, a CS write, or a length cap — and compiles each into an
   array of closures with operands pre-resolved (register accessors,
   effective-address components, successor ip constants are all baked
   at compile time).  Executing a block is then an indirect call per
   instruction with no decode, no operand matching and no
   per-instruction event allocation.

   Soundness against self-modifying and corrupted code (§5.2 of the
   paper) rests on one invariant: a block executes only while the code
   bytes it was compiled from are byte-identical to memory.  Two layers
   enforce it cheaply:

   - every change to memory (guest stores, [rep movs] sweeps, fault
     injection, image loads, snapshot restores) moves the generation
     of its 256-byte page in {!Memory}; a block records the
     generations of the (at most two) pages its span covers and is
     fresh while they are unchanged;
   - when the generations have moved, the block's recorded code bytes
     are compared against memory directly: untouched blocks (e.g. a
     stack page shared with code, or code a restore copied back
     unchanged) refresh their generations and keep running, modified
     blocks are recompiled from the bytes now in memory — exactly the
     re-decode the interpreter performs.

   Freshness is checked at every block entry, after every
   memory-writing instruction inside a block, between the iterations
   of a [rep] burst, and on every tick of the single-step path, so a
   store into the *currently executing* block
   takes effect at the next instruction boundary — the same granularity
   as the per-tick interpreter.  Nothing else invalidates: a reset pin
   changes no memory byte, and a restore moves the generations of the
   pages it copies, so the table survives both. *)

open Registers
open Instruction

(* How the quiet runner treats an op beyond calling [exec].  Every
   non-[Plain] shape is a block terminator, so it can only be a
   block's last op. *)
type shape =
  | Plain
  | Self_loop of int
      (* [loop] targeting its own address — the shape of every delay
         and polling loop — with its fall-through ip: a window batches
         the whole countdown in closed form *)
  | Rep_string of (Cpu.t -> unit) * int
      (* [rep movs/stos/lods]: one iteration of the body, and the
         fall-through ip; a window runs the iterations as a burst *)
  | Port_io
      (* device-visible: a window stops before it, so port handlers see
         device state advanced through the tick that runs them *)

type op = {
  exec : Cpu.t -> Cpu.event;
  base_event : Cpu.event;  (* prebuilt [Executed]; anything else means a fault *)
  op_ip : Word.t;          (* offset of the opcode byte *)
  writes_mem : bool;       (* may store to memory without ending the block *)
  shape : shape;
}

type block = {
  ops : op array;
  n_ops : int;
  n_plain : int;    (* leading [Plain] ops: [n_ops], or [n_ops - 1] *)
  start_pa : int;
  span : int;       (* code bytes covered: [start_pa, start_pa + span) *)
  b_cs : Word.t;
  bytes : string;   (* the code bytes at compile time — ground truth *)
  page0 : int;
  page1 : int;
  mutable g0 : int; (* page generations last seen matching [bytes] *)
  mutable g1 : int;
}

(* The table is paged like {!Memory}'s generations. *)
let page_shift = 8
let page_size = 1 lsl page_shift
let page_count = Addr.memory_size lsr page_shift
let () = assert (page_size = Memory.page_size)
let max_block_bytes = 128 (* spans at most two 256-byte pages *)
let max_block_ops = 32

(* The table is keyed by the physical address of a block's first opcode
   byte, which only determines the code bytes when every decode window
   is linear: no 16-bit offset wrap within the segment and no 20-bit
   physical wrap.  Positions past these limits (the §5.2 hazard at its
   worst) always take the interpreter's raw decode. *)
let linear_ip_limit = 0x10000 - Codec.max_length
let linear_pa_limit = Addr.memory_size - Codec.max_length

let no_op =
  { exec = (fun _ -> assert false); base_event = Cpu.Halted_idle;
    op_ip = 0; writes_mem = false; shape = Plain }

let dummy_block =
  { ops = [||]; n_ops = 0; n_plain = 0; start_pa = 0; span = 0;
    b_cs = -1; bytes = ""; page0 = 0; page1 = 0; g0 = 0; g1 = 0 }

(* Every table's pages start out as this one, which is never written:
   a page of slots is allocated on its first compiled block. *)
let empty_page = Array.make page_size dummy_block

type t = {
  pages : block array array;
      (* [pages.(pa lsr page_shift).(pa land (page_size - 1))]: the
         block starting at physical address [pa] *)
  gens : int array;      (* the memory's live page generations *)
  mutable cur : block;   (* cursor: resume point for straight-line runs *)
  mutable cur_ix : int;
  mutable built : int;
  mutable retranslations : int; (* rebuilds forced by changed code bytes *)
  mutable block_ticks : int;    (* instructions executed via compiled ops *)
  mutable loop_ticks : int;     (* ticks run as closed-form self-loops *)
  mutable burst_ticks : int;    (* ticks executed through [rep] bursts *)
  execute : Cpu.t -> Cpu.event;
      (* the execute stage handed to {!Cpu.step_with}, built once so a
         tick allocates nothing *)
}

let built t = t.built
let retranslations t = t.retranslations
let block_ticks t = t.block_ticks
let loop_ticks t = t.loop_ticks
let burst_ticks t = t.burst_ticks

let[@inline] lookup t pa =
  Array.unsafe_get
    (Array.unsafe_get t.pages (pa lsr page_shift))
    (pa land (page_size - 1))

let[@inline] fresh t b =
  Array.unsafe_get t.gens b.page0 = b.g0
  && Array.unsafe_get t.gens b.page1 = b.g1

(* The block's pages have been written: decide by comparing the actual
   code bytes.  Unchanged bytes (writes elsewhere in the page) refresh
   the recorded generations; changed bytes condemn the block. *)
let revalidate t b mem =
  let same = ref true in
  let i = ref 0 in
  while !same && !i < b.span do
    if Memory.read_byte mem (b.start_pa + !i)
       <> Char.code (String.unsafe_get b.bytes !i)
    then same := false;
    incr i
  done;
  if !same then begin
    b.g0 <- Array.unsafe_get t.gens b.page0;
    b.g1 <- Array.unsafe_get t.gens b.page1;
    true
  end
  else false

(* --- per-instruction compilation ------------------------------------- *)

(* Per-tick time that every non-reset tick pays: the step counter and
   the NMI countdown (§2).  Kept exact per tick — port handlers and
   devices may read [steps] mid-run. *)
let[@inline] tick_time cpu =
  cpu.Cpu.steps <- cpu.Cpu.steps + 1;
  let config = cpu.Cpu.config in
  if config.Cpu.nmi_counter_enabled then begin
    let r = cpu.Cpu.regs in
    if r.nmi_counter > config.Cpu.nmi_counter_max then
      r.nmi_counter <- config.Cpu.nmi_counter_max;
    if r.nmi_counter > 0 then r.nmi_counter <- r.nmi_counter - 1
  end

(* [n] applications of [tick_time] in closed form (the countdown only
   clamps once, then decrements), for runs of ticks whose work reads
   neither field. *)
let batch_time cpu n =
  cpu.Cpu.steps <- cpu.Cpu.steps + n;
  let config = cpu.Cpu.config in
  if config.Cpu.nmi_counter_enabled then begin
    let r = cpu.Cpu.regs in
    let c0 = min r.nmi_counter config.Cpu.nmi_counter_max in
    r.nmi_counter <- (if c0 > n then c0 - n else 0)
  end

let getter16 = function
  | AX -> (fun r -> r.ax) | BX -> (fun r -> r.bx)
  | CX -> (fun r -> r.cx) | DX -> (fun r -> r.dx)
  | SI -> (fun r -> r.si) | DI -> (fun r -> r.di)
  | SP -> (fun r -> r.sp) | BP -> (fun r -> r.bp)

let setter16 = function
  | AX -> (fun r v -> r.ax <- v land 0xffff)
  | BX -> (fun r v -> r.bx <- v land 0xffff)
  | CX -> (fun r v -> r.cx <- v land 0xffff)
  | DX -> (fun r v -> r.dx <- v land 0xffff)
  | SI -> (fun r v -> r.si <- v land 0xffff)
  | DI -> (fun r v -> r.di <- v land 0xffff)
  | SP -> (fun r v -> r.sp <- v land 0xffff)
  | BP -> (fun r v -> r.bp <- v land 0xffff)

let sreg_getter = function
  | CS -> (fun r -> r.cs) | DS -> (fun r -> r.ds) | ES -> (fun r -> r.es)
  | SS -> (fun r -> r.ss) | FS -> (fun r -> r.fs) | GS -> (fun r -> r.gs)

(* Effective address with the base/segment selection resolved at
   compile time; the masking chain reproduces {!Cpu.effective_address}
   (double 16-bit masking collapses: both are mod 2^16 of the sum). *)
let ea_fn (m : Instruction.mem) =
  let disp = m.disp in
  let base : Registers.t -> int =
    match m.base with
    | No_base -> (fun _ -> 0)
    | Base_bx -> (fun r -> r.bx)
    | Base_si -> (fun r -> r.si)
    | Base_di -> (fun r -> r.di)
    | Base_bp -> (fun r -> r.bp)
    | Base_bx_si -> (fun r -> r.bx + r.si)
    | Base_bx_di -> (fun r -> r.bx + r.di)
  in
  let seg =
    sreg_getter
      (match m.seg_override with
      | Some s -> s
      | None -> Instruction.default_segment m.base)
  in
  fun r -> Addr.physical ~seg:(seg r) ~off:(Word.mask (base r + disp))

(* Instructions after which the successor address is not the textual
   successor (or not compile-time determined): block enders. *)
let is_terminator = function
  | Jmp _ | Jmp_far _ | Jcc _ | Call _ | Ret | Iret | Int _ | Loop _
  | Rep _ | Hlt | Invalid _ -> true
  (* Port I/O is device-visible: handlers may read machine state or
     raise pins, so architectural state must be spilled and pins
     re-polled right after — end the block. *)
  | In_ _ | Out _ | In_dx _ | Out_dx _ -> true
  (* A CS write invalidates every baked ip→pa mapping downstream. *)
  | Mov_sreg_r16 (CS, _) | Mov_sreg_mem (CS, _) | Pop_sreg CS -> true
  | _ -> false

let writes_memory = function
  | Mov_mem_r16 _ | Mov_mem_imm _ | Mov_mem_r8 _ | Mov_mem_sreg _
  | Alu_mem_r16 _
  | Push_r16 _ | Push_imm _ | Push_sreg _ | Pushf
  | Movs _ | Stos _ -> true
  | _ -> false

(* One iteration of a [rep] body: the unprefixed instruction as
   {!Cpu.execute} runs it.  [movsb], the §5.2 code refresh, is
   specialised; each byte still goes through {!Memory.write_byte}, so
   ROM refusals and page generations stay exact. *)
let string_unit body ~ip0 ~len =
  match body with
  | Movs Byte ->
    fun cpu ->
      let r = cpu.Cpu.regs and mem = cpu.Cpu.mem in
      let d = if Flags.get r.psw Flags.Direction then -1 else 1 in
      let v = Memory.read_byte mem (Addr.physical ~seg:r.ds ~off:r.si) in
      Memory.write_byte mem (Addr.physical ~seg:r.es ~off:r.di) v;
      r.si <- Word.mask (r.si + d);
      r.di <- Word.mask (r.di + d)
  | _ -> fun cpu -> Cpu.execute cpu body ~ip0 ~len

(* Compile one decoded instruction into an [op].  The fallback calls
   {!Cpu.dispatch} — the interpreter's own execute stage — so every
   instruction is covered; the explicit cases below additionally
   pre-resolve operands for the forms that dominate guest code.  Each
   closure must reproduce {!Cpu.execute} for its instruction exactly
   (the jit-on/jit-off differential suite pins this). *)
let compile_op instr ~ip0 ~len : op =
  let event = Cpu.Executed instr in
  let ip1 = Word.mask (ip0 + len) in
  let writes_mem = writes_memory instr in
  let mk ?(shape = Plain) exec =
    { exec; base_event = event; op_ip = ip0; writes_mem; shape }
  in
  let generic ?shape () =
    mk ?shape (fun cpu -> Cpu.dispatch cpu instr ~ip0 ~len event)
  in
  match instr with
  | Nop -> mk (fun cpu -> cpu.Cpu.regs.ip <- ip1; event)
  | Mov_r16_imm (reg, v) ->
    let set = setter16 reg in
    mk (fun cpu ->
        let r = cpu.Cpu.regs in
        r.ip <- ip1; set r v; event)
  | Mov_r16_r16 (d, s) ->
    let get = getter16 s and set = setter16 d in
    mk (fun cpu ->
        let r = cpu.Cpu.regs in
        r.ip <- ip1; set r (get r); event)
  | Mov_r16_mem (d, m) ->
    let ea = ea_fn m and set = setter16 d in
    mk (fun cpu ->
        let r = cpu.Cpu.regs in
        r.ip <- ip1;
        set r (Memory.read_word cpu.Cpu.mem (ea r));
        event)
  | Mov_mem_r16 (m, s) ->
    let ea = ea_fn m and get = getter16 s in
    mk (fun cpu ->
        let r = cpu.Cpu.regs in
        r.ip <- ip1;
        Memory.write_word cpu.Cpu.mem (ea r) (get r);
        event)
  | Mov_mem_imm (m, v) ->
    let ea = ea_fn m in
    mk (fun cpu ->
        let r = cpu.Cpu.regs in
        r.ip <- ip1;
        Memory.write_word cpu.Cpu.mem (ea r) v;
        event)
  | Alu_r16_r16 (op, d, s) ->
    let get_d = getter16 d and get_s = getter16 s in
    (match op with
    | Cmp | Test ->
      mk (fun cpu ->
          let r = cpu.Cpu.regs in
          r.ip <- ip1;
          ignore (Cpu.alu16 cpu op (get_d r) (get_s r));
          event)
    | _ ->
      let set = setter16 d in
      mk (fun cpu ->
          let r = cpu.Cpu.regs in
          r.ip <- ip1;
          set r (Cpu.alu16 cpu op (get_d r) (get_s r));
          event))
  | Alu_r16_imm (op, d, v) ->
    let get = getter16 d in
    (match op with
    | Cmp | Test ->
      mk (fun cpu ->
          let r = cpu.Cpu.regs in
          r.ip <- ip1;
          ignore (Cpu.alu16 cpu op (get r) v);
          event)
    | _ ->
      let set = setter16 d in
      mk (fun cpu ->
          let r = cpu.Cpu.regs in
          r.ip <- ip1;
          set r (Cpu.alu16 cpu op (get r) v);
          event))
  | Alu_r16_mem (op, d, m) ->
    let get = getter16 d and ea = ea_fn m in
    (match op with
    | Cmp | Test ->
      mk (fun cpu ->
          let r = cpu.Cpu.regs in
          r.ip <- ip1;
          ignore (Cpu.alu16 cpu op (get r) (Memory.read_word cpu.Cpu.mem (ea r)));
          event)
    | _ ->
      let set = setter16 d in
      mk (fun cpu ->
          let r = cpu.Cpu.regs in
          r.ip <- ip1;
          set r (Cpu.alu16 cpu op (get r) (Memory.read_word cpu.Cpu.mem (ea r)));
          event))
  | Inc_r16 reg ->
    let get = getter16 reg and set = setter16 reg in
    mk (fun cpu ->
        let r = cpu.Cpu.regs in
        r.ip <- ip1;
        let p = Word.add_packed (get r) 1 in
        let result = Word.packed_result p in
        set r result;
        let psw = Flags.of_result r.psw result in
        r.psw <- Flags.set psw Flags.Overflow (Word.packed_overflow p);
        event)
  | Dec_r16 reg ->
    let get = getter16 reg and set = setter16 reg in
    mk (fun cpu ->
        let r = cpu.Cpu.regs in
        r.ip <- ip1;
        let p = Word.sub_packed (get r) 1 in
        let result = Word.packed_result p in
        set r result;
        let psw = Flags.of_result r.psw result in
        r.psw <- Flags.set psw Flags.Overflow (Word.packed_overflow p);
        event)
  | Push_r16 reg ->
    let get = getter16 reg in
    mk (fun cpu ->
        let r = cpu.Cpu.regs in
        r.ip <- ip1;
        Cpu.push cpu (get r);
        event)
  | Pop_r16 reg ->
    let set = setter16 reg in
    mk (fun cpu ->
        let r = cpu.Cpu.regs in
        r.ip <- ip1;
        set r (Cpu.pop cpu);
        event)
  | Lea (d, m) ->
    (* Address arithmetic without the segment: resolve base at compile
       time like {!ea_fn} but keep the 16-bit offset. *)
    let set = setter16 d in
    let disp = m.disp in
    let base : Registers.t -> int =
      (match m.base with
      | No_base -> (fun _ -> 0)
      | Base_bx -> (fun r -> r.bx)
      | Base_si -> (fun r -> r.si)
      | Base_di -> (fun r -> r.di)
      | Base_bp -> (fun r -> r.bp)
      | Base_bx_si -> (fun r -> r.bx + r.si)
      | Base_bx_di -> (fun r -> r.bx + r.di))
    in
    mk (fun cpu ->
        let r = cpu.Cpu.regs in
        r.ip <- ip1;
        set r (base r + disp);
        event)
  | Cli ->
    mk (fun cpu ->
        let r = cpu.Cpu.regs in
        r.ip <- ip1;
        r.psw <- Flags.set r.psw Flags.Interrupt false;
        event)
  | Sti ->
    mk (fun cpu ->
        let r = cpu.Cpu.regs in
        r.ip <- ip1;
        r.psw <- Flags.set r.psw Flags.Interrupt true;
        event)
  | Jmp target ->
    mk (fun cpu -> cpu.Cpu.regs.ip <- target; event)
  | Jcc (c, target) ->
    mk (fun cpu ->
        let r = cpu.Cpu.regs in
        r.ip <- (if Cpu.cond_holds cpu c then target else ip1);
        event)
  | Loop target ->
    let shape = if target = ip0 then Self_loop ip1 else Plain in
    mk ~shape (fun cpu ->
        let r = cpu.Cpu.regs in
        r.cx <- Word.pred r.cx;
        r.ip <- (if r.cx <> 0 then target else ip1);
        event)
  | Call target ->
    mk (fun cpu ->
        Cpu.push cpu ip1;
        cpu.Cpu.regs.ip <- target;
        event)
  | Ret ->
    mk (fun cpu -> cpu.Cpu.regs.ip <- Cpu.pop cpu; event)
  | Invalid _ ->
    (* #UD, entered without raising; [service] overwrites ip. *)
    mk (fun cpu -> Cpu.take_exception cpu Cpu.vec_invalid_opcode ~return_ip:ip0)
  | Rep body -> generic ~shape:(Rep_string (string_unit body ~ip0 ~len, ip1)) ()
  | In_ _ | Out _ | In_dx _ | Out_dx _ -> generic ~shape:Port_io ()
  | _ -> generic ()

(* --- block discovery -------------------------------------------------- *)

(* Compile the straight-line run starting at the current cs:ip.  Returns
   [None] when even the first instruction's decode window is not linear
   (16-bit or 20-bit wrap) — those positions always take the
   interpreter path. *)
let build t cpu =
  let r = cpu.Cpu.regs in
  let mem = cpu.Cpu.mem in
  let cs = r.cs in
  let start_ip = r.ip in
  let fetch pos =
    Memory.read_byte mem (Addr.physical ~seg:cs ~off:(Word.mask pos))
  in
  if start_ip > linear_ip_limit then None
  else begin
    let start_pa = Addr.physical ~seg:cs ~off:start_ip in
    if start_pa > linear_pa_limit then None
    else begin
      let ops = ref [] in
      let count = ref 0 in
      let ip = ref start_ip in
      let last_pa = ref start_pa in
      let continue_ = ref true in
      while !continue_ do
        if !count >= max_block_ops || !ip > linear_ip_limit then
          continue_ := false
        else begin
          let pa = Addr.physical ~seg:cs ~off:!ip in
          (* Keep the whole span linear and within the byte cap; the +1
             leaves room for a rep prefix exceeding [Codec.max_length]. *)
          if
            pa < start_pa
            || pa > linear_pa_limit
            || pa - start_pa + Codec.max_length + 1 > max_block_bytes
          then continue_ := false
          else begin
            let instr, len = Codec.decode ~fetch ~pos:!ip in
            ops := compile_op instr ~ip0:!ip ~len :: !ops;
            incr count;
            ip := !ip + len;
            last_pa := pa;
            if is_terminator instr then continue_ := false
          end
        end
      done;
      match !ops with
      | [] -> None
      | rev_ops ->
        let ops = Array.of_list (List.rev rev_ops) in
        let nops = Array.length ops in
        let n_plain =
          match ops.(nops - 1).shape with Plain -> nops | _ -> nops - 1
        in
        (* The guarded window must cover every byte the decoder may have
           {e examined}, not just the bytes it consumed: an opcode with
           an invalid operand byte decodes to [Invalid] of length 1
           only after reading past it, so a later write to that operand
           byte must condemn the block.  Over-approximate with a full
           decode window after the last opcode byte (clamped at the end
           of memory; the build guard above kept it within the byte
           cap, hence within two pages). *)
        let window_end =
          min Addr.memory_size (!last_pa + Codec.max_length + 1)
        in
        let span = window_end - start_pa in
        let bytes = Memory.dump mem ~base:start_pa ~len:span in
        let page0 = start_pa lsr page_shift in
        let page1 = (start_pa + span - 1) lsr page_shift in
        let b =
          { ops; n_ops = nops; n_plain; start_pa; span; b_cs = cs; bytes;
            page0; page1;
            g0 = Array.unsafe_get t.gens page0;
            g1 = Array.unsafe_get t.gens page1 }
        in
        if lookup t start_pa != dummy_block then
          t.retranslations <- t.retranslations + 1;
        let page = start_pa lsr page_shift in
        if t.pages.(page) == empty_page then
          t.pages.(page) <- Array.make page_size dummy_block;
        t.pages.(page).(start_pa land (page_size - 1)) <- b;
        t.built <- t.built + 1;
        Some b
    end
  end

(* Make [b] the cursor, positioned at its first op. *)
let enter t b =
  t.cur <- b;
  t.cur_ix <- 0;
  Array.unsafe_get b.ops 0

(* The op to execute at the current cs:ip, advancing nothing.  Fast
   path: the cursor (the block being run straight through) still
   matches.  Returns [no_op] when the position is uncompilable. *)
let current_op t cpu =
  let r = cpu.Cpu.regs in
  let mem = cpu.Cpu.mem in
  let b = t.cur in
  let ix = t.cur_ix in
  if
    ix < b.n_ops
    && b.b_cs = r.cs
    && (Array.unsafe_get b.ops ix).op_ip = r.ip
    && (fresh t b || revalidate t b mem)
  then Array.unsafe_get b.ops ix
  else if r.ip > linear_ip_limit then no_op
  else begin
    let pa = Addr.physical ~seg:r.cs ~off:r.ip in
    if pa > linear_pa_limit then no_op
    else begin
      let b = lookup t pa in
      (* An empty slot's cs (-1) matches no cs. *)
      if b.b_cs = r.cs && (fresh t b || revalidate t b mem) then enter t b
      else match build t cpu with Some b -> enter t b | None -> no_op
    end
  end

(* --- stepping --------------------------------------------------------- *)

let create mem =
  let rec t =
    { pages = Array.make page_count empty_page;
      gens = Memory.unsafe_generations mem;
      cur = dummy_block; cur_ix = 0;
      built = 0; retranslations = 0;
      block_ticks = 0; loop_ticks = 0; burst_ticks = 0;
      (* The compiled op at cs:ip, or the interpreter's raw decode
         where nothing compiles. *)
      execute =
        (fun cpu ->
          let op = current_op t cpu in
          if op == no_op then Cpu.exec_one cpu
          else begin
            t.cur_ix <- t.cur_ix + 1;
            t.block_ticks <- t.block_ticks + 1;
            op.exec cpu
          end) }
  in
  t

(* One architectural clock tick: {!Cpu.step}'s reset, NMI-counter and
   interrupt logic around the block table's execute stage. *)
let step_cpu t cpu = Cpu.step_with cpu t.execute

(* The device-free block loop, run inside a joint quiescence window of
   [fuel] ticks: no device does anything machine-visible and no pin can
   be raised (nothing but devices and port handlers raise them), so
   pins go unpolled, [hlt] idles in O(1), self-loops batch, and [rep]
   strings run as bursts.  Returns the ticks run;
   fewer than [fuel] means the next tick needs the per-tick path: a
   port-I/O op or an uncompilable position. *)
let run_window t cpu ~(c : Tick_counters.t) ~fuel =
  let r = cpu.Cpu.regs in
  let i = ref 0 in
  let stop = ref false in
  while (not !stop) && !i < fuel do
    if cpu.Cpu.halted then begin
      let n = fuel - !i in
      batch_time cpu n;
      c.Tick_counters.ticks <- c.Tick_counters.ticks + n;
      c.Tick_counters.idle <- c.Tick_counters.idle + n;
      i := fuel
    end
    else begin
      let op = current_op t cpu in
      if op == no_op then stop := true
      else
        match op.shape with
        | Port_io -> stop := true
        | Self_loop ip1 ->
          (* Nothing can rewrite the loop's bytes or raise a pin
             mid-burst, so the countdown is one closed-form move. *)
          let cx0 = r.cx in
          let iters = if cx0 = 0 then 0x10000 else cx0 in
          let rem = fuel - !i in
          let k = if iters <= rem then iters else rem in
          batch_time cpu k;
          r.cx <- (cx0 - k) land 0xffff;
          if iters <= rem then begin
            r.ip <- ip1;
            t.cur_ix <- t.cur_ix + 1
          end;
          t.block_ticks <- t.block_ticks + k;
          t.loop_ticks <- t.loop_ticks + k;
          i := !i + k;
          c.Tick_counters.ticks <- c.Tick_counters.ticks + k;
          c.Tick_counters.executed <- c.Tick_counters.executed + k
        | Rep_string (unit, ip1) ->
          (* One iteration per tick, as {!Cpu.execute} does, without the
             cursor re-match between them.  A write that changes the
             block's own bytes ends the burst: the next tick re-decodes
             at ip, like the interpreter.  Entered with cx = 0, the op
             is one tick that falls through. *)
          let b = t.cur in
          let room = fuel - !i in
          let k = ref 0 in
          while
            !k < room && r.cx <> 0
            && (!k = 0 || fresh t b || revalidate t b cpu.Cpu.mem)
          do
            unit cpu;
            r.cx <- r.cx - 1;
            incr k
          done;
          if r.cx = 0 then begin
            r.ip <- ip1;
            t.cur_ix <- t.cur_ix + 1
          end;
          let k = if !k = 0 then 1 else !k in
          batch_time cpu k;
          t.block_ticks <- t.block_ticks + k;
          t.burst_ticks <- t.burst_ticks + k;
          i := !i + k;
          c.Tick_counters.ticks <- c.Tick_counters.ticks + k;
          c.Tick_counters.executed <- c.Tick_counters.executed + k
        | Plain ->
          let b = t.cur in
          let ops = b.ops in
          let n = b.n_plain in
          let fuel = ref (fuel - !i) in
          let ix = ref t.cur_ix in
          let k = ref 0 in
          let faults = ref 0 in
          let stop = ref false in
          while (not !stop) && !ix < n && !fuel > 0 do
            let op = Array.unsafe_get ops !ix in
            tick_time cpu;
            let ev = op.exec cpu in
            incr k;
            incr ix;
            decr fuel;
            if ev != op.base_event then begin
              incr faults;
              (* A fault that vectors to this block's first op while
                 its bytes are unchanged: re-enter it, as the lookup
                 would. *)
              if
                b.b_cs = r.cs
                && (Array.unsafe_get ops 0).op_ip = r.ip
                && fresh t b
              then ix := 0
              else stop := true
            end
            else if op.writes_mem && not (fresh t b) then stop := true
          done;
          t.cur_ix <- !ix;
          t.block_ticks <- t.block_ticks + !k;
          i := !i + !k;
          c.Tick_counters.ticks <- c.Tick_counters.ticks + !k;
          c.Tick_counters.executed <- c.Tick_counters.executed + !k - !faults;
          c.Tick_counters.exceptions <- c.Tick_counters.exceptions + !faults
    end
  done;
  !i

(* The one quiet loop.  Each round takes the joint quiescence window —
   the smallest {!Device.quiescent} over all devices, [max_int] with
   none, 0 while a pin is pending — and runs the device-free loop
   inside it, then applies the ticks it ran to every device at once
   with {!Device.advance}.  A window that stops early, or one of width
   0, hands the next tick to the ordinary per-tick path (devices, then
   {!step_cpu}), so port handlers and pins see exactly the per-tick
   device state. *)
let run_quiet t cpu ~(devices : Device.t array) ~counters:c ~budget =
  let ndev = Array.length devices in
  let i = ref 0 in
  while !i < budget do
    let win =
      if cpu.Cpu.reset_pin || cpu.Cpu.nmi_pin || cpu.Cpu.intr != None then 0
      else begin
        let w = ref max_int in
        for d = 0 to ndev - 1 do
          let q = (Array.unsafe_get devices d).Device.quiescent () in
          if q < !w then w := q
        done;
        !w
      end
    in
    let fuel = if win < budget - !i then win else budget - !i in
    let k = if fuel > 0 then run_window t cpu ~c ~fuel else 0 in
    if k > 0 then begin
      for d = 0 to ndev - 1 do
        (Array.unsafe_get devices d).Device.advance k
      done;
      i := !i + k
    end;
    if k < fuel || fuel = 0 then begin
      for d = 0 to ndev - 1 do
        (Array.unsafe_get devices d).Device.tick cpu
      done;
      Tick_counters.note c (step_cpu t cpu);
      incr i
    end
  done
