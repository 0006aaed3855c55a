type nmi_dispatch = Hardwired_idt of int | Via_idtr

type config = {
  nmi_counter_enabled : bool;
  nmi_counter_max : int;
  nmi_dispatch : nmi_dispatch;
  reset_vector : Word.t * Word.t;
}

let default_config =
  { nmi_counter_enabled = true;
    nmi_counter_max = 200_000;
    nmi_dispatch = Hardwired_idt 0xF0000;
    reset_vector = (0xF000, 0x0000) }

type io = {
  io_in : int -> Instruction.width -> int;
  io_out : int -> Instruction.width -> int -> unit;
}

type event =
  | Executed of Instruction.t
  | Took_interrupt of { vector : int; nmi : bool }
  | Took_exception of int
  | Halted_idle
  | Did_reset

type t = {
  regs : Registers.t;
  mem : Memory.t;
  config : config;
  mutable idtr : int;
  mutable nmi_pin : bool;
  mutable in_nmi : bool;
  mutable intr : int option;
  mutable reset_pin : bool;
  mutable halted : bool;
  mutable io : io;
  mutable steps : int;
  mutable on_trap : event -> unit;
}

let vec_divide_error = 0
let vec_nmi = 2
let vec_invalid_opcode = 6

let null_io = { io_in = (fun _ _ -> 0); io_out = (fun _ _ _ -> ()) }

let create ?(config = default_config) mem =
  { regs = Registers.create (); mem; config; idtr = 0; nmi_pin = false;
    in_nmi = false; intr = None; reset_pin = false; halted = false;
    io = null_io; steps = 0; on_trap = ignore }

let reset cpu =
  let r = cpu.regs in
  let cs, ip = cpu.config.reset_vector in
  r.ax <- 0; r.bx <- 0; r.cx <- 0; r.dx <- 0;
  r.si <- 0; r.di <- 0; r.sp <- 0; r.bp <- 0;
  r.ds <- 0; r.es <- 0; r.ss <- 0; r.fs <- 0; r.gs <- 0;
  r.cs <- cs; r.ip <- ip;
  r.psw <- Flags.initial;
  r.nmi_counter <- 0;
  cpu.in_nmi <- false;
  cpu.halted <- false;
  cpu.reset_pin <- false

let raise_nmi cpu = cpu.nmi_pin <- true
let raise_intr cpu vector = cpu.intr <- Some vector

(* --- memory helpers ------------------------------------------------- *)

let effective_address cpu (m : Instruction.mem) =
  let r = cpu.regs in
  let base_value =
    match m.Instruction.base with
    | Instruction.No_base -> 0
    | Instruction.Base_bx -> r.bx
    | Instruction.Base_si -> r.si
    | Instruction.Base_di -> r.di
    | Instruction.Base_bp -> r.bp
    | Instruction.Base_bx_si -> Word.mask (r.bx + r.si)
    | Instruction.Base_bx_di -> Word.mask (r.bx + r.di)
  in
  let seg =
    match m.Instruction.seg_override with
    | Some s -> Registers.get_sreg r s
    | None -> Registers.get_sreg r (Instruction.default_segment m.Instruction.base)
  in
  Addr.physical ~seg ~off:(Word.mask (base_value + m.Instruction.disp))

let read_mem16 cpu m = Memory.read_word cpu.mem (effective_address cpu m)
let write_mem16 cpu m v = Memory.write_word cpu.mem (effective_address cpu m) v
let read_mem8 cpu m = Memory.read_byte cpu.mem (effective_address cpu m)
let write_mem8 cpu m v = Memory.write_byte cpu.mem (effective_address cpu m) v

(* The stack's word and address arithmetic is written out: the default
   (dev) build compiles every module [-opaque], so [Word.mask] and
   [Addr.physical] would each be a call, three times per exception
   entry.  The memory's word paths wrap the physical address. *)
let push cpu v =
  let r = cpu.regs in
  let sp = (r.sp - 2) land 0xffff in
  r.sp <- sp;
  Memory.write_word cpu.mem ((r.ss lsl 4) + sp) v

let pop cpu =
  let r = cpu.regs in
  let v = Memory.read_word cpu.mem ((r.ss lsl 4) + r.sp) in
  r.sp <- (r.sp + 2) land 0xffff;
  v

(* --- interrupt dispatch --------------------------------------------- *)

let service cpu vector ~nmi ~return_ip =
  let r = cpu.regs in
  push cpu r.psw;
  push cpu r.cs;
  push cpu return_ip;
  r.psw <- Flags.set r.psw Flags.Interrupt false;
  if nmi then begin
    if cpu.config.nmi_counter_enabled then
      r.nmi_counter <- cpu.config.nmi_counter_max
    else cpu.in_nmi <- true
  end;
  let base =
    match (nmi, cpu.config.nmi_dispatch) with
    | true, Hardwired_idt fixed -> fixed
    | true, Via_idtr | false, _ -> cpu.idtr
  in
  let entry = base + (4 * vector) in
  r.ip <- Memory.read_word cpu.mem entry;
  r.cs <- Memory.read_word cpu.mem (entry + 2);
  cpu.halted <- false

exception Fault of int
(* Machine exception raised mid-execution; vectors through the IDT. *)

(* --- flags ----------------------------------------------------------- *)

let set_logic_flags cpu result =
  let r = cpu.regs in
  let psw = Flags.of_result r.psw result in
  let psw = Flags.set psw Flags.Carry false in
  r.psw <- Flags.set psw Flags.Overflow false

let set_logic_flags8 cpu result =
  let r = cpu.regs in
  let psw = Flags.of_result8 r.psw result in
  let psw = Flags.set psw Flags.Carry false in
  r.psw <- Flags.set psw Flags.Overflow false

let set_arith_flags cpu result ~carry ~overflow =
  let r = cpu.regs in
  let psw = Flags.of_result r.psw result in
  let psw = Flags.set psw Flags.Carry carry in
  r.psw <- Flags.set psw Flags.Overflow overflow

(* ALU on 16-bit values: returns the result to store, or [-1] when the
   destination is left alone (cmp/test), and updates flags.  The [-1]
   sentinel (not an option) and the packed {!Word} primitives keep this
   allocation-free — it runs once per arithmetic instruction. *)
let no_store = -1

let[@inline] set_packed_flags cpu p =
  let result = Word.packed_result p in
  set_arith_flags cpu result
    ~carry:(Word.packed_carry p)
    ~overflow:(Word.packed_overflow p);
  result

let alu16 cpu op dst src =
  match op with
  | Instruction.Add -> set_packed_flags cpu (Word.add_packed dst src)
  | Instruction.Adc ->
    let carry = Flags.get cpu.regs.psw Flags.Carry in
    set_packed_flags cpu (Word.add_with_carry_packed dst src ~carry)
  | Instruction.Sub -> set_packed_flags cpu (Word.sub_packed dst src)
  | Instruction.Sbb ->
    let borrow = Flags.get cpu.regs.psw Flags.Carry in
    set_packed_flags cpu (Word.sub_with_borrow_packed dst src ~borrow)
  | Instruction.And ->
    let result = dst land src in
    set_logic_flags cpu result;
    result
  | Instruction.Or ->
    let result = dst lor src in
    set_logic_flags cpu result;
    result
  | Instruction.Xor ->
    let result = dst lxor src in
    set_logic_flags cpu result;
    result
  | Instruction.Cmp ->
    ignore (set_packed_flags cpu (Word.sub_packed dst src));
    no_store
  | Instruction.Test ->
    set_logic_flags cpu (dst land src);
    no_store

(* Same contract as {!alu16}: [-1] means no store-back. *)
let alu8 cpu op dst src =
  let wrap v = v land 0xff in
  match op with
  | Instruction.Add ->
    let sum = dst + src in
    let result = wrap sum in
    let psw = Flags.of_result8 cpu.regs.psw result in
    let psw = Flags.set psw Flags.Carry (sum > 0xff) in
    cpu.regs.psw <- psw;
    result
  | Instruction.Adc ->
    let sum = dst + src + if Flags.get cpu.regs.psw Flags.Carry then 1 else 0 in
    let result = wrap sum in
    let psw = Flags.of_result8 cpu.regs.psw result in
    let psw = Flags.set psw Flags.Carry (sum > 0xff) in
    cpu.regs.psw <- psw;
    result
  | Instruction.Sub ->
    let diff = dst - src in
    let result = wrap diff in
    let psw = Flags.of_result8 cpu.regs.psw result in
    let psw = Flags.set psw Flags.Carry (diff < 0) in
    cpu.regs.psw <- psw;
    result
  | Instruction.Sbb ->
    let diff = dst - src - if Flags.get cpu.regs.psw Flags.Carry then 1 else 0 in
    let result = wrap diff in
    let psw = Flags.of_result8 cpu.regs.psw result in
    let psw = Flags.set psw Flags.Carry (diff < 0) in
    cpu.regs.psw <- psw;
    result
  | Instruction.And ->
    let result = dst land src in
    set_logic_flags8 cpu result;
    result
  | Instruction.Or ->
    let result = dst lor src in
    set_logic_flags8 cpu result;
    result
  | Instruction.Xor ->
    let result = dst lxor src in
    set_logic_flags8 cpu result;
    result
  | Instruction.Cmp ->
    let diff = dst - src in
    let psw = Flags.of_result8 cpu.regs.psw (wrap diff) in
    cpu.regs.psw <- Flags.set psw Flags.Carry (diff < 0);
    no_store
  | Instruction.Test ->
    set_logic_flags8 cpu (dst land src);
    no_store

let cond_holds cpu cond =
  let flag f = Flags.get cpu.regs.psw f in
  let cf = flag Flags.Carry
  and zf = flag Flags.Zero
  and sf = flag Flags.Sign
  and off = flag Flags.Overflow in
  match cond with
  | Instruction.B -> cf
  | Instruction.NB -> not cf
  | Instruction.BE -> cf || zf
  | Instruction.A -> not (cf || zf)
  | Instruction.E -> zf
  | Instruction.NE -> not zf
  | Instruction.L -> sf <> off
  | Instruction.GE -> sf = off
  | Instruction.LE -> zf || sf <> off
  | Instruction.G -> (not zf) && sf = off
  | Instruction.S -> sf
  | Instruction.NS -> not sf
  | Instruction.O -> off
  | Instruction.NO -> not off

(* --- string operations ----------------------------------------------- *)

let string_delta cpu = function
  | Instruction.Byte -> if Flags.get cpu.regs.psw Flags.Direction then -1 else 1
  | Instruction.Word_ -> if Flags.get cpu.regs.psw Flags.Direction then -2 else 2

let exec_string_unit cpu op width =
  let r = cpu.regs in
  let delta = string_delta cpu width in
  (match (op, width) with
  | `Movs, Instruction.Byte ->
    let v = Memory.read_byte cpu.mem (Addr.physical ~seg:r.ds ~off:r.si) in
    Memory.write_byte cpu.mem (Addr.physical ~seg:r.es ~off:r.di) v;
    r.si <- Word.mask (r.si + delta);
    r.di <- Word.mask (r.di + delta)
  | `Movs, Instruction.Word_ ->
    let v = Memory.read_word cpu.mem (Addr.physical ~seg:r.ds ~off:r.si) in
    Memory.write_word cpu.mem (Addr.physical ~seg:r.es ~off:r.di) v;
    r.si <- Word.mask (r.si + delta);
    r.di <- Word.mask (r.di + delta)
  | `Stos, Instruction.Byte ->
    Memory.write_byte cpu.mem (Addr.physical ~seg:r.es ~off:r.di) (Word.low_byte r.ax);
    r.di <- Word.mask (r.di + delta)
  | `Stos, Instruction.Word_ ->
    Memory.write_word cpu.mem (Addr.physical ~seg:r.es ~off:r.di) r.ax;
    r.di <- Word.mask (r.di + delta)
  | `Lods, Instruction.Byte ->
    let v = Memory.read_byte cpu.mem (Addr.physical ~seg:r.ds ~off:r.si) in
    Registers.set8 r Registers.AL v;
    r.si <- Word.mask (r.si + delta)
  | `Lods, Instruction.Word_ ->
    let v = Memory.read_word cpu.mem (Addr.physical ~seg:r.ds ~off:r.si) in
    r.ax <- v;
    r.si <- Word.mask (r.si + delta))

let string_op_kind = function
  | Instruction.Movs w -> (`Movs, w)
  | Instruction.Stos w -> (`Stos, w)
  | Instruction.Lods w -> (`Lods, w)
  | _ -> assert false

(* --- execution -------------------------------------------------------- *)

let decode_at cpu =
  let r = cpu.regs in
  let fetch pos =
    Memory.read_byte cpu.mem (Addr.physical ~seg:r.cs ~off:(Word.mask pos))
  in
  Codec.decode ~fetch ~pos:r.ip

(* Execute [instr]; [ip0] is the instruction's own offset and [len] its
   encoded length.  [r.ip] has already been advanced to [ip0 + len]. *)
let execute cpu instr ~ip0 ~len =
  let r = cpu.regs in
  match instr with
  | Instruction.Mov_r16_imm (reg, v) -> Registers.set16 r reg v
  | Instruction.Mov_r8_imm (reg, v) -> Registers.set8 r reg v
  | Instruction.Mov_r16_r16 (d, s) -> Registers.set16 r d (Registers.get16 r s)
  | Instruction.Mov_sreg_r16 (d, s) -> Registers.set_sreg r d (Registers.get16 r s)
  | Instruction.Mov_r16_sreg (d, s) -> Registers.set16 r d (Registers.get_sreg r s)
  | Instruction.Mov_r16_mem (d, m) -> Registers.set16 r d (read_mem16 cpu m)
  | Instruction.Mov_mem_r16 (m, s) -> write_mem16 cpu m (Registers.get16 r s)
  | Instruction.Mov_mem_imm (m, v) -> write_mem16 cpu m v
  | Instruction.Mov_r8_mem (d, m) -> Registers.set8 r d (read_mem8 cpu m)
  | Instruction.Mov_mem_r8 (m, s) -> write_mem8 cpu m (Registers.get8 r s)
  | Instruction.Mov_sreg_mem (d, m) -> Registers.set_sreg r d (read_mem16 cpu m)
  | Instruction.Mov_mem_sreg (m, s) -> write_mem16 cpu m (Registers.get_sreg r s)
  | Instruction.Lea (d, m) ->
    let base_value =
      match m.Instruction.base with
      | Instruction.No_base -> 0
      | Instruction.Base_bx -> r.bx
      | Instruction.Base_si -> r.si
      | Instruction.Base_di -> r.di
      | Instruction.Base_bp -> r.bp
      | Instruction.Base_bx_si -> Word.mask (r.bx + r.si)
      | Instruction.Base_bx_di -> Word.mask (r.bx + r.di)
    in
    Registers.set16 r d (Word.mask (base_value + m.Instruction.disp))
  | Instruction.Xchg (a, b) ->
    let va = Registers.get16 r a and vb = Registers.get16 r b in
    Registers.set16 r a vb;
    Registers.set16 r b va
  | Instruction.Alu_r16_r16 (op, d, s) ->
    let result = alu16 cpu op (Registers.get16 r d) (Registers.get16 r s) in
    if result >= 0 then Registers.set16 r d result
  | Instruction.Alu_r16_imm (op, d, v) ->
    let result = alu16 cpu op (Registers.get16 r d) v in
    if result >= 0 then Registers.set16 r d result
  | Instruction.Alu_r16_mem (op, d, m) ->
    let result = alu16 cpu op (Registers.get16 r d) (read_mem16 cpu m) in
    if result >= 0 then Registers.set16 r d result
  | Instruction.Alu_mem_r16 (op, m, s) ->
    let result = alu16 cpu op (read_mem16 cpu m) (Registers.get16 r s) in
    if result >= 0 then write_mem16 cpu m result
  | Instruction.Alu_r8_r8 (op, d, s) ->
    let result = alu8 cpu op (Registers.get8 r d) (Registers.get8 r s) in
    if result >= 0 then Registers.set8 r d result
  | Instruction.Alu_r8_imm (op, d, v) ->
    let result = alu8 cpu op (Registers.get8 r d) v in
    if result >= 0 then Registers.set8 r d result
  | Instruction.Inc_r16 reg ->
    let p = Word.add_packed (Registers.get16 r reg) 1 in
    let result = Word.packed_result p in
    Registers.set16 r reg result;
    let psw = Flags.of_result r.psw result in
    r.psw <- Flags.set psw Flags.Overflow (Word.packed_overflow p)
  | Instruction.Dec_r16 reg ->
    let p = Word.sub_packed (Registers.get16 r reg) 1 in
    let result = Word.packed_result p in
    Registers.set16 r reg result;
    let psw = Flags.of_result r.psw result in
    r.psw <- Flags.set psw Flags.Overflow (Word.packed_overflow p)
  | Instruction.Neg_r16 reg ->
    let v = Registers.get16 r reg in
    let p = Word.sub_packed 0 v in
    let result = Word.packed_result p in
    Registers.set16 r reg result;
    set_arith_flags cpu result ~carry:(v <> 0)
      ~overflow:(Word.packed_overflow p)
  | Instruction.Not_r16 reg ->
    Registers.set16 r reg (Word.mask (lnot (Registers.get16 r reg)))
  | Instruction.Shl_r16 (reg, n) ->
    let v = Registers.get16 r reg in
    if n > 0 then begin
      let shifted = v lsl n in
      let result = Word.mask shifted in
      Registers.set16 r reg result;
      let carry = shifted land 0x10000 <> 0 in
      set_arith_flags cpu result ~carry ~overflow:false
    end
  | Instruction.Shr_r16 (reg, n) ->
    let v = Registers.get16 r reg in
    if n > 0 then begin
      let result = v lsr n in
      Registers.set16 r reg result;
      let carry = (v lsr (n - 1)) land 1 <> 0 in
      set_arith_flags cpu result ~carry ~overflow:false
    end
  | Instruction.Mul_r8 src ->
    let product = Registers.get8 r Registers.AL * Registers.get8 r src in
    r.ax <- Word.mask product;
    let upper_nonzero = Word.high_byte r.ax <> 0 in
    let psw = Flags.set r.psw Flags.Carry upper_nonzero in
    r.psw <- Flags.set psw Flags.Overflow upper_nonzero
  | Instruction.Mul_r16 src ->
    let product = r.ax * Registers.get16 r src in
    r.ax <- Word.mask product;
    r.dx <- Word.mask (product lsr 16);
    let upper_nonzero = r.dx <> 0 in
    let psw = Flags.set r.psw Flags.Carry upper_nonzero in
    r.psw <- Flags.set psw Flags.Overflow upper_nonzero
  | Instruction.Div_r8 src ->
    let divisor = Registers.get8 r src in
    if divisor = 0 then raise (Fault vec_divide_error);
    let quotient = r.ax / divisor and remainder = r.ax mod divisor in
    if quotient > 0xff then raise (Fault vec_divide_error);
    r.ax <- Word.of_bytes ~low:quotient ~high:remainder
  | Instruction.Div_r16 src ->
    let divisor = Registers.get16 r src in
    if divisor = 0 then raise (Fault vec_divide_error);
    let dividend = (r.dx lsl 16) lor r.ax in
    let quotient = dividend / divisor and remainder = dividend mod divisor in
    if quotient > 0xffff then raise (Fault vec_divide_error);
    r.ax <- quotient;
    r.dx <- remainder
  | Instruction.Push_r16 reg -> push cpu (Registers.get16 r reg)
  | Instruction.Push_imm v -> push cpu v
  | Instruction.Push_sreg s -> push cpu (Registers.get_sreg r s)
  | Instruction.Pop_r16 reg -> Registers.set16 r reg (pop cpu)
  | Instruction.Pop_sreg s -> Registers.set_sreg r s (pop cpu)
  | Instruction.Pushf -> push cpu r.psw
  | Instruction.Popf -> r.psw <- pop cpu
  | Instruction.Jmp target -> r.ip <- target
  | Instruction.Jmp_far (seg, off) ->
    r.cs <- seg;
    r.ip <- off
  | Instruction.Jcc (cond, target) -> if cond_holds cpu cond then r.ip <- target
  | Instruction.Call target ->
    push cpu r.ip;
    r.ip <- target
  | Instruction.Ret -> r.ip <- pop cpu
  | Instruction.Iret ->
    r.ip <- pop cpu;
    r.cs <- pop cpu;
    r.psw <- pop cpu;
    (* The paper's augmentation: iret re-arms NMI acceptance. *)
    r.nmi_counter <- 0;
    cpu.in_nmi <- false
  | Instruction.Int vector -> service cpu vector ~nmi:false ~return_ip:r.ip
  | Instruction.Loop target ->
    r.cx <- Word.pred r.cx;
    if r.cx <> 0 then r.ip <- target
  | Instruction.Movs _ | Instruction.Stos _ | Instruction.Lods _ ->
    exec_string_unit cpu (fst (string_op_kind instr)) (snd (string_op_kind instr))
  | Instruction.Rep body ->
    (* One iteration per clock tick, controlled by cx as in
       [19]{2/3.2-REP}; ip stays on the instruction until cx drains, so
       interrupts can preempt and resume the copy. *)
    if r.cx = 0 then ()
    else begin
      let kind, width = string_op_kind body in
      exec_string_unit cpu kind width;
      r.cx <- Word.pred r.cx;
      if r.cx <> 0 then r.ip <- ip0
    end
  | Instruction.In_ (width, port) -> (
    let v = cpu.io.io_in port width in
    match width with
    | Instruction.Byte -> Registers.set8 r Registers.AL v
    | Instruction.Word_ -> r.ax <- Word.mask v)
  | Instruction.Out (port, width) ->
    let v =
      match width with
      | Instruction.Byte -> Registers.get8 r Registers.AL
      | Instruction.Word_ -> r.ax
    in
    cpu.io.io_out port width v
  | Instruction.In_dx width -> (
    let v = cpu.io.io_in r.dx width in
    match width with
    | Instruction.Byte -> Registers.set8 r Registers.AL v
    | Instruction.Word_ -> r.ax <- Word.mask v)
  | Instruction.Out_dx width ->
    let v =
      match width with
      | Instruction.Byte -> Registers.get8 r Registers.AL
      | Instruction.Word_ -> r.ax
    in
    cpu.io.io_out r.dx width v
  | Instruction.Hlt -> cpu.halted <- true
  | Instruction.Nop -> ()
  | Instruction.Cli -> r.psw <- Flags.set r.psw Flags.Interrupt false
  | Instruction.Sti -> r.psw <- Flags.set r.psw Flags.Interrupt true
  | Instruction.Cld -> r.psw <- Flags.set r.psw Flags.Direction false
  | Instruction.Std -> r.psw <- Flags.set r.psw Flags.Direction true
  | Instruction.Clc -> r.psw <- Flags.set r.psw Flags.Carry false
  | Instruction.Stc -> r.psw <- Flags.set r.psw Flags.Carry true
  | Instruction.Invalid _ ->
    ignore len;
    raise (Fault vec_invalid_opcode)

(* The end of an interrupt or exception entry: the handler address is
   loaded, the handler has not run. *)
let trap cpu event =
  cpu.on_trap event;
  event

(* Entry events for every vector an [int] can name, built once so an
   entry allocates nothing.  A vector outside the table gets a fresh,
   equal value. *)
let exception_events = Array.init 256 (fun v -> Took_exception v)
let interrupt_events = Array.init 256 (fun vector -> Took_interrupt { vector; nmi = false })
let nmi_event = Took_interrupt { vector = vec_nmi; nmi = true }

let exception_event vector =
  if vector >= 0 && vector < 256 then Array.unsafe_get exception_events vector
  else Took_exception vector

let interrupt_event vector =
  if vector >= 0 && vector < 256 then Array.unsafe_get interrupt_events vector
  else Took_interrupt { vector; nmi = false }

(* Faults push the address of the faulting instruction. *)
let take_exception cpu vector ~return_ip =
  service cpu vector ~nmi:false ~return_ip;
  trap cpu (exception_event vector)

(* Advance past the instruction and run it.  [event] is the [Executed]
   value to return on normal completion, prebuilt by the caller. *)
let dispatch cpu instr ~ip0 ~len event =
  cpu.regs.ip <- Word.mask (ip0 + len);
  match execute cpu instr ~ip0 ~len with
  | () -> event
  | exception Fault vector -> take_exception cpu vector ~return_ip:ip0

(* Fetch-decode-execute from the raw bytes now in memory: the reference
   the block compiler is checked against. *)
let exec_one cpu =
  let ip0 = cpu.regs.ip in
  let instr, len = decode_at cpu in
  dispatch cpu instr ~ip0 ~len (Executed instr)

let nmi_acceptable cpu =
  if cpu.config.nmi_counter_enabled then cpu.regs.nmi_counter = 0
  else not cpu.in_nmi

(* One clock tick around a given execute stage: the interpreter's
   [exec_one], or the block compiler's table lookup. *)
let step_with cpu execute =
  cpu.steps <- cpu.steps + 1;
  if cpu.reset_pin then begin
    reset cpu;
    Did_reset
  end
  else begin
    (* The NMI counter is decremented on every clock tick (§2).  The
       physical register cannot hold more than its maximum, so an
       arbitrarily corrupted value is clamped — this bounds the time any
       state can mask NMIs. *)
    if cpu.config.nmi_counter_enabled then begin
      if cpu.regs.nmi_counter > cpu.config.nmi_counter_max then
        cpu.regs.nmi_counter <- cpu.config.nmi_counter_max;
      if cpu.regs.nmi_counter > 0 then
        cpu.regs.nmi_counter <- cpu.regs.nmi_counter - 1
    end;
    if cpu.nmi_pin && nmi_acceptable cpu then begin
      cpu.nmi_pin <- false;
      service cpu vec_nmi ~nmi:true ~return_ip:cpu.regs.ip;
      trap cpu nmi_event
    end
    else
      match cpu.intr with
      | Some vector when Flags.get cpu.regs.psw Flags.Interrupt ->
        cpu.intr <- None;
        service cpu vector ~nmi:false ~return_ip:cpu.regs.ip;
        trap cpu (interrupt_event vector)
      | Some _ | None ->
        if cpu.halted then Halted_idle else execute cpu
  end

let step cpu = step_with cpu exec_one
