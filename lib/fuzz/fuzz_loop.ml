module I = Ssx.Instruction
module Rng = Ssx_faults.Rng

type divergence = {
  program : Gen.program;
  original : Gen.program;
  seed : int64;
  shard : int;
  iter : int;
  tick : int;
  detail : string;
}

type summary = {
  programs : int;
  total_ticks : int;
  corpus_size : int;
  coverage_points : int;
  divergences : divergence list;
}

(* --- the trial image -------------------------------------------------
   Every IDT vector (and the hardwired NMI entry) points at a handler
   segment whose first instruction is [iret], so interrupts, [int n]
   and faults all service and return instead of wandering into zeroed
   memory.  Code loads at 64 KiB (segment 0x1000); the stack starts
   below it at 0000:F000. *)

let trial_code_base = 0x10000
let code_seg = 0x1000
let handler_seg = 0x0600
let handler_phys = handler_seg * 16
let nmi_idt_base = 0xF0000

(* Built eagerly: campaign workers on several domains read it, and a
   lazy value forced from two domains at once raises
   [CamlinternalLazy.Undefined]. *)
let base_image =
  let b = Bytes.make Ssx.Memory.size '\000' in
  let set_entry base vector =
    let e = base + (4 * vector) in
    (* offset 0, segment [handler_seg], little-endian words *)
    Bytes.set b e '\x00';
    Bytes.set b (e + 1) '\x00';
    Bytes.set b (e + 2) (Char.chr (handler_seg land 0xff));
    Bytes.set b (e + 3) (Char.chr ((handler_seg lsr 8) land 0xff))
  in
  for v = 0 to 255 do
    set_entry 0 v
  done;
  set_entry nmi_idt_base 2;
  Bytes.set b handler_phys '\x44' (* iret *);
  Bytes.unsafe_to_string b

(* --- trial state reset ------------------------------------------------ *)

(* A machine reused across trials, and its state at the start of every
   trial: [base_image] in memory, [sp] just below the code, [cs], [ds]
   and [es] at the code segment, every other register and flag zero.
   A trial restores that capture, which copies back only the pages the
   previous trial (or its code load) touched, then loads its code. *)
type trial_machine = { machine : Ssx.Machine.t; start : Ssx.Snapshot.t }

let trial_machine ?jit () =
  let machine = Ssx.Machine.create () in
  Option.iter (Ssx.Machine.set_jit machine) jit;
  Ssx.Memory.load_image (Ssx.Machine.memory machine) ~base:0 base_image;
  let r = (Ssx.Machine.cpu machine).Ssx.Cpu.regs in
  r.Ssx.Registers.sp <- 0xF000;
  r.Ssx.Registers.cs <- code_seg;
  r.Ssx.Registers.ds <- code_seg;
  r.Ssx.Registers.es <- code_seg;
  r.Ssx.Registers.psw <- 0;
  { machine; start = Ssx.Snapshot.capture machine }

let reset_machine { machine; start } (p : Gen.program) =
  Ssx.Snapshot.restore start machine;
  Ssx.Memory.load_image (Ssx.Machine.memory machine) ~base:trial_code_base
    p.Gen.code

let reset_ref (o : Ref_interp.t) (p : Gen.program) =
  Bytes.blit_string base_image 0 o.Ref_interp.mem 0
    Ssx.Memory.size;
  Bytes.blit_string p.Gen.code 0 o.Ref_interp.mem trial_code_base
    (String.length p.Gen.code);
  o.Ref_interp.ax <- 0;
  o.Ref_interp.bx <- 0;
  o.Ref_interp.cx <- 0;
  o.Ref_interp.dx <- 0;
  o.Ref_interp.si <- 0;
  o.Ref_interp.di <- 0;
  o.Ref_interp.sp <- 0xF000;
  o.Ref_interp.bp <- 0;
  o.Ref_interp.cs <- code_seg;
  o.Ref_interp.ds <- code_seg;
  o.Ref_interp.es <- code_seg;
  o.Ref_interp.ss <- 0;
  o.Ref_interp.fs <- 0;
  o.Ref_interp.gs <- 0;
  o.Ref_interp.ip <- 0;
  o.Ref_interp.psw <- 0;
  o.Ref_interp.nmi_counter <- 0;
  o.Ref_interp.idtr <- 0;
  o.Ref_interp.nmi_pin <- false;
  o.Ref_interp.in_nmi <- false;
  o.Ref_interp.intr <- None;
  o.Ref_interp.reset_pin <- false;
  o.Ref_interp.halted <- false;
  o.Ref_interp.steps <- 0

let prepare_machine p =
  let tm = trial_machine () in
  reset_machine tm p;
  tm.machine

(* --- lock-step comparison --------------------------------------------- *)

let event_matches (m_ev : Ssx.Cpu.event) (r_ev : Ref_interp.event) =
  match (m_ev, r_ev) with
  | Ssx.Cpu.Executed a, Ref_interp.Exec b -> I.equal a b
  | Ssx.Cpu.Took_interrupt a, Ref_interp.Interrupt b ->
    a.vector = b.vector && a.nmi = b.nmi
  | Ssx.Cpu.Took_exception a, Ref_interp.Exception b -> a = b
  | Ssx.Cpu.Halted_idle, Ref_interp.Idle -> true
  | Ssx.Cpu.Did_reset, Ref_interp.Reset -> true
  | _ -> false

let pp_cpu_event ppf = function
  | Ssx.Cpu.Executed i -> Format.fprintf ppf "exec %a" I.pp i
  | Ssx.Cpu.Took_interrupt { vector; nmi } ->
    Format.fprintf ppf "interrupt %d%s" vector (if nmi then " (nmi)" else "")
  | Ssx.Cpu.Took_exception v -> Format.fprintf ppf "exception %d" v
  | Ssx.Cpu.Halted_idle -> Format.fprintf ppf "idle"
  | Ssx.Cpu.Did_reset -> Format.fprintf ppf "reset"

(* First mismatching register/control field, if any.  Runs every tick
   of every trial: the matching case must not allocate, so this is an
   open-coded compare chain rather than a field list. *)
let state_mismatch m (o : Ref_interp.t) =
  let cpu = Ssx.Machine.cpu m in
  let r = cpu.Ssx.Cpu.regs in
  if r.Ssx.Registers.ax <> o.Ref_interp.ax then
    Some ("ax", r.Ssx.Registers.ax, o.Ref_interp.ax)
  else if r.Ssx.Registers.bx <> o.Ref_interp.bx then
    Some ("bx", r.Ssx.Registers.bx, o.Ref_interp.bx)
  else if r.Ssx.Registers.cx <> o.Ref_interp.cx then
    Some ("cx", r.Ssx.Registers.cx, o.Ref_interp.cx)
  else if r.Ssx.Registers.dx <> o.Ref_interp.dx then
    Some ("dx", r.Ssx.Registers.dx, o.Ref_interp.dx)
  else if r.Ssx.Registers.si <> o.Ref_interp.si then
    Some ("si", r.Ssx.Registers.si, o.Ref_interp.si)
  else if r.Ssx.Registers.di <> o.Ref_interp.di then
    Some ("di", r.Ssx.Registers.di, o.Ref_interp.di)
  else if r.Ssx.Registers.sp <> o.Ref_interp.sp then
    Some ("sp", r.Ssx.Registers.sp, o.Ref_interp.sp)
  else if r.Ssx.Registers.bp <> o.Ref_interp.bp then
    Some ("bp", r.Ssx.Registers.bp, o.Ref_interp.bp)
  else if r.Ssx.Registers.cs <> o.Ref_interp.cs then
    Some ("cs", r.Ssx.Registers.cs, o.Ref_interp.cs)
  else if r.Ssx.Registers.ds <> o.Ref_interp.ds then
    Some ("ds", r.Ssx.Registers.ds, o.Ref_interp.ds)
  else if r.Ssx.Registers.es <> o.Ref_interp.es then
    Some ("es", r.Ssx.Registers.es, o.Ref_interp.es)
  else if r.Ssx.Registers.ss <> o.Ref_interp.ss then
    Some ("ss", r.Ssx.Registers.ss, o.Ref_interp.ss)
  else if r.Ssx.Registers.fs <> o.Ref_interp.fs then
    Some ("fs", r.Ssx.Registers.fs, o.Ref_interp.fs)
  else if r.Ssx.Registers.gs <> o.Ref_interp.gs then
    Some ("gs", r.Ssx.Registers.gs, o.Ref_interp.gs)
  else if r.Ssx.Registers.ip <> o.Ref_interp.ip then
    Some ("ip", r.Ssx.Registers.ip, o.Ref_interp.ip)
  else if r.Ssx.Registers.psw <> o.Ref_interp.psw then
    Some ("psw", r.Ssx.Registers.psw, o.Ref_interp.psw)
  else if r.Ssx.Registers.nmi_counter <> o.Ref_interp.nmi_counter then
    Some
      ("nmi_counter", r.Ssx.Registers.nmi_counter, o.Ref_interp.nmi_counter)
  else if cpu.Ssx.Cpu.halted <> o.Ref_interp.halted then
    Some
      ( "halted",
        Bool.to_int cpu.Ssx.Cpu.halted,
        Bool.to_int o.Ref_interp.halted )
  else if cpu.Ssx.Cpu.in_nmi <> o.Ref_interp.in_nmi then
    Some
      ( "in_nmi",
        Bool.to_int cpu.Ssx.Cpu.in_nmi,
        Bool.to_int o.Ref_interp.in_nmi )
  else if cpu.Ssx.Cpu.nmi_pin <> o.Ref_interp.nmi_pin then
    Some
      ( "nmi_pin",
        Bool.to_int cpu.Ssx.Cpu.nmi_pin,
        Bool.to_int o.Ref_interp.nmi_pin )
  else None

let memory_mismatch m (o : Ref_interp.t) =
  (* Zero-copy: one memcmp of the live backing store against the
     oracle's image, instead of dumping a 1 MiB copy per trial. *)
  let image = Ssx.Memory.unsafe_contents (Ssx.Machine.memory m) in
  let oracle = o.Ref_interp.mem in
  if Bytes.equal image oracle then None
  else begin
    let addr = ref 0 in
    while Bytes.unsafe_get image !addr = Bytes.unsafe_get oracle !addr do
      incr addr
    done;
    Some
      (Printf.sprintf "memory at 0x%05X: machine 0x%02X, oracle 0x%02X"
         !addr
         (Char.code (Bytes.get image !addr))
         (Char.code (Bytes.get oracle !addr)))
  end

(* --- coverage signature ----------------------------------------------
   An execution signature cheap enough to compute every tick: the
   opcode byte of the executed instruction (interrupt/exception/idle/
   reset get ids above the byte range) paired with its predecessor,
   plus the transition of the 7 architectural flag bits. *)

let id_interrupt_nmi = 256
let id_interrupt = 257
let id_exception = 258
let id_idle = 259
let id_reset = 260
let id_start = 261
let id_count = 262
let bigram_bits = id_count * id_count
let flag_bits = 1 lsl 14
let signature_bits = bigram_bits + flag_bits

(* [fetch_byte] is the opcode byte the oracle is about to fetch
   (pre-tick cs:ip), which for an [Executed] event is exactly the first
   byte {!Ssx.Codec.encode} would emit — read from memory instead of
   re-encoding the instruction every tick. *)
let event_id ~fetch_byte = function
  | Ssx.Cpu.Executed _ -> fetch_byte
  | Ssx.Cpu.Took_interrupt { nmi = true; _ } -> id_interrupt_nmi
  | Ssx.Cpu.Took_interrupt _ -> id_interrupt
  | Ssx.Cpu.Took_exception _ -> id_exception
  | Ssx.Cpu.Halted_idle -> id_idle
  | Ssx.Cpu.Did_reset -> id_reset

(* The 7 flag bits the ISA defines, squeezed together. *)
let compress_psw psw =
  (psw land 1)
  lor ((psw lsr 2) land 1 lsl 1)
  lor ((psw lsr 6) land 1 lsl 2)
  lor ((psw lsr 7) land 1 lsl 3)
  lor ((psw lsr 9) land 1 lsl 4)
  lor ((psw lsr 10) land 1 lsl 5)
  lor ((psw lsr 11) land 1 lsl 6)

type coverage = { bits : Bytes.t; mutable points : int }

let coverage_create () =
  { bits = Bytes.make ((signature_bits + 7) / 8) '\000'; points = 0 }

(* Returns how many of [indices.(0 .. n-1)] were new, setting them. *)
let coverage_merge cov indices n =
  let fresh = ref 0 in
  for k = 0 to n - 1 do
    let i = Array.unsafe_get indices k in
    let cell = i lsr 3 and bit = 1 lsl (i land 7) in
    let old = Char.code (Bytes.get cov.bits cell) in
    if old land bit = 0 then begin
      Bytes.set cov.bits cell (Char.chr (old lor bit));
      incr fresh
    end
  done;
  cov.points <- cov.points + !fresh;
  !fresh

(* --- one differential trial ------------------------------------------- *)

type trial = {
  failure : (int * string) option;
  indices : int array;  (* signature indices, 2 per clean tick *)
  n_indices : int;
}

let run_trial tm o (p : Gen.program) =
  reset_machine tm p;
  reset_ref o p;
  let m = tm.machine in
  let cpu = Ssx.Machine.cpu m in
  let schedule = ref p.Gen.schedule in
  (* One flat signature buffer per trial (2 slots per clean tick)
     instead of two cons cells per tick. *)
  let indices = Array.make (2 * p.Gen.steps) 0 in
  let n_indices = ref 0 in
  let prev_id = ref id_start in
  let prev_flags = ref 0 in
  let failure = ref None in
  let tick = ref 0 in
  while !failure = None && !tick < p.Gen.steps do
    (match !schedule with
    | next :: rest when next = !tick ->
      Ssx.Cpu.raise_nmi cpu;
      Ref_interp.raise_nmi o;
      schedule := rest
    | _ -> ());
    let fetch_byte =
      Char.code
        (Bytes.unsafe_get o.Ref_interp.mem
           (Ssx.Addr.physical ~seg:o.Ref_interp.cs ~off:o.Ref_interp.ip))
    in
    let m_ev = Ssx.Machine.tick m in
    let r_ev = Ref_interp.step o in
    if not (event_matches m_ev r_ev) then
      failure :=
        Some
          ( !tick,
            Format.asprintf "event: machine %a, oracle %a" pp_cpu_event m_ev
              Ref_interp.pp_event r_ev )
    else begin
      (match state_mismatch m o with
      | Some (name, mv, ov) ->
        failure :=
          Some
            ( !tick,
              Format.asprintf "%s after %a: machine 0x%04X, oracle 0x%04X"
                name pp_cpu_event m_ev mv ov )
      | None -> ());
      let id = event_id ~fetch_byte m_ev in
      indices.(!n_indices) <- (!prev_id * id_count) + id;
      let flags = compress_psw cpu.Ssx.Cpu.regs.Ssx.Registers.psw in
      indices.(!n_indices + 1) <-
        bigram_bits + ((!prev_flags lsl 7) lor flags);
      n_indices := !n_indices + 2;
      prev_id := id;
      prev_flags := flags
    end;
    incr tick
  done;
  (match !failure with
  | None -> (
    match memory_mismatch m o with
    | Some detail -> failure := Some (p.Gen.steps, detail)
    | None -> ())
  | Some _ -> ());
  { failure = !failure; indices; n_indices = !n_indices }

let run_program ?jit p =
  let o = Ref_interp.create () in
  (run_trial (trial_machine ?jit ()) o p).failure

(* --- shrinking -------------------------------------------------------- *)

let shrink_budget = 800

let drop_block code i n =
  String.sub code 0 i ^ String.sub code (i + n) (String.length code - i - n)

let shrink ~reproduces p =
  let evals = ref 0 in
  let try_p candidate =
    if !evals >= shrink_budget then false
    else begin
      incr evals;
      reproduces candidate
    end
  in
  (* Remove blocks at halving granularity while the divergence holds. *)
  let best = ref p in
  let block = ref (max 1 (String.length p.Gen.code / 2)) in
  while !block >= 1 do
    let i = ref 0 in
    while !i + !block <= String.length !best.Gen.code do
      let code = drop_block !best.Gen.code !i !block in
      if String.length code > 0 then begin
        let candidate = { !best with Gen.code } in
        if try_p candidate then best := candidate else i := !i + !block
      end
      else i := !i + !block
    done;
    block := if !block = 1 then 0 else !block / 2
  done;
  (* Normalise surviving bytes toward nop then zero. *)
  let code = Bytes.of_string !best.Gen.code in
  for i = 0 to Bytes.length code - 1 do
    let original = Bytes.get code i in
    List.iter
      (fun replacement ->
        if Bytes.get code i = original && original <> replacement then begin
          Bytes.set code i replacement;
          let candidate =
            { !best with Gen.code = Bytes.to_string code }
          in
          if try_p candidate then best := candidate
          else Bytes.set code i original
        end)
      [ '\x70'; '\x00' ]
  done;
  (* Thin the NMI schedule. *)
  let rec thin_schedule () =
    let sched = !best.Gen.schedule in
    let dropped =
      List.find_opt
        (fun t ->
          let candidate =
            { !best with
              Gen.schedule = List.filter (fun t' -> t' <> t) sched }
          in
          if try_p candidate then begin
            best := candidate;
            true
          end
          else false)
        sched
    in
    if dropped <> None then thin_schedule ()
  in
  thin_schedule ();
  !best

(* --- reproducers ------------------------------------------------------ *)

let reproducer_text d =
  let buf = Buffer.create 1024 in
  let p = d.program in
  Buffer.add_string buf "; ssx16 differential fuzzer reproducer\n";
  Buffer.add_string buf
    (Printf.sprintf "; seed: 0x%016Lx  shard: %d  iter: %d\n" d.seed d.shard
       d.iter);
  Buffer.add_string buf
    (Printf.sprintf "; divergence at tick %d: %s\n" d.tick d.detail);
  Buffer.add_string buf (Printf.sprintf "; steps: %d\n" p.Gen.steps);
  Buffer.add_string buf
    (Printf.sprintf "; schedule:%s\n"
       (String.concat ""
          (List.map (fun t -> Printf.sprintf " %d" t) p.Gen.schedule)));
  Buffer.add_string buf "code:\n";
  (* One db line per eight bytes, each line's disassembly-at-offset-0
     view appended as a comment for the human reader. *)
  let len = String.length p.Gen.code in
  let i = ref 0 in
  while !i < len do
    let n = min 8 (len - !i) in
    let bytes =
      String.concat ", "
        (List.init n (fun k ->
             Printf.sprintf "0x%02X" (Char.code p.Gen.code.[!i + k])))
    in
    Buffer.add_string buf (Printf.sprintf "  db %s\n" bytes);
    i := !i + n
  done;
  Buffer.add_string buf ";\n; linear disassembly from offset 0:\n";
  List.iter
    (fun entry ->
      Buffer.add_string buf
        (Format.asprintf "; %a\n" Ssx_asm.Disasm.pp_entry entry))
    (Ssx_asm.Disasm.disassemble p.Gen.code);
  Buffer.contents buf

let header_int text key =
  let prefix = "; " ^ key ^ ":" in
  let lines = String.split_on_char '\n' text in
  match
    List.find_opt (fun l -> String.length l >= String.length prefix
                            && String.sub l 0 (String.length prefix) = prefix)
      lines
  with
  | None -> None
  | Some line ->
    Some
      (String.trim
         (String.sub line (String.length prefix)
            (String.length line - String.length prefix)))

let program_of_reproducer text =
  let steps =
    match header_int text "steps" with
    | Some s -> int_of_string (List.hd (String.split_on_char ' ' s))
    | None -> failwith "reproducer: missing '; steps:' header"
  in
  let schedule =
    match header_int text "schedule" with
    | None -> []
    | Some s ->
      String.split_on_char ' ' s
      |> List.filter (fun tok -> tok <> "")
      |> List.map int_of_string
  in
  let image = Ssx_asm.Assemble.assemble text in
  { Gen.code = image.Ssx_asm.Assemble.bytes; schedule; steps }

let replay text = run_program (program_of_reproducer text)

(* --- the campaign ------------------------------------------------------ *)

(* Shard count is a function of the iteration budget alone, so the
   division of work — and therefore every per-shard random stream — is
   independent of the jobs setting. *)
let shard_count iters = max 1 (min 32 ((iters + 249) / 250))

let max_corpus = 512
let max_divergences_per_shard = 5

(* Corpus entries are keyed by a digest of the whole program — code,
   NMI schedule, step budget — so a mutation that reproduces an
   existing member byte-for-byte can never occupy a second slot of the
   bounded corpus. *)
let corpus_key (p : Gen.program) =
  let d = Ssx.Digest.create () in
  Ssx.Digest.add_string d p.Gen.code;
  List.iter (Ssx.Digest.add_int24 d) p.Gen.schedule;
  Ssx.Digest.add_int24 d p.Gen.steps;
  Ssx.Digest.to_hex d

type shard_result = {
  sh_programs : int;
  sh_ticks : int;
  sh_corpus : Gen.program list;
  sh_indices : int array;
  sh_divergences : divergence list;
}

let run_shard ?jit ~seed ~shard ~iters () =
  let rng = Rng.create (Rng.derive seed shard) in
  let tm = trial_machine ?jit () in
  let o = Ref_interp.create () in
  let cov = coverage_create () in
  let corpus = ref [||] in
  let corpus_seen = Hashtbl.create 64 in
  let divergences = ref [] in
  let ticks = ref 0 in
  for iter = 0 to iters - 1 do
    let p =
      if Array.length !corpus > 0 && Rng.int rng 3 < 2 then
        Gen.mutate rng !corpus.(Rng.int rng (Array.length !corpus))
      else Gen.generate rng
    in
    let trial = run_trial tm o p in
    ticks := !ticks + p.Gen.steps;
    (match trial.failure with
    | Some (tick, detail)
      when List.length !divergences < max_divergences_per_shard ->
      let reproduces candidate = (run_trial tm o candidate).failure <> None in
      let shrunk = shrink ~reproduces p in
      let tick, detail =
        match (run_trial tm o shrunk).failure with
        | Some (t, d) -> (t, d)
        | None -> (tick, detail)
      in
      divergences :=
        { program = shrunk; original = p; seed; shard; iter; tick; detail }
        :: !divergences
    | Some _ | None -> ());
    if trial.failure = None && coverage_merge cov trial.indices trial.n_indices > 0
    then
      if Array.length !corpus < max_corpus then begin
        let key = corpus_key p in
        if not (Hashtbl.mem corpus_seen key) then begin
          Hashtbl.add corpus_seen key ();
          corpus := Array.append !corpus [| p |]
        end
      end
  done;
  (* Report the lit coverage bits as indices for the cross-shard merge. *)
  let indices = ref [] in
  Bytes.iteri
    (fun cell c ->
      let c = Char.code c in
      if c <> 0 then
        for bit = 0 to 7 do
          if c land (1 lsl bit) <> 0 then indices := ((cell lsl 3) + bit) :: !indices
        done)
    cov.bits;
  (* Per-shard throughput accounting (observability only; the summary
     is assembled from the returned record, so campaign results stay
     bit-identical with metrics on or off).  Together with the pool's
     [pool.jobs{host}] gauge and [pool.worker{id=k}.tasks{host}] counters this
     shows where campaign time went when jobs scaling looks flat. *)
  if Ssos_obs.Obs.enabled () then begin
    Ssos_obs.Obs.incr ~by:iters
      (Ssos_obs.Obs.counter
         (Printf.sprintf "fuzz.shard{id=%d}.programs" shard));
    Ssos_obs.Obs.incr ~by:!ticks
      (Ssos_obs.Obs.counter (Printf.sprintf "fuzz.shard{id=%d}.ticks" shard))
  end;
  { sh_programs = iters;
    sh_ticks = !ticks;
    sh_corpus = Array.to_list !corpus;
    sh_indices = Array.of_list !indices;
    sh_divergences = List.rev !divergences }

let run ?jobs ?jit ~seed ~iters () =
  let shards = shard_count iters in
  let per_shard = iters / shards and extra = iters mod shards in
  let results =
    Pool.run ?jobs shards (fun shard ->
        let iters = per_shard + if shard < extra then 1 else 0 in
        run_shard ?jit ~seed ~shard ~iters ())
  in
  let cov = coverage_create () in
  let programs = ref 0 and ticks = ref 0 and corpus = ref 0 in
  let divergences = ref [] in
  Array.iter
    (fun r ->
      programs := !programs + r.sh_programs;
      ticks := !ticks + r.sh_ticks;
      corpus := !corpus + List.length r.sh_corpus;
      ignore (coverage_merge cov r.sh_indices (Array.length r.sh_indices));
      divergences := !divergences @ r.sh_divergences)
    results;
  let summary =
    { programs = !programs;
      total_ticks = !ticks;
      corpus_size = !corpus;
      coverage_points = cov.points;
      divergences = !divergences }
  in
  (* Published after the summary is assembled, so the result is
     bit-identical with metrics on or off. *)
  if Ssos_obs.Obs.enabled () then begin
    Ssos_obs.Obs.incr ~by:summary.programs
      (Ssos_obs.Obs.counter "fuzz.programs");
    Ssos_obs.Obs.incr ~by:summary.total_ticks
      (Ssos_obs.Obs.counter "fuzz.ticks");
    Ssos_obs.Obs.incr
      ~by:(List.length summary.divergences)
      (Ssos_obs.Obs.counter "fuzz.divergences");
    Ssos_obs.Obs.set_int
      (Ssos_obs.Obs.gauge "fuzz.corpus-size")
      summary.corpus_size;
    Ssos_obs.Obs.set_int
      (Ssos_obs.Obs.gauge "fuzz.coverage-points")
      summary.coverage_points;
    Ssos_obs.Obs.event "fuzz.summary"
      ~fields:
        [ ("programs", string_of_int summary.programs);
          ("coverage", string_of_int summary.coverage_points);
          ("divergences", string_of_int (List.length summary.divergences)) ]
  end;
  summary

let pp_divergence ppf d =
  Format.fprintf ppf
    "@[<v>divergence (seed 0x%016Lx, shard %d, iter %d) at tick %d:@,\
     %s@,shrunk to %d bytes (from %d)@]"
    d.seed d.shard d.iter d.tick d.detail
    (String.length d.program.Gen.code)
    (String.length d.original.Gen.code)

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>%d programs, %d ticks, corpus %d, %d coverage points, %d divergence%s@]"
    s.programs s.total_ticks s.corpus_size s.coverage_points
    (List.length s.divergences)
    (if List.length s.divergences = 1 then "" else "s")
