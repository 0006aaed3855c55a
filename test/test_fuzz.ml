(* Tier-1 coverage of lib/fuzz: a fixed-seed differential smoke budget,
   campaign determinism across job counts, snapshot round-trips over
   fuzz-generated machines, interrupt-schedule replay determinism, the
   shrinker, the reproducer format, and replay of every checked-in
   regression under test/regressions/. *)

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool
let check_string = Helpers.check_string
module FL = Ssx_fuzz.Fuzz_loop
module Gen = Ssx_fuzz.Gen
module Rng = Ssx_faults.Rng

(* A quick fixed-seed differential budget.  The full 2,000-program
   budget lives behind the @fuzz-smoke alias; this keeps a smaller
   always-on slice inside `dune runtest` so a semantics regression
   fails the ordinary test run too.  It runs on the default engine and
   again on the raw interpreter, whatever SSOS_JIT says: the raw
   interpreter is the reference every block-compiler differential is
   checked against, so it must agree with the oracle too. *)
let test_differential_smoke ?jit () =
  let summary = FL.run ~jobs:2 ?jit ~seed:11L ~iters:300 () in
  check_int "trials executed" 300 summary.FL.programs;
  check_bool "ticks executed" true (summary.FL.total_ticks > 0);
  check_bool "coverage lit" true (summary.FL.coverage_points > 0);
  check_bool "corpus grew" true (summary.FL.corpus_size > 0);
  (match summary.FL.divergences with
  | [] -> ()
  | d :: _ ->
      Alcotest.failf "unexpected divergence: %a" FL.pp_divergence d)

(* Shard seeds derive from the campaign seed alone and Pool returns
   results in task-index order, so a campaign is a pure function of
   (seed, iters) — the jobs knob must not leak into the summary. *)
let test_campaign_jobs_determinism () =
  let run jobs = FL.run ~jobs ~seed:23L ~iters:200 () in
  let s1 = run 1 and s4 = run 4 in
  check_bool "jobs:1 = jobs:4" true (s1 = s4)

(* The machine-side block compiler must not leak into campaign results
   either: summaries are bit-identical with the compiler on or off,
   whatever the jobs knob says. *)
let test_campaign_jit_determinism () =
  let run ~jit jobs = FL.run ~jobs ~jit ~seed:29L ~iters:200 () in
  let reference = run ~jit:false 1 in
  check_bool "jit:1 = interp:1" true (run ~jit:true 1 = reference);
  check_bool "jit:4 = interp:1" true (run ~jit:true 4 = reference);
  check_bool "interp:4 = interp:1" true (run ~jit:false 4 = reference)

(* Snapshot round-trip over fuzz-shaped machines: capture, perturb,
   restore, re-capture — digests must be bit-exact.  Every third
   machine carries a NIC with pending RX data so device queues go
   through the same resettable machinery. *)
let test_snapshot_roundtrip_fuzzed () =
  let rng = Rng.create 0xF00DL in
  for i = 0 to 49 do
    let program = Gen.generate rng in
    let machine = FL.prepare_machine program in
    if i mod 3 = 0 then begin
      let nic = Ssos_net.Nic.create ~rx_irq:3 () in
      Ssos_net.Nic.attach nic machine;
      ignore (Ssos_net.Nic.deliver nic 0xBEEF);
      ignore (Ssos_net.Nic.deliver nic (i land 0xFFFF))
    end;
    Ssx.Machine.run machine ~ticks:(min 64 program.Gen.steps);
    let before = Ssx.Snapshot.capture machine in
    Ssx.Machine.run machine ~ticks:32;
    Ssx.Snapshot.restore before machine;
    let after = Ssx.Snapshot.capture machine in
    if not (Ssx.Snapshot.equal before after) then
      Alcotest.failf "machine %d: digest %s became %s after restore" i
        (Ssx.Snapshot.digest before)
        (Ssx.Snapshot.digest after)
  done

(* Replay one program with its NMI schedule and digest the trace. *)
let trace_digest ~jit program =
  let machine = Helpers.with_jit ~jit (FL.prepare_machine program) in
  let trace = Ssx.Trace.create ~capacity:256 () in
  let schedule = ref program.Gen.schedule in
  for tick = 0 to program.Gen.steps - 1 do
    (match !schedule with
    | t :: rest when t = tick ->
        Ssx.Cpu.raise_nmi (Ssx.Machine.cpu machine);
        schedule := rest
    | _ -> ());
    ignore (Ssx.Trace.tick trace machine)
  done;
  Digest.to_hex (Digest.string (Ssx.Trace.to_json trace))

(* Same program + same NMI tick schedule must produce the same trace
   whether or not the block compiler is on, and whether the replay
   runs on one worker or four. *)
let test_interrupt_schedule_determinism () =
  let rng = Rng.create 0xCAFEL in
  let rec with_schedule () =
    let p = Gen.generate rng in
    if p.Gen.schedule = [] then with_schedule () else p
  in
  let program = with_schedule () in
  let reference = trace_digest ~jit:false program in
  check_string "block compiler on matches" reference
    (trace_digest ~jit:true program);
  let replay jobs =
    Pool.run ~oversubscribe:true ~jobs 6 (fun _ ->
        trace_digest ~jit:false program)
  in
  Array.iter (check_string "jobs:1 replay matches" reference) (replay 1);
  Array.iter (check_string "jobs:4 replay matches" reference) (replay 4)

(* The shrinker against a synthetic predicate: a single interesting
   byte buried in nops must survive minimisation, and nearly
   everything else must go. *)
let test_shrink_minimises () =
  let code =
    String.concat ""
      [ String.make 20 '\x70'; "\x2a"; String.make 20 '\x70' ]
  in
  let program = { Gen.code; schedule = [ 1; 5; 9 ]; steps = 200 } in
  let reproduces p = String.contains p.Gen.code '\x2a' in
  let shrunk = FL.shrink ~reproduces program in
  check_bool "still reproduces" true (reproduces shrunk);
  check_bool "code minimised" true (String.length shrunk.Gen.code <= 4);
  check_bool "schedule thinned" true
    (List.length shrunk.Gen.schedule <= List.length program.Gen.schedule)

(* Reproducer text must carry everything a trial needs: parsing it
   back (through the real assembler) recovers code, schedule and tick
   budget byte-exactly. *)
let test_reproducer_roundtrip () =
  let program =
    { Gen.code = "\x01\x00\x23\x00\xff\x70\x71\x10\x01\x34\x12";
      schedule = [ 3; 17; 90 ];
      steps = 250 }
  in
  let divergence =
    { FL.program; original = program; seed = 0xDEADBEEFL; shard = 2;
      iter = 41; tick = 7; detail = "synthetic round-trip fixture" }
  in
  let text = FL.reproducer_text divergence in
  let parsed = FL.program_of_reproducer text in
  check_string "code" program.Gen.code parsed.Gen.code;
  check_int "steps" program.Gen.steps parsed.Gen.steps;
  check_bool "schedule" true (program.Gen.schedule = parsed.Gen.schedule)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every checked-in reproducer replays without divergence. *)
let test_regressions_replay () =
  let dir = "regressions" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ssx")
    |> List.sort compare
  in
  check_bool "regression corpus present" true (files <> []);
  List.iter
    (fun file ->
      let text = read_file (Filename.concat dir file) in
      List.iter
        (fun jit ->
          match FL.run_program ~jit (FL.program_of_reproducer text) with
          | None -> ()
          | Some (tick, detail) ->
              Alcotest.failf "%s (jit:%b) diverges at tick %d: %s" file jit
                tick detail)
        [ false; true ])
    files

let test_fuzz_obs_invariance () =
  (* Metrics publish from the assembled summary, after the campaign:
     identical results with instrumentation on or off, and the gauges
     mirror the summary they were derived from. *)
  let module Obs = Ssos_obs.Obs in
  Obs.reset ();
  Obs.set_enabled false;
  let off = FL.run ~jobs:2 ~seed:5L ~iters:80 () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let on_ = FL.run ~jobs:2 ~seed:5L ~iters:80 () in
      check_bool "summary identical with metrics on" true (off = on_);
      let rows = (Obs.snapshot ()).Obs.rows in
      let value name =
        match List.find_opt (fun (r : Obs.row) -> r.Obs.name = name) rows with
        | Some { Obs.value = Obs.Counter n; _ } -> float_of_int n
        | Some { Obs.value = Obs.Gauge v; _ } -> v
        | Some _ | None -> Alcotest.failf "no metric %s" name
      in
      check_bool "programs counter" true
        (value "fuzz.programs" = float_of_int on_.FL.programs);
      check_bool "ticks counter" true
        (value "fuzz.ticks" = float_of_int on_.FL.total_ticks);
      check_bool "corpus gauge" true
        (value "fuzz.corpus-size" = float_of_int on_.FL.corpus_size);
      check_bool "coverage gauge" true
        (value "fuzz.coverage-points" = float_of_int on_.FL.coverage_points))

let suite =
  [ case "fixed-seed differential smoke" (fun () -> test_differential_smoke ());
    case "fixed-seed differential smoke, raw interpreter"
      (test_differential_smoke ~jit:false);
    case "campaign is jobs-independent" test_campaign_jobs_determinism;
    case "campaign is jit-independent" test_campaign_jit_determinism;
    case "snapshot round-trip over fuzzed machines"
      test_snapshot_roundtrip_fuzzed;
    case "interrupt schedule replays deterministically"
      test_interrupt_schedule_determinism;
    case "shrinker minimises against a predicate" test_shrink_minimises;
    case "reproducer text round-trips" test_reproducer_roundtrip;
    case "checked-in regressions replay clean" test_regressions_replay;
    case "campaign is bit-identical with metrics on or off"
      test_fuzz_obs_invariance ]
