(* Drives the installed ssos_cli binary as a subprocess: argument
   validation must reach stderr with a non-zero exit, and the global
   --metrics flag must dump a parseable registry. *)

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool
let contains = Astring_contains.contains

(* Tests run in _build/default/test; the binary is a declared dune
   dependency one directory over. *)
let binary = "../bin/ssos_cli.exe"

let read_all channel =
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf channel 1
     done
   with End_of_file -> ());
  Buffer.contents buf

(* Run the CLI with [args], after the shell assignments [env] if any;
   returns (exit code, stdout, stderr).  Signals fail the test — the
   CLI must exit, not crash. *)
let run_cli ?(env = "") args =
  let command = Printf.sprintf "%s %s %s" env binary args in
  let stdout_c, stdin_c, stderr_c =
    Unix.open_process_full command (Unix.environment ())
  in
  close_out stdin_c;
  let out = read_all stdout_c in
  let err = read_all stderr_c in
  match Unix.close_process_full (stdout_c, stdin_c, stderr_c) with
  | Unix.WEXITED code -> (code, out, err)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    Alcotest.failf "ssos_cli killed by signal %d" n

let test_unknown_subcommand_rejected () =
  let code, _out, err = run_cli "frobnicate" in
  check_bool "non-zero exit" true (code <> 0);
  check_bool "names the bad command" true (contains err "frobnicate");
  check_bool "points at --help" true (contains err "--help")

let test_unknown_demo_design_rejected () =
  let code, _out, err = run_cli "demo bogus" in
  check_bool "non-zero exit" true (code <> 0);
  check_bool "invalid value on stderr" true (contains err "invalid value");
  (* The error enumerates the valid designs. *)
  check_bool "lists alternatives" true (contains err "reinstall")

let test_unknown_flag_rejected () =
  let code, _out, err = run_cli "demo --no-such-flag" in
  check_bool "non-zero exit" true (code <> 0);
  check_bool "unknown option on stderr" true (contains err "--no-such-flag")

let test_unknown_experiment_rejected () =
  let code, _out, err = run_cli "experiment T99" in
  check_bool "non-zero exit" true (code <> 0);
  check_bool "unknown experiment on stderr" true
    (contains err "unknown experiment")

(* --metrics=json after a real run: exit 0 and one JSON object per
   line, covering the machine and device layers the demo exercises. *)
let test_metrics_json_dump () =
  let code, out, _err = run_cli "demo reinstall --metrics=json" in
  check_int "exit 0" 0 code;
  let json_lines =
    String.split_on_char '\n' out
    |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')
  in
  check_bool "emits JSON lines" true (json_lines <> []);
  List.iter
    (fun line ->
      check_bool "line closes its object" true
        (line.[String.length line - 1] = '}'))
    json_lines;
  let has affix = List.exists (fun l -> contains l affix) json_lines in
  check_bool "machine metrics present" true (has {|"name": "machine.ticks"|});
  check_bool "device metrics present" true (has {|"name": "device.|});
  check_bool "kinds tagged" true (has {|"kind": "counter"|})

let test_metrics_table_dump () =
  let code, out, _err = run_cli "demo reinstall --metrics" in
  check_int "exit 0" 0 code;
  check_bool "table mentions machine.ticks" true (contains out "machine.ticks")

(* A campaign's --metrics dump is a function of the run: its rows and
   its events are the same at --jobs 1 and in several --jobs 2 runs,
   once the host's rows (names ending [{host}]) are set aside.
   Workers that each counted their own warmup would differ by one
   30,000-tick warmup; one event per landed fault from every worker
   filled the bounded event ring in whatever order the workers ran. *)
let test_campaign_metrics_jobs_invariant () =
  let dump jobs =
    let code, out, _err =
      run_cli
        (Printf.sprintf
           "campaign --trials 40 --burst 40 --seed 3 --metrics=json --jobs %d \
            reinstall"
           jobs)
    in
    check_int (Printf.sprintf "exit 0 at jobs %d" jobs) 0 code;
    String.split_on_char '\n' out
    |> List.filter (fun l ->
           (String.starts_with ~prefix:{|{"name": |} l
           || String.starts_with ~prefix:{|{"kind": "event"|} l)
           && not (contains l {|{host}"|}))
  in
  let one = dump 1 in
  check_bool "machine.ticks published" true
    (List.exists (fun l -> contains l {|"name": "machine.ticks"|}) one);
  check_bool "events published" true
    (List.exists (fun l -> contains l {|"kind": "event"|}) one);
  for run = 1 to 3 do
    let two = dump 2 in
    let label = Printf.sprintf "jobs 2, run %d" run in
    check_int (label ^ ": same line count") (List.length one) (List.length two);
    List.iter2 (fun a b -> Alcotest.(check string) label a b) one two
  done

(* serve: the closed loop completes a full detect/repair cycle and
   reports the SLO verdict in its exit status. *)
let test_serve_full_cycle () =
  let code, out, _err =
    run_cli
      "serve --fault-rate 0.004 --seed 5 --duration 1800 --require-incident"
  in
  check_int "exit 0 (SLO met, incident repaired)" 0 code;
  check_bool "per-epoch dashboard lines" true (contains out "epoch");
  check_bool "reports availability" true (contains out "availability");
  check_bool "reports an incident" true (contains out "incidents: 1 detected");
  check_bool "reports mttr" true (contains out "mttr");
  check_bool "slo met" true (contains out "SLO (availability >= 0.85): MET")

let test_serve_slo_breach_exits_nonzero () =
  let code, out, _err =
    run_cli "serve --fault-rate 0.004 --seed 11 --duration 1800 --quiet"
  in
  check_bool "non-zero exit on SLO breach" true (code <> 0);
  check_bool "breach reported" true (contains out "BREACHED")

let test_serve_require_incident_fails_fault_free () =
  let code, out, _err =
    run_cli "serve --seed 7 --duration 1200 --quiet --require-incident"
  in
  check_bool "non-zero exit without an incident" true (code <> 0);
  check_bool "explains the failure" true (contains out "none closed")

(* A failed run exits 1 and a usage error 124, so a script can tell an
   SLO breach from a bad flag. *)
let test_failed_run_status () =
  let code, _out, _err =
    run_cli "serve --fault-rate 0.004 --seed 11 --duration 1800 --quiet"
  in
  check_int "SLO breach: exit 1" 1 code;
  let code, _out, _err = run_cli "serve --slo 1.5" in
  check_int "serve --slo 1.5: exit 124" 124 code

let test_serve_rejects_bad_rate () =
  let code, _out, err = run_cli "serve --fault-rate 1.5 --duration 300" in
  check_bool "non-zero exit" true (code <> 0);
  check_bool "error on stderr" true (String.length err > 0)

(* Cluster trials step one shard: no command takes a shard count, and
   serve takes no stepper domain count. *)
let test_no_shard_flags () =
  List.iter
    (fun args ->
      let code, _out, err = run_cli args in
      check_bool (args ^ ": non-zero exit") true (code <> 0);
      check_bool (args ^ ": names the flag") true (contains err "unknown option"))
    [ "experiment T14 --shards 2"; "cluster --shards 2"; "rsm --shards 2";
      "serve --shards 2"; "serve --jobs 2" ]

(* A bad flag value is a usage error: cmdliner's exit 124, no output,
   and a first stderr line that names the flag or variable.  The
   library's own [invalid_arg] checks would otherwise surface as an
   uncaught exception (exit 125), or the run would go ahead with a
   value it cannot honour. *)
let check_usage_error ?env ~names args =
  let code, out, err = run_cli ?env args in
  check_int (args ^ ": exit 124") 124 code;
  Alcotest.(check string) (args ^ ": no output") "" out;
  let first = List.hd (String.split_on_char '\n' err) in
  check_bool (args ^ ": names " ^ names) true (contains first names)

let test_count_below_range () =
  List.iter
    (fun (names, args) -> check_usage_error ~names args)
    [ ("--nodes", "cluster --nodes 1"); ("--nodes", "adversary --nodes 1");
      ("--nodes", "serve --nodes 1"); ("--latency", "cluster --latency 0");
      ("--epoch", "serve --epoch 0"); ("--trials", "campaign --trials=-1");
      ("--jobs", "campaign --jobs 0");
      ("--period", "adversary --daemon crash --period 0 --down-for 0") ]

let test_probability_out_of_range () =
  List.iter
    (fun (names, args) -> check_usage_error ~names args)
    [ ("--slo", "serve --slo 1.5"); ("--drop", "rsm --drop 1.5");
      ("--fault-rate", "serve --fault-rate 1.5") ]

let test_unknown_format () =
  List.iter
    (fun args -> check_usage_error ~names:"--format" args)
    [ "experiment T9 --format=xml"; "trace --format=JSON" ]

let test_adversary_cross_checks () =
  List.iter
    (fun (names, args) -> check_usage_error ~names args)
    [ ("--victim", "adversary --daemon starve --victim 9");
      ("--victim", "adversary --daemon crash --nodes 3 --victim 3");
      ("--period", "adversary --daemon crash --period 10") ]

let test_malformed_jobs_variable () =
  List.iter
    (fun args -> check_usage_error ~env:"SSOS_JOBS=abc" ~names:"SSOS_JOBS" args)
    [ "campaign"; "fuzz --iters 10" ]

let suite =
  [ case "unknown subcommand is rejected" test_unknown_subcommand_rejected;
    case "unknown demo design is rejected" test_unknown_demo_design_rejected;
    case "unknown flag is rejected" test_unknown_flag_rejected;
    case "unknown experiment id is rejected" test_unknown_experiment_rejected;
    case "--metrics=json dumps a parseable registry" test_metrics_json_dump;
    case "--metrics dumps the pretty table" test_metrics_table_dump;
    case "campaign --metrics: the same rows and events at jobs 1 and 2"
      test_campaign_metrics_jobs_invariant;
    case "serve completes a detect/repair cycle" test_serve_full_cycle;
    case "serve exits non-zero on SLO breach"
      test_serve_slo_breach_exits_nonzero;
    case "serve --require-incident fails on a clean run"
      test_serve_require_incident_fails_fault_free;
    case "a failed run exits 1, a usage error 124" test_failed_run_status;
    case "serve rejects an invalid fault rate" test_serve_rejects_bad_rate;
    case "no command takes --shards, serve takes no --jobs"
      test_no_shard_flags;
    case "a count below its range is a usage error" test_count_below_range;
    case "a probability outside [0, 1] is a usage error"
      test_probability_out_of_range;
    case "an unknown --format is a usage error" test_unknown_format;
    case "adversary: --victim past the ring, --period below --down-for"
      test_adversary_cross_checks;
    case "a malformed SSOS_JOBS is a usage error" test_malformed_jobs_variable ]
