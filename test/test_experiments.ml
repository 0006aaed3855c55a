let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

let test_table_pp_alignment () =
  let table =
    { Ssos_experiments.Table.id = "TX";
      title = "demo";
      note = "note";
      header = [ "a"; "long-header"; "c" ];
      rows = [ [ "1"; "2"; "3" ]; [ "wide-cell"; "4" ] ] }
  in
  let rendered = Format.asprintf "%a" Ssos_experiments.Table.pp table in
  check_bool "contains title" true (Astring_contains.contains rendered "TX: demo");
  check_bool "contains separator" true (Astring_contains.contains rendered "---");
  (* Column widths: each data line is as wide as the header line. *)
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' rendered)
  in
  check_bool "several lines" true (List.length lines >= 5)

let test_cells () =
  Helpers.check_string "rate" "3/4 (75%)" (Ssos_experiments.Table.cell_rate 3 4);
  Helpers.check_string "rate zero denominator" "-" (Ssos_experiments.Table.cell_rate 0 0);
  Helpers.check_string "float" "1.5" (Ssos_experiments.Table.cell_float 1.5);
  Helpers.check_string "opt none" "-" (Ssos_experiments.Table.cell_opt_float None);
  Helpers.check_string "int" "42" (Ssos_experiments.Table.cell_int 42)

let test_to_json () =
  let table =
    { Ssos_experiments.Table.id = "TX";
      title = "quote \" and backslash \\";
      note = "line\nbreak";
      header = [ "a"; "b" ];
      rows = [ [ "1"; "2" ]; [ "3" ] ] }
  in
  let json = Ssos_experiments.Table.to_json table in
  check_bool "escapes quotes" true
    (Astring_contains.contains json "quote \\\" and backslash \\\\");
  check_bool "escapes newlines" true
    (Astring_contains.contains json "line\\nbreak");
  check_bool "has id field" true
    (Astring_contains.contains json "\"id\": \"TX\"");
  check_bool "has rows" true
    (Astring_contains.contains json "[\"1\",\"2\"]");
  (* Same table, same JSON: rendering is deterministic, so tables can
     be diffed mechanically as strings. *)
  Helpers.check_string "deterministic" json
    (Ssos_experiments.Table.to_json table)

let test_registry () =
  check_int "twenty tables" 20 (List.length Ssos_experiments.Experiments.all);
  check_bool "find t1" true (Ssos_experiments.Experiments.find "t1" <> None);
  check_bool "find T13" true (Ssos_experiments.Experiments.find "T13" <> None);
  check_bool "find t20" true (Ssos_experiments.Experiments.find "t20" <> None);
  check_bool "unknown" true (Ssos_experiments.Experiments.find "T99" = None)

let test_summarize () =
  let outcomes =
    [ { Ssos_experiments.Runner.recovered = true; recovery_ticks = Some 100 };
      { Ssos_experiments.Runner.recovered = true; recovery_ticks = Some 300 };
      { Ssos_experiments.Runner.recovered = false; recovery_ticks = None } ]
  in
  let s = Ssos_experiments.Runner.summarize outcomes in
  check_int "trials" 3 s.Ssos_experiments.Runner.trials;
  check_int "recoveries" 2 s.Ssos_experiments.Runner.recoveries;
  (match s.Ssos_experiments.Runner.mean_recovery with
  | Some mean -> check_bool "mean is 200" true (abs_float (mean -. 200.0) < 0.01)
  | None -> Alcotest.fail "mean expected");
  check_bool "max is 300" true (s.Ssos_experiments.Runner.max_recovery = Some 300)

let test_trial_seeds_distinct () =
  (* Pairwise distinct over a campaign-sized index range, and not
     merely distinct but unrelated across nearby masters (the old
     additive derivation collided across masters differing by the
     stride). *)
  let n = 10_000 in
  let seeds = List.init n (Ssos_experiments.Runner.trial_seed 7L) in
  check_int "distinct" n (List.length (List.sort_uniq compare seeds));
  let nearby = List.init n (Ssos_experiments.Runner.trial_seed 8L) in
  check_int "distinct across masters" (2 * n)
    (List.length (List.sort_uniq compare (seeds @ nearby)))

let test_small_t9_runs () =
  (* The cheapest full experiment must execute end-to-end. *)
  let table =
    match Ssos_experiments.Experiments.find "T9" with
    | Some run -> run ()
    | None -> Alcotest.fail "T9 is registered"
  in
  check_int "four designs" 4 (List.length table.Ssos_experiments.Table.rows);
  match table.Ssos_experiments.Table.rows with
  | [ restart; _; monitor; tiny ] ->
    check_bool "restart is weak only" true (List.mem "weak only" restart);
    check_bool "monitor is strong" true (List.mem "strong" monitor);
    check_bool "tiny OS is strong" true (List.mem "strong" tiny)
  | _ -> Alcotest.fail "unexpected rows"

let test_heartbeat_campaign_runs () =
  let summary =
    Ssos_experiments.Runner.heartbeat_campaign
      ~build:(fun () -> Ssos.Reinstall.build ())
      ~space:Ssos.System.ram_only_fault_space
      ~spec:(Ssos.Reinstall.weak_spec ())
      ~burst:10 ~warmup:10_000 ~horizon:150_000 ~trials:3 ~seed:5L ()
  in
  check_int "three trials" 3 summary.Ssos_experiments.Runner.trials;
  check_bool "all recovered" true (summary.Ssos_experiments.Runner.recoveries = 3)

let suite =
  [ case "table pretty-printing" test_table_pp_alignment;
    case "cell formatting" test_cells;
    case "table to_json" test_to_json;
    case "experiment registry" test_registry;
    case "summarize outcomes" test_summarize;
    case "trial seeds are distinct" test_trial_seeds_distinct;
    case "t9 runs end-to-end" test_small_t9_runs;
    case "heartbeat campaigns run" test_heartbeat_campaign_runs ]
