(* The observability layer (lib/obs): registry semantics, the enabled
   switch, a system's always-on counts published end-to-end, and the
   Ssx.Digest regression pins (the dedup must reproduce the historical
   inline FNV-1a copies byte for byte). *)

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool
let check_string = Helpers.check_string

module Obs = Ssos_obs.Obs

(* Every test leaves the registry empty and the switch off, whatever
   happens in between — the rest of the suite must stay uninstrumented. *)
let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let find_row name =
  let snap = Obs.snapshot () in
  List.find_opt (fun (row : Obs.row) -> row.Obs.name = name) snap.Obs.rows

let counter_row name =
  match find_row name with
  | Some { Obs.value = Obs.Counter n; _ } -> n
  | Some _ -> Alcotest.failf "%s is not a counter" name
  | None -> Alcotest.failf "no row %s" name

let gauge_row name =
  match find_row name with
  | Some { Obs.value = Obs.Gauge v; _ } -> v
  | Some _ -> Alcotest.failf "%s is not a gauge" name
  | None -> Alcotest.failf "no row %s" name

(* ------------------------------------------------------- registry *)

let test_counters_and_gauges () =
  with_obs (fun () ->
      let c = Obs.counter "test.hits" in
      Obs.incr c;
      Obs.incr ~by:4 c;
      check_int "counter value" 5 (Obs.counter_value c);
      (* The registry is name-keyed: the same name is the same
         instance. *)
      Obs.incr (Obs.counter "test.hits");
      check_int "same name, same counter" 6 (Obs.counter_value c);
      let g = Obs.gauge "test.depth" in
      Obs.set g 2.5;
      Obs.set_int (Obs.gauge "test.depth") 7;
      check_bool "gauge keeps last value" true (gauge_row "test.depth" = 7.0);
      check_int "counter row" 6 (counter_row "test.hits"))

let test_snapshot_rows_sorted () =
  with_obs (fun () ->
      Obs.incr (Obs.counter "z.last");
      Obs.incr (Obs.counter "a.first");
      Obs.incr (Obs.counter "m.middle");
      let names =
        List.map (fun (r : Obs.row) -> r.Obs.name) (Obs.snapshot ()).Obs.rows
      in
      check_bool "sorted by name" true
        (names = List.sort compare names);
      check_int "three rows" 3 (List.length names))

let test_histogram () =
  with_obs (fun () ->
      let h = Obs.histogram ~buckets:[| 10.; 100.; 1000. |] "test.lat" in
      List.iter (Obs.observe h) [ 5.; 50.; 500.; 5000.; 50.; 7. ];
      check_int "count" 6 (Obs.histogram_count h);
      check_bool "sum" true (Obs.histogram_sum h = 5612.);
      check_bool "max" true (Obs.histogram_max h = Some 5000.);
      match find_row "test.lat" with
      | Some { Obs.value = Obs.Histogram { buckets; counts; count; min; max; _ }; _ } ->
        check_int "bucket array" 3 (Array.length buckets);
        check_int "counts has +inf slot" 4 (Array.length counts);
        (* 5 and 7 in <=10; both 50s in <=100; 500 in <=1000; 5000
           overflows. *)
        check_bool "bucket counts" true (counts = [| 2; 2; 1; 1 |]);
        check_int "side-car count" 6 count;
        check_bool "side-car min" true (min = 5.);
        check_bool "side-car max" true (max = 5000.)
      | Some _ | None -> Alcotest.fail "histogram row missing")

let test_default_buckets_ascending () =
  let b = Obs.default_buckets in
  check_bool "non-empty" true (Array.length b > 0);
  check_bool "strictly ascending" true
    (Array.for_all (fun ok -> ok)
       (Array.mapi (fun i v -> i = 0 || b.(i - 1) < v) b));
  check_bool "covers 1e2..5e9" true
    (b.(0) = 1e2 && b.(Array.length b - 1) = 5e9)

(* ------------------------------------------------------- quantiles *)

let test_quantile_agrees_with_exact () =
  (* The documented contract: the bucketed estimate always lands in
     the same bucket as the exact nearest-rank sample quantile, and is
     clamped to the min/max side-cars. *)
  with_obs (fun () ->
      let buckets = [| 10.; 20.; 50.; 100.; 200.; 500. |] in
      let h = Obs.histogram ~buckets "q.lat" in
      (* A deterministic long-tailed sample set spanning under- and
         overflow buckets. *)
      let samples =
        List.init 100 (fun i ->
            let i = i + 1 in
            if i <= 50 then float_of_int i  (* 1..50 *)
            else if i <= 90 then float_of_int (50 + ((i - 50) * 3))
            else float_of_int (200 + ((i - 90) * 70)))  (* up to 900 *)
      in
      List.iter (Obs.observe h) samples;
      let value =
        match find_row "q.lat" with
        | Some { Obs.value; _ } -> value
        | None -> Alcotest.fail "histogram row missing"
      in
      let sorted = Array.of_list (List.sort compare samples) in
      let exact q =
        (* nearest rank: the ceil (q * samples)-th smallest. *)
        let rank = int_of_float (ceil (q *. float_of_int (Array.length sorted))) in
        sorted.(max 0 (rank - 1))
      in
      let bucket_of v =
        let i = ref 0 in
        while !i < Array.length buckets && v > buckets.(!i) do incr i done;
        !i
      in
      List.iter
        (fun q ->
          match Obs.quantile value q with
          | None -> Alcotest.failf "no quantile at %g" q
          | Some est ->
            check_int
              (Printf.sprintf "p%g lands in the exact sample's bucket"
                 (100. *. q))
              (bucket_of (exact q)) (bucket_of est);
            check_bool
              (Printf.sprintf "p%g within side-cars" (100. *. q))
              true
              (est >= sorted.(0) && est <= sorted.(Array.length sorted - 1)))
        [ 0.5; 0.9; 0.99 ];
      (* The extremes stay inside the exact side-cars: p0 lands in the
         lowest sample's bucket bounded below by the true min, and p100
         — which falls in the +inf overflow bucket — clamps to the true
         max (the side-car is the only finite upper bound there). *)
      (match Obs.quantile value 0.0 with
      | None -> Alcotest.fail "no p0"
      | Some est ->
        check_int "p0 lands in the min's bucket" (bucket_of sorted.(0))
          (bucket_of est);
        check_bool "p0 bounded below by min" true (est >= sorted.(0)));
      check_bool "p100 clamps to max" true
        (Obs.quantile value 1.0 = Some sorted.(Array.length sorted - 1));
      (* Non-histogram values and empty histograms have no quantiles. *)
      check_bool "counter has no quantile" true
        (Obs.quantile (Obs.Counter 5) 0.5 = None);
      check_bool "gauge has no quantile" true
        (Obs.quantile (Obs.Gauge 5.) 0.5 = None);
      let empty = Obs.histogram ~buckets "q.empty" in
      ignore empty;
      match find_row "q.empty" with
      | Some { Obs.value; _ } ->
        check_bool "empty histogram has no quantile" true
          (Obs.quantile value 0.5 = None)
      | None -> Alcotest.fail "empty histogram row missing")

(* --------------------------------------------------------- events *)

let test_event_ring_bounded () =
  with_obs (fun () ->
      for i = 1 to Obs.event_capacity + 25 do
        Obs.event "tick" ~fields:[ ("i", string_of_int i) ]
      done;
      let events = Obs.events () in
      check_int "ring keeps capacity" Obs.event_capacity (List.length events);
      (* Oldest first, and the oldest 25 were dropped. *)
      (match events with
      | first :: _ ->
        check_bool "oldest dropped" true
          (first.Obs.fields = [ ("i", "26") ])
      | [] -> Alcotest.fail "no events");
      let seqs = List.map (fun (e : Obs.event) -> e.Obs.seq) events in
      check_bool "seq strictly increasing" true
        (List.sort compare seqs = seqs
        && List.length (List.sort_uniq compare seqs) = List.length seqs))

let test_disabled_is_inert () =
  Obs.reset ();
  Obs.set_enabled false;
  Obs.event "never";
  check_int "no events when disabled" 0 (List.length (Obs.events ()));
  Obs.reset ()

(* ---------------------------------------------------------- sinks *)

let test_json_lines_shape () =
  with_obs (fun () ->
      Obs.incr (Obs.counter "j.count");
      Obs.set (Obs.gauge "j.gauge") 1.5;
      Obs.observe (Obs.histogram "j.hist") 3.0;
      Obs.event "j.evt" ~fields:[ ("k", "v\"quoted\"") ];
      let lines =
        String.split_on_char '\n' (Obs.to_json_lines (Obs.snapshot ()))
        |> List.filter (fun l -> l <> "")
      in
      check_int "3 metric lines + 1 event line" 4 (List.length lines);
      List.iter
        (fun line ->
          check_bool "line is a JSON object" true
            (String.length line >= 2
            && line.[0] = '{'
            && line.[String.length line - 1] = '}'))
        lines;
      check_bool "counter line" true
        (List.exists
           (fun l ->
             Astring_contains.contains l {|"name": "j.count", "kind": "counter"|})
           lines);
      check_bool "quotes escaped in event fields" true
        (List.exists (fun l -> Astring_contains.contains l {|v\"quoted\"|}) lines))

let test_pp_table_smoke () =
  with_obs (fun () ->
      Obs.incr ~by:3 (Obs.counter "t.count");
      Obs.observe (Obs.histogram "t.hist") 250.;
      let text = Format.asprintf "%a" Obs.pp_table (Obs.snapshot ()) in
      check_bool "mentions the counter" true
        (Astring_contains.contains text "t.count");
      check_bool "mentions the histogram" true
        (Astring_contains.contains text "t.hist"))

(* ------------------------------------------------ published counts *)

let test_system_counts_published () =
  with_obs (fun () ->
      let system = Ssos.Reinstall.build () in
      Ssos.System.run system ~ticks:20_000;
      Obs.publish (Ssos.System.counts system);
      let machine = system.Ssos.System.machine in
      check_int "machine.ticks counts every tick"
        (Ssx.Machine.ticks machine)
        (counter_row "machine.ticks");
      check_bool "instructions executed" true (counter_row "machine.executed" > 0);
      check_int "memory writes counted"
        (Ssx.Memory.write_count (Ssx.Machine.memory machine))
        (counter_row "machine.mem.writes");
      check_bool "the block table counted" true
        (counter_row "machine.jit.blocks-built" > 0);
      check_int "heartbeats counted"
        (Ssx_devices.Heartbeat.count system.Ssos.System.heartbeat)
        (counter_row "device.heartbeat.count");
      check_bool "watchdog bites present" true
        (find_row "device.watchdog.bites" <> None);
      (* Publishing again adds: a counter sums the runs handed to it. *)
      Obs.publish (Ssos.System.counts system);
      check_int "a second publish adds"
        (2 * Ssx.Machine.ticks machine)
        (counter_row "machine.ticks"))

let test_disabled_publishes_nothing () =
  Obs.reset ();
  Obs.set_enabled false;
  let system = Ssos.Reinstall.build () in
  Ssos.System.run system ~ticks:5_000;
  Obs.publish (Ssos.System.counts system);
  check_int "registry stays empty" 0 (List.length (Obs.snapshot ()).Obs.rows);
  (* Counting itself is always on, on both run paths. *)
  let counted =
    (Ssx.Machine.tick_counters system.Ssos.System.machine).Ssx.Tick_counters.ticks
  in
  check_int "ticks counted with metrics off" 5_000 counted;
  ignore (Ssx.Machine.tick system.Ssos.System.machine);
  check_int "the per-tick path counts too" 5_001
    (Ssx.Machine.tick_counters system.Ssos.System.machine).Ssx.Tick_counters.ticks;
  Obs.reset ()

let test_counts_label () =
  let counts = [ ("machine.ticks", 3); ("device.heartbeat.count{id=0}", 2) ] in
  check_bool "label appends, and nests inside an existing label" true
    (Ssx.Counts.label "rsm1" counts
    = [ ("machine.ticks{id=rsm1}", 3); ("device.heartbeat.count{id=rsm1/0}", 2) ]);
  check_bool "a label with braces of its own" true
    (Ssx.Counts.label "crash{7}" [ ("net.daemon.skipped-slots", 4) ]
    = [ ("net.daemon.skipped-slots{id=crash{7}}", 4) ])

(* --------------------------------------------- digest regressions *)

(* The historical inline FNV-1a from Snapshot.digest and
   Cluster.digest, verbatim: 64-bit parameters folded to OCaml's
   63-bit int after every multiply. *)
let reference_fnv bytes =
  let h = ref 0x4bf29ce484222325 in
  List.iter (fun b -> h := (!h lxor b) * 0x100000001b3 land max_int) bytes;
  Printf.sprintf "%016x" !h

let test_digest_matches_inline_string_form () =
  (* Cluster.digest's historical form: mix Char.code over a string. *)
  List.iter
    (fun s ->
      let bytes = List.init (String.length s) (fun i -> Char.code s.[i]) in
      check_string
        (Printf.sprintf "digest of %S" s)
        (reference_fnv bytes) (Ssx.Digest.string s))
    [ ""; "a"; "ssos"; "deadbeef;deadbeef;42"; String.make 300 '\xff' ]

let test_digest_matches_inline_register_form () =
  (* Snapshot.digest's historical form: name bytes then the register
     value as three explicitly masked bytes, least-significant first. *)
  let entries = [ ("ax", 0xBEEF); ("ip", 0x012345); ("psw", 0) ] in
  let reference =
    reference_fnv
      (List.concat_map
         (fun (name, v) ->
           List.init (String.length name) (fun i -> Char.code name.[i])
           @ [ v land 0xff; (v asr 8) land 0xff; (v asr 16) land 0xff ])
         entries)
  in
  let d = Ssx.Digest.create () in
  List.iter
    (fun (name, v) ->
      Ssx.Digest.add_string d name;
      Ssx.Digest.add_int24 d v)
    entries;
  check_string "register-summary encoding" reference (Ssx.Digest.to_hex d)

let test_digest_add_byte_masks () =
  let a = Ssx.Digest.create () and b = Ssx.Digest.create () in
  Ssx.Digest.add_byte a 0x1FF;
  Ssx.Digest.add_byte b 0xFF;
  check_string "only low 8 bits mixed" (Ssx.Digest.to_hex b)
    (Ssx.Digest.to_hex a);
  check_string "empty digest is the offset basis"
    (Printf.sprintf "%016x" 0x4bf29ce484222325)
    (Ssx.Digest.to_hex (Ssx.Digest.create ()))

let test_snapshot_digest_still_discriminates () =
  (* Digests through the shared module keep Snapshot.digest's
     semantics: equal states agree, a one-byte RAM change does not. *)
  let build () =
    let machine, _ = Helpers.machine_with "spin:\n    jmp spin\n" in
    Helpers.run_steps machine 100;
    machine
  in
  let a = build () and b = build () in
  check_string "identical machines, identical digests"
    (Ssx.Snapshot.digest (Ssx.Snapshot.capture a))
    (Ssx.Snapshot.digest (Ssx.Snapshot.capture b));
  Ssx.Memory.write_byte (Ssx.Machine.memory b) 0x7777 0x42;
  check_bool "one-byte change flips the digest" false
    (Ssx.Snapshot.digest (Ssx.Snapshot.capture a)
    = Ssx.Snapshot.digest (Ssx.Snapshot.capture b))

let suite =
  [ case "counters and gauges" test_counters_and_gauges;
    case "snapshot rows are sorted" test_snapshot_rows_sorted;
    case "histogram buckets and side-cars" test_histogram;
    case "default buckets are sane" test_default_buckets_ascending;
    case "bucketed quantiles agree with exact nearest-rank"
      test_quantile_agrees_with_exact;
    case "event ring is bounded" test_event_ring_bounded;
    case "disabled switch is inert" test_disabled_is_inert;
    case "JSON lines sink" test_json_lines_shape;
    case "pretty table sink" test_pp_table_smoke;
    case "a system's counts, published end-to-end"
      test_system_counts_published;
    case "disabled switch publishes nothing; counting stays on"
      test_disabled_publishes_nothing;
    case "count labels nest and keep base names" test_counts_label;
    case "Digest matches the inline cluster form"
      test_digest_matches_inline_string_form;
    case "Digest matches the inline snapshot form"
      test_digest_matches_inline_register_form;
    case "Digest masks bytes; empty digest is the basis"
      test_digest_add_byte_masks;
    case "snapshot digests still discriminate" test_snapshot_digest_still_discriminates ]
