(* The registry is a single process-wide table guarded by a mutex:
   registration and snapshotting are rare, so the lock never sits on a
   hot path.  Counter increments go through [Atomic] because campaign
   pool workers in separate domains legitimately share one counter
   (e.g. the per-kind fault counters); gauges and histograms are
   single-writer by construction and stay plain mutable. *)

let env_enabled () =
  match Sys.getenv_opt "SSOS_OBS" with
  | None | Some "" | Some "0" | Some "false" -> false
  | Some _ -> true

let enabled_flag = Atomic.make (env_enabled ())
let enabled () = Atomic.get enabled_flag
let set_enabled v = Atomic.set enabled_flag v

type counter = { c_name : string; value : int Atomic.t }

type gauge = { g_name : string; mutable g : float }

type histogram = {
  h_name : string;
  buckets : float array;          (* ascending upper bounds *)
  counts : int array;             (* length buckets + 1; +inf last *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of histogram

let lock = Mutex.create ()
let table : (string, metric) Hashtbl.t = Hashtbl.create 64

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counter name =
  with_lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some (M_counter c) -> c
      | Some _ | None ->
        let c = { c_name = name; value = Atomic.make 0 } in
        Hashtbl.replace table name (M_counter c);
        c)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.value by)
let counter_value c = Atomic.get c.value

let gauge name =
  with_lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some (M_gauge g) -> g
      | Some _ | None ->
        let g = { g_name = name; g = 0. } in
        Hashtbl.replace table name (M_gauge g);
        g)

let set g v = g.g <- v
let set_int g v = g.g <- float_of_int v

let publish counts =
  if enabled () then List.iter (fun (name, n) -> incr ~by:n (counter name)) counts

let default_buckets =
  (* 1-2-5 decades, 1e2 .. 1e9. *)
  Array.concat
    (List.map
       (fun d -> [| 1. *. d; 2. *. d; 5. *. d |])
       [ 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 ])

let histogram ?(buckets = default_buckets) name =
  with_lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some (M_histogram h) -> h
      | Some _ | None ->
        let h =
          { h_name = name;
            buckets = Array.copy buckets;
            counts = Array.make (Array.length buckets + 1) 0;
            h_count = 0;
            h_sum = 0.;
            h_min = infinity;
            h_max = neg_infinity }
        in
        Hashtbl.replace table name (M_histogram h);
        h)

let observe h v =
  let n = Array.length h.buckets in
  let rec slot i = if i >= n || v <= h.buckets.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let histogram_count h = h.h_count
let histogram_sum h = h.h_sum
let histogram_max h = if h.h_count = 0 then None else Some h.h_max

(* ----------------------------------------------------------- events *)

type event = { seq : int; name : string; fields : (string * string) list }

let event_capacity = 256
let event_ring : event option array = Array.make event_capacity None
let event_next = ref 0      (* next write slot *)
let event_seq = ref 0

let event ?(fields = []) name =
  if enabled () then
    with_lock (fun () ->
        let seq = !event_seq in
        event_seq := seq + 1;
        event_ring.(!event_next) <- Some { seq; name; fields };
        event_next := (!event_next + 1) mod event_capacity)

let events () =
  with_lock (fun () ->
      let slots =
        List.init event_capacity (fun i ->
            event_ring.((!event_next + i) mod event_capacity))
      in
      List.filter_map Fun.id slots)

(* --------------------------------------------------------- snapshot *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      buckets : float array;
      counts : int array;
      count : int;
      sum : float;
      min : float;
      max : float;
    }

type row = { name : string; value : value }
type snapshot = { rows : row list; recent_events : event list }

let snapshot () =
  let rows =
    with_lock (fun () ->
        Hashtbl.fold
          (fun name metric acc ->
            let value =
              match metric with
              | M_counter c -> Counter (Atomic.get c.value)
              | M_gauge g -> Gauge g.g
              | M_histogram h ->
                Histogram
                  { buckets = Array.copy h.buckets;
                    counts = Array.copy h.counts;
                    count = h.h_count;
                    sum = h.h_sum;
                    min = h.h_min;
                    max = h.h_max }
            in
            { name; value } :: acc)
          table [])
  in
  { rows = List.sort (fun a b -> compare a.name b.name) rows;
    recent_events = events () }

(* Bucketed quantile estimation.  The nearest-rank sample's bucket is
   exact (cumulative counts); within the bucket we interpolate
   linearly, with the exact min/max side-cars bounding the first and
   the +inf bucket.  Resolution is thus the bucket width — the exact
   quantile is guaranteed to lie in the same bucket. *)
let quantile value q =
  if not (q >= 0. && q <= 1.) then invalid_arg "Obs.quantile";
  match value with
  | Counter _ | Gauge _ -> None
  | Histogram { buckets; counts; count; min; max; _ } ->
    if count = 0 then None
    else begin
      let rank =
        Stdlib.max 1
          (Stdlib.min count (int_of_float (ceil (q *. float_of_int count))))
      in
      let nb = Array.length buckets in
      let rec go i cum =
        if i > nb then Some max
        else begin
          let here = counts.(i) in
          if cum + here >= rank then begin
            let lower = if i = 0 then min else Stdlib.max min buckets.(i - 1) in
            let upper = if i = nb then max else Stdlib.min max buckets.(i) in
            let upper = Stdlib.max lower upper in
            let frac = float_of_int (rank - cum) /. float_of_int here in
            Some (lower +. (frac *. (upper -. lower)))
          end
          else go (i + 1) (cum + here)
        end
      in
      go 0 0
    end

(* ------------------------------------------------------------ sinks *)

let pp_value ppf = function
  | Counter n -> Format.fprintf ppf "%d" n
  | Gauge v ->
    if Float.is_integer v && Float.abs v < 1e15 then
      Format.fprintf ppf "%.0f" v
    else Format.fprintf ppf "%g" v
  | Histogram { count; sum; min; max; _ } ->
    if count = 0 then Format.fprintf ppf "count=0"
    else
      Format.fprintf ppf "count=%d sum=%g mean=%g min=%g max=%g" count sum
        (sum /. float_of_int count)
        min max

let pp_table ppf { rows; recent_events } =
  let width =
    List.fold_left (fun w r -> Stdlib.max w (String.length r.name)) 0 rows
  in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-*s  %a@," width r.name pp_value r.value)
    rows;
  (match recent_events with
  | [] -> ()
  | evs ->
    Format.fprintf ppf "-- events (%d most recent) --@," (List.length evs);
    List.iter
      (fun e ->
        Format.fprintf ppf "%6d  %s%s@," e.seq e.name
          (match e.fields with
          | [] -> ""
          | fs ->
            " "
            ^ String.concat " "
                (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) fs)))
      evs);
  Format.fprintf ppf "@]"

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v =
  if Float.is_nan v then "null"
  else if v = infinity then "\"inf\""
  else if v = neg_infinity then "\"-inf\""
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let to_json_lines { rows; recent_events } =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter
    (fun r ->
      match r.value with
      | Counter n ->
        line "{\"name\": \"%s\", \"kind\": \"counter\", \"value\": %d}"
          (json_escape r.name) n
      | Gauge v ->
        line "{\"name\": \"%s\", \"kind\": \"gauge\", \"value\": %s}"
          (json_escape r.name) (json_float v)
      | Histogram { buckets; counts; count; sum; min; max } ->
        let pairs =
          String.concat ", "
            (List.init (Array.length counts) (fun i ->
                 let le =
                   if i < Array.length buckets then json_float buckets.(i)
                   else "\"inf\""
                 in
                 Printf.sprintf "{\"le\": %s, \"count\": %d}" le counts.(i)))
        in
        line
          "{\"name\": \"%s\", \"kind\": \"histogram\", \"count\": %d, \
           \"sum\": %s, \"min\": %s, \"max\": %s, \"buckets\": [%s]}"
          (json_escape r.name) count (json_float sum)
          (json_float (if count = 0 then 0. else min))
          (json_float (if count = 0 then 0. else max))
          pairs)
    rows;
  List.iter
    (fun e ->
      let fields =
        String.concat ", "
          (List.map
             (fun (k, v) ->
               Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v))
             e.fields)
      in
      line
        "{\"kind\": \"event\", \"seq\": %d, \"name\": \"%s\", \"fields\": {%s}}"
        e.seq (json_escape e.name) fields)
    recent_events;
  Buffer.contents buf

let reset () =
  with_lock (fun () ->
      Hashtbl.reset table;
      Array.fill event_ring 0 event_capacity None;
      event_next := 0;
      event_seq := 0)
