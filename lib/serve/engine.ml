type slo = {
  availability : float;
  max_p99 : int;
  window : int;
  patience : int;
  grace : int;
}

let default_slo =
  { availability = 0.85; max_p99 = 0; window = 3; patience = 2; grace = 8 }

type incident = {
  cause : string;
  opened_at : int;
  closed_at : int option;
  repair_fired : bool;
}

type mttr = {
  kind : string;
  incidents : int;
  mean_steps : float;
  max_steps : int;
}

type window = {
  epoch : int;
  step : int;
  w_injected : int;
  w_committed : int;
  w_availability : float;
  w_p50 : int;
  w_p99 : int;
  ring_legal : bool;
  healthy : bool;
  faults_landed : int;
}

type summary = {
  nodes : int;
  duration : int;
  epochs : int;
  injected : int;
  committed : int;
  dropped : int;
  fault_arrivals : (string * int) list;
  incidents : incident list;
  detected : int;
  repaired : int;
  repairs : int;
  availability : float;
  min_window_availability : float;
  p50 : int;
  p99 : int;
  mttr : mttr list;
  final_legal : bool;
  slo_met : bool;
}

(* Exact nearest-rank percentile, as in Runner.distribution: the
   q-percentile is the ceil(q * count)-th smallest. *)
let nearest_rank sorted q =
  let count = Array.length sorted in
  let rank = int_of_float (ceil (q *. float_of_int count)) in
  sorted.(max 0 (min (count - 1) (rank - 1)))

(* The p50 and p99 of one latency list, sorted once; -1 for none. *)
let p50_p99 latencies =
  match latencies with
  | [] -> (-1, -1)
  | l ->
    let sorted = Array.of_list l in
    Array.sort Int.compare sorted;
    (nearest_rank sorted 0.5, nearest_rank sorted 0.99)

let mttr_of_incidents incidents =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun inc ->
      match inc.closed_at with
      | None -> ()
      | Some closed ->
        let steps = closed - inc.opened_at in
        let count, sum, mx =
          Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl inc.cause)
        in
        Hashtbl.replace tbl inc.cause (count + 1, sum + steps, max mx steps))
    incidents;
  Hashtbl.fold
    (fun kind (incidents, sum, max_steps) acc ->
      { kind;
        incidents;
        mean_steps = float_of_int sum /. float_of_int incidents;
        max_steps }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.kind b.kind)

let serve ?(nodes = 5) ?(rate = 0.05) ?(fault_rate = 0.0) ?(epoch = 150)
    ?(warmup = 600) ?(latency = 2) ?(slo = default_slo) ?(shards = 1) ?jobs
    ?report ~duration ~seed () =
  if duration < 0 then invalid_arg "Engine.serve: duration";
  if epoch < 1 then invalid_arg "Engine.serve: epoch";
  if slo.patience < 1 then invalid_arg "Engine.serve: patience";
  if slo.window < 1 then invalid_arg "Engine.serve: window";
  if not (slo.availability >= 0.0 && slo.availability <= 1.0) then
    invalid_arg "Engine.serve: availability";
  let service =
    Ssos_rsm.Service.build ~n:nodes ~latency
      ~seed:(Ssx_faults.Rng.derive seed 1) ()
  in
  let cluster = service.Ssos_rsm.Service.cluster in
  (* Fault-free warmup to the serving steady state: the detectors
     below assume the loop starts from a legitimate configuration, the
     same assumption every campaign's warmup phase makes. *)
  Ssos_net.Cluster.run_sharded ~shards ?jobs cluster ~steps:warmup;
  let wl =
    Ssos_rsm.Workload.open_loop ~rate ~seed:(Ssx_faults.Rng.derive seed 2)
      service
  in
  Ssos_rsm.Workload.discard wl;
  let faults =
    Ssx_faults.Injector.process ~rate:fault_rate
      ~rng:(Ssx_faults.Rng.create (Ssx_faults.Rng.derive seed 3))
      (Array.map
         (fun sys -> (Ssos.Sched.fault_system sys, Ssos.Sched.fault_space sys))
         service.Ssos_rsm.Service.systems)
  in
  let obs = Ssos_obs.Obs.enabled () in
  (* Loop state.  Everything below is derived from the workload's
     merged log, the cluster step counter and the fault process — all
     bit-identical across shards/jobs — so the summary is too. *)
  let epochs = (duration + epoch - 1) / epoch in
  let injected_mark = ref 0 in
  let committed_mark = ref 0 in
  (* The SLO window trails [slo.window] epochs: a single epoch's
     commit/inject ratio jitters around 1 even in a fault-free run
     (requests in flight at the window edge commit in the next one),
     so breaches are judged over the trailing window, which smooths
     the pipeline-fill noise but still collapses within an epoch or
     two of a real outage. *)
  let trail_injected = Array.make slo.window 0 in
  let trail_committed = Array.make slo.window 0 in
  let trail_latencies = Array.make slo.window [] in
  let all_latencies = ref [] in
  let min_window_availability = ref 1.0 in
  let unhealthy_run = ref 0 in
  (* (epoch, kind) per arrival, newest first.  An incident is
     attributed to the most recent arrival within the trailing SLO
     window plus patience — faults can sit dormant for an epoch or two
     (e.g. a corrupted watchdog counter) before they break a window. *)
  let arrival_log = ref [] in
  let attribution_horizon = slo.window + slo.patience in
  let fault_counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let open_incident = ref None in
  let incidents = ref [] in  (* closed or abandoned, newest first *)
  let detected = ref 0 in
  let repaired = ref 0 in
  let repairs = ref 0 in
  let last_repair_epoch = ref (-max_int / 2) in
  let inject ahead_of steps =
    if fault_rate > 0.0 && steps > 0 then begin
      let landed = Ssx_faults.Injector.advance faults ~steps in
      List.iter
        (fun (_, _, fault) ->
          let kind = Ssx_faults.Fault.kind_name fault in
          arrival_log := (ahead_of, kind) :: !arrival_log;
          Hashtbl.replace fault_counts kind
            (1 + Option.value ~default:0 (Hashtbl.find_opt fault_counts kind)))
        landed;
      List.length landed
    end
    else 0
  in
  (* Arrivals for epoch [k] land while the cluster is quiescent, before
     epoch [k] runs: epoch 0's here, each later epoch's at the end of
     the preceding hook. *)
  let landed_this_epoch = ref (inject 0 (min epoch duration)) in
  let on_epoch index =
    let step = Ssos_net.Cluster.steps cluster in
    let injected = Ssos_rsm.Workload.injected wl in
    let committed = Ssos_rsm.Workload.committed wl in
    let w_injected = injected - !injected_mark in
    let w_committed = committed - !committed_mark in
    injected_mark := injected;
    committed_mark := committed;
    let latencies = Ssos_rsm.Workload.take_latencies wl in
    all_latencies := List.rev_append latencies !all_latencies;
    let slot = index mod slo.window in
    trail_injected.(slot) <- w_injected;
    trail_committed.(slot) <- w_committed;
    trail_latencies.(slot) <- latencies;
    let t_injected = Array.fold_left ( + ) 0 trail_injected in
    let t_committed = Array.fold_left ( + ) 0 trail_committed in
    let t_lats = List.concat (Array.to_list trail_latencies) in
    let w_availability =
      if t_injected = 0 then 1.0
      else
        Float.min 1.0 (float_of_int t_committed /. float_of_int t_injected)
    in
    (* The SLO detectors need a full trailing window before they can
       judge: the first epochs after warmup systematically under-count
       commits while the request pipeline fills (a fresh stream's first
       responses take a ring circulation to land), which is a startup
       transient, not an outage.  Until [slo.window] epochs exist the
       availability/latency detectors abstain — ring legality, which
       has no such transient, stays active from epoch 0. *)
    let warming = index + 1 < slo.window in
    if (not warming) && w_availability < !min_window_availability then
      min_window_availability := w_availability;
    let w_p50, w_p99 = p50_p99 t_lats in
    (* Detection: ring legality on the true counters — an invariant of
       the stabilized system, it does not flicker under traffic the way
       store coherence does — plus the windowed SLO breach detectors. *)
    let ring_legal =
      Ssx_stab.Distributed.legitimate
        ~states:(Ssos_rsm.Service.states service)
    in
    let healthy =
      ring_legal
      && (warming
         || w_availability >= slo.availability
            && (slo.max_p99 <= 0 || w_p99 < 0 || w_p99 <= slo.max_p99))
    in
    if healthy then begin
      (match !open_incident with
      | Some inc ->
        (* Recovery verified: a full healthy window closes the loop. *)
        incidents := { inc with closed_at = Some step } :: !incidents;
        repaired := !repaired + 1;
        open_incident := None;
        if obs then
          Ssos_obs.Obs.event "serve.incident.closed"
            ~fields:
              [ ("cause", inc.cause);
                ("mttr-steps", string_of_int (step - inc.opened_at)) ]
      | None -> ());
      unhealthy_run := 0
    end
    else begin
      incr unhealthy_run;
      (match !open_incident with
      | None ->
        let cause =
          match
            List.find_opt
              (fun (at, _) -> at >= index - attribution_horizon)
              !arrival_log
          with
          | Some (_, kind) -> kind
          | None -> "background"
        in
        detected := !detected + 1;
        open_incident :=
          Some { cause; opened_at = step; closed_at = None; repair_fired = false };
        if obs then begin
          Ssos_obs.Obs.incr (Ssos_obs.Obs.counter "serve.incidents");
          Ssos_obs.Obs.event "serve.incident.opened"
            ~fields:[ ("cause", cause); ("step", string_of_int step) ]
        end
      | Some _ -> ());
      (* Repair once detection has out-waited [patience] windows (the
         service self-repairs most faults via its own watchdogs; the
         engine only escalates), then hold off [grace] epochs for the
         reinstall to take. *)
      if !unhealthy_run >= slo.patience && index - !last_repair_epoch > slo.grace
      then begin
        Array.iter
          (fun sys ->
            (Ssx.Machine.cpu sys.Ssos.Sched.machine).Ssx.Cpu.reset_pin <- true)
          service.Ssos_rsm.Service.systems;
        repairs := !repairs + 1;
        last_repair_epoch := index;
        open_incident :=
          Option.map (fun inc -> { inc with repair_fired = true }) !open_incident;
        if obs then begin
          Ssos_obs.Obs.incr (Ssos_obs.Obs.counter "serve.repairs");
          Ssos_obs.Obs.event "serve.repair"
            ~fields:[ ("step", string_of_int step) ]
        end
      end
    end;
    if obs then begin
      Ssos_obs.Obs.set (Ssos_obs.Obs.gauge "serve.window-availability")
        w_availability;
      Ssos_obs.Obs.set_int (Ssos_obs.Obs.gauge "serve.window-p50-steps") w_p50;
      Ssos_obs.Obs.set_int (Ssos_obs.Obs.gauge "serve.window-p99-steps") w_p99;
      Ssos_obs.Obs.set_int (Ssos_obs.Obs.gauge "serve.step") step;
      Ssos_obs.Obs.incr ~by:w_injected (Ssos_obs.Obs.counter "serve.injected");
      Ssos_obs.Obs.incr ~by:w_committed (Ssos_obs.Obs.counter "serve.committed")
    end;
    (match report with
    | None -> ()
    | Some f ->
      f
        { epoch = index;
          step;
          w_injected;
          w_committed;
          w_availability;
          w_p50;
          w_p99;
          ring_legal;
          healthy;
          faults_landed = !landed_this_epoch });
    landed_this_epoch :=
      inject (index + 1) (min epoch (duration - ((index + 1) * epoch)))
  in
  Ssos_rsm.Workload.run_epochs ~shards ?jobs wl ~epoch ~steps:duration
    ~on_epoch;
  (* Wind-down: verify the service re-reaches full two-part legality
     (ring and stores) with traffic off — the recovered-state check
     every campaign ends with, bounded by a generous drain. *)
  let final_legal =
    Ssos_rsm.Service.run_until_stable service
      ~limit:(max (8 * epoch) 2_000)
    <> None
  in
  let injected = Ssos_rsm.Workload.injected wl in
  let committed = Ssos_rsm.Workload.committed wl in
  let availability =
    if injected = 0 then 1.0
    else float_of_int committed /. float_of_int injected
  in
  (* An incident still open at wind-down stays unrepaired in the
     record (closed_at = None) and fails the SLO. *)
  let incidents =
    List.rev
      (match !open_incident with
      | None -> !incidents
      | Some inc -> inc :: !incidents)
  in
  let fault_arrivals =
    Hashtbl.fold (fun kind count acc -> (kind, count) :: acc) fault_counts []
    |> List.sort compare
  in
  let p50, p99 = p50_p99 !all_latencies in
  let summary =
    { nodes;
      duration;
      epochs;
      injected;
      committed;
      dropped = Ssos_rsm.Workload.dropped wl;
      fault_arrivals;
      incidents;
      detected = !detected;
      repaired = !repaired;
      repairs = !repairs;
      availability;
      min_window_availability = !min_window_availability;
      p50;
      p99;
      mttr = mttr_of_incidents incidents;
      final_legal;
      slo_met =
        availability >= slo.availability
        && !open_incident = None
        && final_legal }
  in
  (* Wind-down publishes what the service counted, warmup and drain
     included: every node, link and NIC, each labelled. *)
  Ssos_obs.Obs.publish (Ssos_rsm.Service.counts service);
  if obs then
    Ssos_obs.Obs.event "serve.summary"
      ~fields:
        [ ("injected", string_of_int summary.injected);
          ("committed", string_of_int summary.committed);
          ("availability", Printf.sprintf "%.4f" summary.availability);
          ("incidents", string_of_int summary.detected);
          ("repaired", string_of_int summary.repaired) ];
  summary
