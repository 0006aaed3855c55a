(* Counted only after a fault has actually landed, and never consuming
   randomness, so campaigns with metrics on replay the exact fault
   streams of campaigns with metrics off.  Counts only: the sums are
   the same however a campaign's trials split across workers, where
   one event per fault from every worker would not be. *)
let publish fault =
  if Ssos_obs.Obs.enabled () then begin
    Ssos_obs.Obs.incr (Ssos_obs.Obs.counter "fault.injected");
    Ssos_obs.Obs.incr
      (Ssos_obs.Obs.counter
         (Printf.sprintf "fault.injected{kind=%s}" (Fault.kind_name fault)))
  end

let run_poisson system ~rng ~space ~rate ~ticks =
  if not (rate >= 0.0 && rate <= 1.0) then
    invalid_arg "Injector.run_poisson: rate";
  if ticks < 0 then invalid_arg "Injector.run_poisson: ticks";
  let machine = system.Fault.machine in
  let ran = ref 0 in
  let landed = ref [] in
  for k = 1 to ticks do
    (* The draws that miss change nothing, so the machine runs on to
       the next arrival in one call. *)
    if Rng.float rng < rate then begin
      Ssx.Machine.run machine ~ticks:(k - !ran);
      ran := k;
      let fault = Fault.random rng space in
      if Fault.apply system fault then begin
        publish fault;
        landed := (Ssx.Machine.ticks machine, fault) :: !landed
      end
    end
  done;
  Ssx.Machine.run machine ~ticks:(ticks - !ran);
  List.rev !landed

(* A continuous host-level fault process over many systems.  Unlike
   [run_poisson], which runs its one machine itself, a process runs
   nothing: it is advanced explicitly by its caller, at whatever
   host-side boundary (e.g. a serve-engine epoch) keeps the
   surrounding execution deterministic.  All randomness comes from the
   process's own rng, so the arrival stream is independent of how the
   covered steps were executed. *)
type process = {
  p_rate : float;
  p_rng : Rng.t;
  p_targets : (Fault.system * Fault.space) array;
  mutable p_elapsed : int;
}

let process ~rate ~rng targets =
  if not (rate >= 0.0 && rate <= 1.0) then
    invalid_arg "Injector.process: rate";
  if Array.length targets = 0 then invalid_arg "Injector.process: targets";
  { p_rate = rate; p_rng = rng; p_targets = targets; p_elapsed = 0 }

let advance p ~steps =
  if steps < 0 then invalid_arg "Injector.advance: steps";
  let landed = ref [] in
  for s = 1 to steps do
    if Rng.float p.p_rng < p.p_rate then begin
      let target = Rng.int p.p_rng (Array.length p.p_targets) in
      let system, space = p.p_targets.(target) in
      let fault = Fault.random p.p_rng space in
      if Fault.apply system fault then begin
        publish fault;
        landed := (p.p_elapsed + s, target, fault) :: !landed
      end
    end
  done;
  p.p_elapsed <- p.p_elapsed + steps;
  List.rev !landed

let inject_now system ~rng ~space n =
  let rec loop k acc =
    if k = 0 then List.rev acc
    else
      let fault = Fault.random rng space in
      if Fault.apply system fault then begin
        publish fault;
        loop (k - 1) (fault :: acc)
      end
      else loop k acc
  in
  loop n []
