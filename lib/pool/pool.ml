(* Work-sharing domain pool for fault-injection campaigns.

   Trials are numbered tasks; idle domains steal the next index from a
   shared atomic counter, so a domain that draws short trials simply
   takes more of them.  Results land in a pre-sized array cell owned by
   exactly one writer, and [Domain.join] orders every write before the
   final read, so the caller always sees results in task order — the
   outcome of a campaign is a function of the seeds alone, never of the
   interleaving. *)

let default_jobs () =
  match Sys.getenv_opt "SSOS_JOBS" with
  | None | Some "" -> Domain.recommended_domain_count ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None ->
      invalid_arg
        (Printf.sprintf "SSOS_JOBS must be a positive integer (got %S)" s))

(* Domains beyond the core count are pure loss: OCaml's minor
   collections are stop-the-world across domains, and when domains
   outnumber cores every collection waits for descheduled domains to
   reach a safepoint (measured ~2.7x per-trial slowdown at 4 domains
   on 1 core).  So the effective worker count is min(ncores, jobs, n)
   unless the caller explicitly opts into oversubscription — the
   differential tests do, to exercise real cross-domain execution on
   any machine. *)
let resolve_jobs ~oversubscribe jobs n =
  let jobs =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  let jobs =
    if oversubscribe then jobs
    else min jobs (Domain.recommended_domain_count ())
  in
  min jobs n

(* Each worker materialises its state with [init] at most once, and
   only when it actually wins a task: spawning is cheap, but campaign
   state (a built machine plus its warmed-up snapshot) is not, so a
   domain that arrives after the queue has drained must not pay for
   one. *)
let run_with ?(oversubscribe = false) ?jobs ~init n f =
  if n <= 0 then [||]
  else begin
    let jobs = resolve_jobs ~oversubscribe jobs n in
    (* Per-worker throughput counters are registered only when
       observability is on.  They count completed tasks per domain, a
       quantity of the host, not of the run: it varies with the
       interleaving, so its rows carry the [{host}] mark. *)
    let task_counters =
      if Ssos_obs.Obs.enabled () then begin
        Ssos_obs.Obs.set_int (Ssos_obs.Obs.gauge "pool.jobs{host}") jobs;
        Some
          (Array.init jobs (fun w ->
               Ssos_obs.Obs.counter
                 (Printf.sprintf "pool.worker{id=%d}.tasks{host}" w)))
      end
      else None
    in
    let count_task wid =
      match task_counters with
      | Some counters -> Ssos_obs.Obs.incr counters.(wid)
      | None -> ()
    in
    let results = Array.make n None in
    let fill_sequentially () =
      let state = init () in
      for i = 0 to n - 1 do
        results.(i) <- Some (f state i);
        count_task 0
      done
    in
    if jobs = 1 then fill_sequentially ()
    else begin
      let next = Atomic.make 0 in
      let failure = Atomic.make None in
      let worker wid =
        let state = ref None in
        let force_state () =
          match !state with
          | Some s -> s
          | None ->
            let s = init () in
            state := Some s;
            s
        in
        let rec loop () =
          if Atomic.get failure = None then begin
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              (match f (force_state ()) i with
              | v ->
                results.(i) <- Some v;
                count_task wid
              | exception exn ->
                let bt = Printexc.get_raw_backtrace () in
                (* Keep the first failure; losing CAS races just means
                   someone else's exception is reported instead. *)
                ignore (Atomic.compare_and_set failure None (Some (exn, bt))));
              loop ()
            end
          end
        in
        loop ()
      in
      let spawned =
        Array.init (jobs - 1) (fun w -> Domain.spawn (fun () -> worker w))
      in
      (* The calling domain is worker number [jobs]. *)
      worker (jobs - 1);
      Array.iter Domain.join spawned;
      match Atomic.get failure with
      | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
      | None -> ()
    end;
    Array.map
      (function Some v -> v | None -> assert false (* all tasks ran *))
      results
  end

let run ?oversubscribe ?jobs n f =
  run_with ?oversubscribe ?jobs ~init:(fun () -> ()) n (fun () i -> f i)

(* --- phase-synchronized workers -------------------------------------- *)

(* The work-sharing pool above is for *independent* tasks: any domain
   may take any index, and nobody waits for anybody.  Sharded cluster
   stepping needs the opposite shape — a fixed set of workers that
   advance through the same sequence of phases in lockstep, with all
   of phase [p]'s writes visible to every worker before any of them
   starts phase [p+1].  That is a classic sense-reversing barrier. *)

module Barrier = struct
  type t = {
    parties : int;
    mutex : Mutex.t;
    cond : Condition.t;
    mutable count : int;
    mutable sense : bool;
  }

  let create parties =
    if parties < 1 then invalid_arg "Pool.Barrier.create: parties";
    { parties; mutex = Mutex.create (); cond = Condition.create ();
      count = 0; sense = false }

  let parties t = t.parties

  (* Sense-reversing, blocking.  A blocking barrier instead of a spin:
     with more parties than cores (always, on a single-core host) a
     spinner burns the rest of its timeslice waiting for a party the
     scheduler has not run yet, turning each rendezvous into
     milliseconds; [Condition.wait] hands the core over immediately.
     The mutex also makes crossing the barrier a happens-before edge
     between all parties — plain writes made before [await] (the
     outbox exchange in [Ssos_net.Cluster]) are visible after it,
     exactly like [Domain.join] is for the task pool. *)
  let await t =
    if t.parties > 1 then begin
      Mutex.lock t.mutex;
      let target = not t.sense in
      t.count <- t.count + 1;
      if t.count = t.parties then begin
        t.count <- 0;
        t.sense <- target;
        Condition.broadcast t.cond
      end
      else
        while t.sense <> target do
          Condition.wait t.cond t.mutex
        done;
      Mutex.unlock t.mutex
    end
end

(* Spawn exactly [shards] workers — one per shard index, the calling
   domain included as the last — and return their results in shard
   order.  Unlike {!run} there is no work stealing and no clamping:
   the workers are expected to rendezvous on a {!Barrier}, so the
   caller gets precisely the parties it asked for or the whole scheme
   deadlocks.  [f] must not raise: a worker that dies mid-phase can
   never reach the barrier again and would hang its peers, so callers
   wrap their phase bodies and turn exceptions into a poison flag
   checked at phase boundaries (see {!Ssos_net.Cluster.run_sharded}). *)
let run_shards ~shards f =
  if shards < 1 then invalid_arg "Pool.run_shards: shards";
  if shards = 1 then [| f 0 |]
  else begin
    let results = Array.make shards None in
    let spawned =
      Array.init (shards - 1) (fun k ->
          Domain.spawn (fun () -> results.(k) <- Some (f k)))
    in
    results.(shards - 1) <- Some (f (shards - 1));
    Array.iter Domain.join spawned;
    Array.map
      (function Some v -> v | None -> assert false (* joined *))
      results
  end
