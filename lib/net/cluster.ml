module Rng = Ssx_faults.Rng

type policy = Round_robin | Fair_random | Daemon of Ssx_stab.Adversary.t

type node = { machine : Ssx.Machine.t; nic : Nic.t }

type t = {
  nodes : node array;
  policy : policy;
  ticks_per_slot : int;
  latency : int;  (* minimum link latency, and thus the shard lookahead *)
  seed : int64;
  mutable rng : Rng.t;
  mutable links : Link.t array;
  mutable out_links : int list array;  (* node -> link indices, creation order *)
  mutable step_count : int;
  mutable abstract : (int -> int) option;  (* per-node state for daemons *)
  mutable skipped_slots : int;  (* slots a daemon idled (crashed node) *)
  mutable broken : bool;  (* a node raised mid-run; runs refuse until restore *)
}

let create ?(policy = Round_robin) ?(ticks_per_slot = 50) ?(latency = 1) ~seed
    nodes =
  if Array.length nodes = 0 then invalid_arg "Cluster.create: no nodes";
  if ticks_per_slot <= 0 then invalid_arg "Cluster.create: ticks_per_slot";
  if latency < 1 then invalid_arg "Cluster.create: latency";
  { nodes; policy; ticks_per_slot; latency; seed;
    rng = Rng.create (Rng.derive seed 0);
    links = [||];
    out_links = Array.make (Array.length nodes) [];
    step_count = 0;
    abstract = None;
    skipped_slots = 0;
    broken = false }

let size t = Array.length t.nodes
let steps t = t.step_count
let latency t = t.latency
let policy t = t.policy
let skipped_slots t = t.skipped_slots
let set_abstract t read = t.abstract <- Some read

(* Which node runs step [now]?  [None] is an idle slot: no node runs,
   but deliveries and the step counter still advance.  The RNG passed
   in is a shard's replayed copy of the cluster's — every shard's
   policy consumes the identical stream. *)
let choose_slot t ~now rng =
  let n = size t in
  match t.policy with
  | Round_robin -> Some (now mod n)
  | Fair_random -> Some (Rng.int rng n)
  | Daemon d ->
    Ssx_stab.Adversary.choose d
      { Ssx_stab.Adversary.now; size = n; rng; state = t.abstract }

let stateful_policy t =
  match t.policy with
  | Daemon d -> d.Ssx_stab.Adversary.stateful
  | Round_robin | Fair_random -> false
let machine t i = t.nodes.(i).machine
let nic t i = t.nodes.(i).nic
let links t = t.links

let connect ?faults t ~src ~dst =
  let n = size t in
  if src < 0 || src >= n || dst < 0 || dst >= n || src = dst then
    invalid_arg "Cluster.connect: bad endpoints";
  let index = Array.length t.links in
  let rng = Rng.create (Rng.derive t.seed (index + 1)) in
  let link = Link.create ~latency:t.latency ?faults ~rng ~src ~dst () in
  t.links <- Array.append t.links [| link |];
  t.out_links.(src) <- t.out_links.(src) @ [ index ];
  link

let ring_edges ~n =
  if n < 2 then invalid_arg "Cluster.ring_edges: need at least two nodes";
  List.init n (fun i -> (i, (i + 1) mod n))

let star_edges ~n =
  if n < 2 then invalid_arg "Cluster.star_edges: need at least two nodes";
  List.concat (List.init (n - 1) (fun i -> [ (0, i + 1); (i + 1, 0) ]))

let mesh_edges ~n =
  List.concat
    (List.init n (fun src ->
         List.filter_map
           (fun dst -> if src = dst then None else Some (src, dst))
           (List.init n Fun.id)))

let torus_edges ~rows ~cols =
  if rows < 2 || cols < 2 then invalid_arg "Cluster.torus_edges: need 2x2";
  let id r c = (((r + rows) mod rows) * cols) + ((c + cols) mod cols) in
  List.concat
    (List.init rows (fun r ->
         List.concat
           (List.init cols (fun c ->
                let src = id r c in
                (* On a 2-wide dimension both wraparound neighbours are
                   the same node; sort_uniq keeps the edge list simple. *)
                let neighbours =
                  List.sort_uniq compare
                    [ id (r - 1) c; id (r + 1) c; id r (c - 1); id r (c + 1) ]
                in
                List.map (fun dst -> (src, dst)) neighbours))))

(* Strong connectivity of a directed edge list: BFS over the forward
   edges and over the reversed edges both reach every node from 0. *)
let strongly_connected ~n edges =
  let reaches_all adj =
    let seen = Array.make n false in
    let queue = Queue.create () in
    seen.(0) <- true;
    Queue.push 0 queue;
    let count = ref 1 in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      List.iter
        (fun w ->
          if not seen.(w) then begin
            seen.(w) <- true;
            incr count;
            Queue.push w queue
          end)
        adj.(v)
    done;
    !count = n
  in
  let fwd = Array.make n [] and rev = Array.make n [] in
  List.iter
    (fun (src, dst) ->
      fwd.(src) <- dst :: fwd.(src);
      rev.(dst) <- src :: rev.(dst))
    edges;
  reaches_all fwd && reaches_all rev

let random_edges ~n ~degree ~seed =
  if n < 2 then invalid_arg "Cluster.random_edges: need at least two nodes";
  if degree < 1 || degree > n - 1 then
    invalid_arg "Cluster.random_edges: degree";
  (* Each node picks [degree] distinct random out-neighbours — a
     genuinely random sample, which can come out disconnected (a
     partitioned graph would make convergence experiments silently
     meaningless).  Rejection-sample: disconnected draws are retried
     under seeds derived from [seed] (so the result is still a pure
     function of the arguments).  A uniform random out-degree-d
     digraph is strongly connected with probability approaching 1 as
     n grows for d >= 2, and well above 1/4 in the small-n worst cases
     here, so 64 attempts fail with probability below 2^-64·ish for
     d >= 2; sparse d = 1 draws (random functional graphs, almost
     always disconnected) fall through to the repair below.  The last
     attempt is repaired by adding the ring-successor backbone edges
     not already present, which forces strong connectivity at the
     cost of raising some out-degrees by one. *)
  let attempts = 64 in
  let sample rng =
    List.concat
      (List.init n (fun src ->
           let chosen = ref [] in
           let count = ref 0 in
           while !count < degree do
             let dst = Rng.int rng n in
             if dst <> src && not (List.mem dst !chosen) then begin
               chosen := dst :: !chosen;
               incr count
             end
           done;
           List.rev_map (fun dst -> (src, dst)) !chosen))
  in
  let rec go attempt =
    let edges = sample (Rng.create (Rng.derive seed attempt)) in
    if strongly_connected ~n edges then edges
    else if attempt + 1 < attempts then go (attempt + 1)
    else
      edges
      @ List.filter
          (fun edge -> not (List.mem edge edges))
          (ring_edges ~n)
  in
  go 0

let connect_many ?faults t edges =
  List.iter
    (fun (src, dst) ->
      let faults = Option.map (fun f -> f ~src ~dst) faults in
      ignore (connect ?faults t ~src ~dst))
    edges

(* Run one node's slot and return what it transmitted. *)
let run_node_collect t who =
  let node = t.nodes.(who) in
  Ssx.Machine.run node.machine ~ticks:t.ticks_per_slot;
  Nic.drain_tx node.nic

let deliver_due t link ~now =
  match Link.due link ~now with
  | [] -> ()
  | words ->
    let nic = t.nodes.(Link.dst link).nic in
    List.iter (fun word -> ignore (Nic.deliver nic word)) words

(* --- the stepper (conservative DES) ------------------------------------ *)

(* Contiguous block partition: shard k owns nodes [k*n/shards,
   (k+1)*n/shards).  A link belongs to the shard of its *destination*,
   so all links feeding one NIC live in one shard and their relative
   creation order — which fixes the per-NIC delivery interleaving — is
   preserved. *)
let shard_of ~shards ~n i = i * shards / n

(* Delivery calendars are keyed by step.  Keys are consecutive steps,
   so the identity spreads them perfectly over the buckets. *)
module Calendar = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Fun.id
end)

(* The conservative-DES window.  A word sent at step [s] becomes
   deliverable no earlier than step [s + latency] (Link.enqueue), and
   delivery scans run with [now = s' + 1], so the earliest scan that can
   pop it is the one after step [s + latency - 1].  A shard advancing
   [h <= latency - 1] steps blind therefore cannot miss a delivery it
   has not yet been told about: everything sent inside a window first
   comes due in the *next* window, after the barrier has exchanged it.
   See DESIGN.md §4h for the full argument.

   Every shard replays the complete global schedule (its own copy of
   the cluster RNG included), runs only the slots of nodes it owns, and
   scans only the links it owns.  Cross-shard sends go into
   double-buffered per-(source shard, owner shard) outboxes indexed by
   window parity — written by the source's shard during window [w],
   drained by the owner at the start of window [w + 1] via ordinary
   [Link.send ~now:s] calls in step order, so the link's own RNG
   stream (drop/jitter/corruption draws) is consumed exactly as in a
   one-shard run.  The barrier publishes the plain outbox writes
   (Pool.Barrier).

   Workers must not leak exceptions (a dead worker hangs its peers at
   the barrier), so window bodies are guarded: the first exception is
   parked in [poison], every shard checks it before starting a window,
   and all shards still perform the same number of barrier waits.  The
   run then stops part-way, with some nodes stepped further than the
   step counter says, so the cluster is marked [broken] and refuses to
   run until a snapshot is restored. *)
let run_sharded_gen ~shards ?jobs ~record t ~steps =
  if steps < 0 then invalid_arg "Cluster.run_sharded: steps";
  if t.broken then
    invalid_arg
      "Cluster.run_sharded: a node raised in an earlier run; restore a \
       snapshot first";
  let n = size t in
  let shards =
    (* latency 1 means zero lookahead: nothing to overlap, stay on one
       shard.  A stateful daemon (the adaptive adversary) reads other
       nodes' live state each step, which only a one-shard schedule
       makes well-defined, so it forces one shard too.  Callers get
       the documented fallback silently so shard count can be varied
       without caring about the topology or policy. *)
    if t.latency < 2 || stateful_policy t then 1 else max 1 (min shards n)
  in
  if steps = 0 then []
  else begin
    (* One shard has no one to exchange with, so it runs the whole call
       as a single window: the lookahead only bounds cross-shard
       exchange. *)
    let h = if shards = 1 then steps else t.latency - 1 in
    let base = t.step_count in
    let nlinks = Array.length t.links in
    let owner =
      Array.map (fun link -> shard_of ~shards ~n (Link.dst link)) t.links
    in
    let owned =
      Array.init shards (fun k ->
          let acc = ref [] in
          for li = nlinks - 1 downto 0 do
            if owner.(li) = k then acc := li :: !acc
          done;
          !acc)
    in
    (* Cross-shard mail, double-buffered by window parity.  One cell
       per (source shard, owner shard) pair — a single writer during a
       window, a single reader at the next window's start — holding
       [(link, step, words)] sends in reverse step order.  A link has
       one source node, hence one writing shard, so its sends all land
       in one cell and replay in step order after the [List.rev]. *)
    let outboxes = Array.init 2 (fun _ -> Array.make_matrix shards shards []) in
    let nwindows = (steps + h - 1) / h in
    (* Logical shards vs physical domains, the classic conservative-DES
       split: the partition (and with it every observable) is fixed by
       [shards] alone, while the shard bodies are multiplexed onto at
       most {!Pool.default_jobs} domains — one domain just runs its
       shards' window bodies back to back before the barrier.  A shard
       only touches its own nodes, its own links and its own nodes'
       outbox slots during a window, so bodies commute within a window
       and the multiplexing is invisible.  Spawning more domains than
       cores would actively hurt: every minor GC is a stop-the-world
       rendezvous across domains the scheduler then has to rotate
       through. *)
    let cap =
      match jobs with None -> Pool.default_jobs () | Some j -> max 1 j
    in
    let domains = max 1 (min shards cap) in
    let barrier = Pool.Barrier.create domains in
    let poison = Atomic.make None in
    let rngs = Array.init shards (fun _ -> Rng.copy t.rng) in
    let logs = Array.make shards [] in
    (* Per-shard delivery calendar: [deliver_at -> links whose head
       message lands then], owned links only.  Per-link delivery steps
       are non-decreasing (the FIFO clamp), so a queue's head — the
       only message [due] can return next — changes only when [due]
       pops it; a send behind a non-empty queue never does.  The
       calendar therefore stays exact under two maintenance events:
       re-schedule after a pop, and schedule when a send lands on an
       empty queue.  That makes the per-step delivery work O(due links)
       — one hash probe and the pops — instead of an O(links) scan of
       every link every step (the test oracle in test/test_net.ml); at
       a thousand nodes that scan would be the whole cost of a step.
       At each step the due links are processed in creation order (the
       sort below), so shared-destination NICs see the RX interleaving
       the scan defines. *)
    let calendars = Array.init shards (fun _ -> Calendar.create 64) in
    let worker d =
      let members =
        let acc = ref [] in
        for me = shards - 1 downto 0 do
          if me * domains / shards = d then acc := me :: !acc
        done;
        !acc
      in
      let schedule me li =
        match Link.next_deliver_at t.links.(li) with
        | Some at ->
          let cal = calendars.(me) in
          Calendar.replace cal at
            (li :: Option.value (Calendar.find_opt cal at) ~default:[])
        | None -> ()
      in
      let send_all me li ~now words =
        let link = t.links.(li) in
        let was_empty = Link.in_flight link = 0 in
        List.iter (fun w -> Link.send link ~now w) words;
        if was_empty then schedule me li
      in
      let apply_inbox me parity =
        for src = 0 to shards - 1 do
          match outboxes.(parity).(src).(me) with
          | [] -> ()
          | pending ->
            outboxes.(parity).(src).(me) <- [];
            List.iter
              (fun (li, s, words) -> send_all me li ~now:s words)
              (List.rev pending)
        done
      in
      let window me w =
        if w > 0 then apply_inbox me ((w - 1) land 1);
        let wstart = base + (w * h) in
        let wlen = min h (steps - (w * h)) in
        let cal = calendars.(me) in
        for s = wstart to wstart + wlen - 1 do
          (* Every shard replays the full schedule (same RNG copy, same
             daemon), so idle slots are agreed on by all shards; shard 0
             alone accounts for them. *)
          (match choose_slot t ~now:s rngs.(me) with
          | None -> if me = 0 then t.skipped_slots <- t.skipped_slots + 1
          | Some who ->
            if shard_of ~shards ~n who = me then begin
              (match run_node_collect t who with
              | [] -> ()
              | words ->
                List.iter
                  (fun li ->
                    let dst = owner.(li) in
                    if dst = me then send_all me li ~now:s words
                    else
                      outboxes.(w land 1).(me).(dst) <-
                        (li, s, words) :: outboxes.(w land 1).(me).(dst))
                  t.out_links.(who));
              match record with
              | None -> ()
              | Some f -> logs.(me) <- (s, who, f t who) :: logs.(me)
            end);
          let now = s + 1 in
          match Calendar.find_opt cal now with
          | None -> ()
          | Some due ->
            Calendar.remove cal now;
            List.iter
              (fun li ->
                deliver_due t t.links.(li) ~now;
                schedule me li)
              (List.sort Int.compare due)
        done
      in
      let guarded body =
        if Atomic.get poison = None then
          try body ()
          with exn ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set poison None (Some (exn, bt)))
      in
      (* Seed each calendar from the links' current in-flight heads —
         the only full scan of the run. *)
      List.iter (fun me -> List.iter (schedule me) owned.(me)) members;
      for w = 0 to nwindows - 1 do
        List.iter (fun me -> guarded (fun () -> window me w)) members;
        Pool.Barrier.await barrier
      done;
      (* The final window's cross-shard traffic was never drained; flush
         it so link occupancy (part of the digest) matches a one-shard
         run exactly. *)
      List.iter
        (fun me -> guarded (fun () -> apply_inbox me ((nwindows - 1) land 1)))
        members
    in
    let (_ : unit array) = Pool.run_shards ~shards:domains worker in
    (match Atomic.get poison with
    | Some (exn, bt) ->
      t.broken <- true;
      Printexc.raise_with_backtrace exn bt
    | None -> ());
    t.rng <- rngs.(0);
    t.step_count <- base + steps;
    match logs with
    | [| log |] -> List.rev log
    | logs ->
      Array.to_list logs
      |> List.concat_map List.rev
      |> List.sort (fun (s1, _, _) (s2, _, _) -> Int.compare s1 s2)
  end

let run_sharded ?(shards = 1) ?jobs t ~steps =
  let (_ : (int * int * unit) list) =
    run_sharded_gen ~shards ?jobs ~record:None t ~steps
  in
  ()

let run_sharded_log ~record t ~steps =
  run_sharded_gen ~shards:1 ~record:(Some record) t ~steps

(* One stepper call, then its log walked step by step: [visit after
   slot] for each step in order, where [after] is the step count once
   the step is done and [slot] the node that ran with its record
   ([None] for an idle slot).  Stops at the first [true] and returns
   that step's [after]. *)
let replay_call ~record t ~steps visit =
  let base = t.step_count in
  let log = run_sharded_log ~record t ~steps in
  let rec walk s log =
    if s >= base + steps then None
    else begin
      let slot, rest =
        match log with
        | (ls, who, v) :: rest when ls = s -> (Some (who, v), rest)
        | _ -> (None, log)
      in
      if visit (s + 1) slot then Some (s + 1) else walk (s + 1) rest
    end
  in
  walk base log

let replay ~record t ~steps visit =
  ignore
    (replay_call ~record t ~steps (fun after slot ->
         visit after slot;
         false))

(* Searches run in chunks whose length depends only on the latency, so
   the cluster overshoots the step found by less than one chunk. *)
let replay_until ~record t ~limit visit =
  let chunk = 16 * max 1 (t.latency - 1) in
  let start = t.step_count in
  let rec go consumed =
    if consumed >= limit then None
    else begin
      let steps = min chunk (limit - consumed) in
      match replay_call ~record t ~steps visit with
      | Some after -> Some (after - start)
      | None -> go (consumed + steps)
    end
  in
  go 0

(* Epoch hooks: chunk the run and call back on the stepping domain
   between chunks.  Each chunk is a complete [run_sharded_gen] call, so
   at every hook point all shards have joined and the cluster is
   exactly the state a one-shard run of the same prefix would have —
   the hook may mutate node machines (inject faults, pulse reset pins)
   or read joint state without breaking shard-count invariance.  The
   whole run stays bit-identical for any [shards]/[jobs] as long as the
   hook itself is deterministic. *)
let run_sharded_epochs ?(shards = 1) ?jobs ~epoch ~record
    ~on_epoch t ~steps =
  if epoch < 1 then invalid_arg "Cluster.run_sharded_epochs: epoch";
  if steps < 0 then invalid_arg "Cluster.run_sharded_epochs: steps";
  let rec go consumed index =
    if consumed < steps then begin
      let chunk = min epoch (steps - consumed) in
      let log =
        run_sharded_gen ~shards ?jobs ~record:(Some record) t ~steps:chunk
      in
      on_epoch index log;
      go (consumed + chunk) (index + 1)
    end
  in
  go 0 0

type snapshot = {
  node_snaps : Ssx.Snapshot.t array;
  link_restores : (unit -> unit) array;
  rng : Rng.t;
  step_count : int;
  skipped_slots : int;
}

let capture t =
  if t.broken then
    invalid_arg
      "Cluster.capture: a node raised mid-run; restore a snapshot first";
  { node_snaps = Array.map (fun n -> Ssx.Snapshot.capture n.machine) t.nodes;
    link_restores = Array.map Link.capture t.links;
    rng = Rng.copy t.rng;
    step_count = t.step_count;
    skipped_slots = t.skipped_slots }

let restore t snapshot =
  if Array.length snapshot.node_snaps <> size t then
    invalid_arg "Cluster.restore: node count mismatch";
  if Array.length snapshot.link_restores <> Array.length t.links then
    invalid_arg "Cluster.restore: link count mismatch";
  Array.iteri
    (fun i snap -> Ssx.Snapshot.restore snap t.nodes.(i).machine)
    snapshot.node_snaps;
  Array.iter (fun thunk -> thunk ()) snapshot.link_restores;
  t.rng <- Rng.copy snapshot.rng;
  t.step_count <- snapshot.step_count;
  t.skipped_slots <- snapshot.skipped_slots;
  t.broken <- false

let capture_node t i = Ssx.Snapshot.capture t.nodes.(i).machine
let restore_node t i snap = Ssx.Snapshot.restore snap t.nodes.(i).machine

let counts (t : t) =
  (("net.cluster.steps", t.step_count)
   :: (match t.policy with
      | Daemon d ->
        Ssx.Counts.label d.Ssx_stab.Adversary.name
          [ ("net.daemon.skipped-slots", t.skipped_slots) ]
      | Round_robin | Fair_random -> []))
  @ List.concat_map
      (fun link ->
        Ssx.Counts.label
          (Printf.sprintf "%d->%d" (Link.src link) (Link.dst link))
          (Link.counts link))
      (Array.to_list t.links)
  @ Ssx.Counts.indexed string_of_int
      (fun node -> Nic.counts ~family:"net.nic" node.nic)
      t.nodes

let digest t =
  let buffer = Buffer.create 256 in
  Array.iter
    (fun n ->
      Buffer.add_string buffer (Ssx.Snapshot.digest (Ssx.Snapshot.capture n.machine));
      Buffer.add_char buffer ';')
    t.nodes;
  Array.iter
    (fun link -> Buffer.add_string buffer (string_of_int (Link.in_flight link)))
    t.links;
  Buffer.add_string buffer (string_of_int t.step_count);
  Ssx.Digest.string (Buffer.contents buffer)
