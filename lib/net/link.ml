module Rng = Ssx_faults.Rng

type fault_model = {
  mutable drop : float;
  mutable duplicate : float;
  mutable max_delay : int;
  mutable corrupt : float;
}

let benign () = { drop = 0.; duplicate = 0.; max_delay = 0; corrupt = 0. }

let lossy ?(drop = 0.) ?(duplicate = 0.) ?(max_delay = 0) ?(corrupt = 0.) () =
  if drop < 0. || drop > 1. then invalid_arg "Link.lossy: drop";
  if duplicate < 0. || duplicate > 1. then invalid_arg "Link.lossy: duplicate";
  if max_delay < 0 then invalid_arg "Link.lossy: max_delay";
  if corrupt < 0. || corrupt > 1. then invalid_arg "Link.lossy: corrupt";
  { drop; duplicate; max_delay; corrupt }

type t = {
  src : int;
  dst : int;
  latency : int;  (* minimum steps in flight; immutable, >= 1 *)
  faults : fault_model;
  mutable rng : Rng.t;
  queue : (int * int) Queue.t;  (* (deliver_at, word), deliver_at ascending *)
  mutable last_deliver_at : int;
  mutable sent : int;
  mutable dropped : int;
  mutable delivered : int;
  mutable corrupted : int;
}

let create ?(latency = 1) ?faults ~rng ~src ~dst () =
  if latency < 1 then invalid_arg "Link.create: latency";
  let faults = match faults with Some f -> f | None -> benign () in
  { src; dst; latency; faults; rng; queue = Queue.create ();
    last_deliver_at = 0; sent = 0; dropped = 0; delivered = 0; corrupted = 0 }

let src t = t.src
let dst t = t.dst
let latency t = t.latency
let faults t = t.faults
let in_flight t = Queue.length t.queue
let sent t = t.sent
let dropped t = t.dropped
let delivered t = t.delivered
let corrupted t = t.corrupted

let counts t =
  [ ("net.link.sent", t.sent); ("net.link.delivered", t.delivered);
    ("net.link.dropped", t.dropped); ("net.link.corrupted", t.corrupted) ]

(* Probability draws are skipped entirely at probability zero, so a
   benign link consumes no randomness and its behaviour is independent
   of the RNG stream. *)
let chance t p = p > 0. && Rng.float t.rng < p

let enqueue t ~now word =
  let jitter =
    if t.faults.max_delay <= 0 then 0
    else Rng.int t.rng (t.faults.max_delay + 1)
  in
  (* FIFO under jitter: never deliver before an earlier message. *)
  let deliver_at = max (now + t.latency + jitter) t.last_deliver_at in
  t.last_deliver_at <- deliver_at;
  let word =
    if chance t t.faults.corrupt then begin
      t.corrupted <- t.corrupted + 1;
      let garbage = Rng.int t.rng 256 in
      if Rng.bool t.rng then (word land 0xFF00) lor garbage
      else (word land 0x00FF) lor (garbage lsl 8)
    end
    else word
  in
  Queue.push (deliver_at, word) t.queue

let send t ~now word =
  let word = Ssx.Word.mask word in
  t.sent <- t.sent + 1;
  if chance t t.faults.drop then t.dropped <- t.dropped + 1
  else begin
    enqueue t ~now word;
    if chance t t.faults.duplicate then enqueue t ~now word
  end

let next_deliver_at t =
  match Queue.peek_opt t.queue with
  | Some (deliver_at, _) -> Some deliver_at
  | None -> None

let due t ~now =
  if Queue.is_empty t.queue then []
  else
  let rec pop acc =
    match Queue.peek t.queue with
    | deliver_at, word when deliver_at <= now ->
      ignore (Queue.pop t.queue);
      t.delivered <- t.delivered + 1;
      pop (word :: acc)
    | _ -> List.rev acc
    | exception Queue.Empty -> List.rev acc
  in
  pop []

let capture t =
  let queue = Queue.copy t.queue in
  let last_deliver_at = t.last_deliver_at in
  let sent = t.sent and dropped = t.dropped in
  let delivered = t.delivered and corrupted = t.corrupted in
  let rng = Rng.copy t.rng in
  let { drop; duplicate; max_delay; corrupt } = t.faults in
  fun () ->
    Queue.clear t.queue;
    Queue.iter (fun m -> Queue.push m t.queue) queue;
    t.last_deliver_at <- last_deliver_at;
    t.sent <- sent;
    t.dropped <- dropped;
    t.delivered <- delivered;
    t.corrupted <- corrupted;
    t.rng <- Rng.copy rng;
    t.faults.drop <- drop;
    t.faults.duplicate <- duplicate;
    t.faults.max_delay <- max_delay;
    t.faults.corrupt <- corrupt
