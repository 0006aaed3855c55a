type view = {
  now : int;
  size : int;
  rng : Ssx_faults.Rng.t;
  state : (int -> int) option;
}

type t = {
  name : string;
  stateful : bool;
  choose : view -> int option;
}

let choose t view = t.choose view

let starve ~victim () =
  if victim < 0 then invalid_arg "Adversary.starve: victim";
  let choose v =
    if victim >= v.size then invalid_arg "Adversary.starve: victim";
    (* Round-robin over the other size-1 nodes, skipping the victim by
       shifting the indices at or above it up by one. *)
    let r = v.now mod (v.size - 1) in
    Some (if r >= victim then r + 1 else r)
  in
  { name = Printf.sprintf "starve{%d}" victim; stateful = false; choose }

let crash ?period ~down_from ~down_for ~victim () =
  if victim < 0 then invalid_arg "Adversary.crash: victim";
  if down_from < 0 || down_for < 0 then invalid_arg "Adversary.crash: window";
  (match period with
  | Some p when p < 1 || p < down_for -> invalid_arg "Adversary.crash: period"
  | _ -> ());
  let down now =
    now >= down_from
    &&
    match period with
    | None -> now < down_from + down_for
    | Some p -> (now - down_from) mod p < down_for
  in
  let choose v =
    if victim >= v.size then invalid_arg "Adversary.crash: victim";
    let who = v.now mod v.size in
    if who = victim && down v.now then None else Some who
  in
  { name = Printf.sprintf "crash{%d}" victim; stateful = false; choose }

let distinct_values config =
  let seen = Hashtbl.create 8 in
  Array.iter (fun v -> Hashtbl.replace seen v ()) config;
  Hashtbl.length seen

let adaptive ?table ~k () =
  if k < 2 then invalid_arg "Adversary.adaptive: k";
  (match table with
  | Some tb when tb.Model.model.Model.k <> k ->
    invalid_arg "Adversary.adaptive: table k mismatch"
  | _ -> ());
  let choose v =
    let read =
      match v.state with
      | Some f -> f
      | None -> invalid_arg "Adversary.adaptive: no abstract state reader"
    in
    let n = v.size in
    let config = Array.init n (fun i -> Distributed.residue ~k (read i)) in
    let score_after i =
      let next = Array.copy config in
      next.(i) <- Distributed.move ~k ~states:config i;
      match table with
      | Some tb ->
        if tb.Model.model.Model.n <> n then
          invalid_arg "Adversary.adaptive: table n mismatch"
        else begin
          match Model.worst_of tb next with
          | -1 -> max_int  (* divergent: the adversary's jackpot *)
          | w -> w
        end
      | None ->
        (Distributed.token_count ~states:next * (n + 1)) + distinct_values next
    in
    let best = ref None in
    for i = 0 to n - 1 do
      if Distributed.privileged ~states:config i then begin
        let s = score_after i in
        match !best with
        | Some (_, sbest) when s <= sbest -> ()
        | _ -> best := Some (i, s)
      end
    done;
    (* Some node is always enabled (uniform values enable node 0). *)
    match !best with
    | None -> None
    | Some (t, _) ->
      (* Realizing the abstract move on a message-passing ring takes
         two kinds of slots: the target only fires once it has {e seen}
         its predecessor's current value, and its view only refreshes
         when the predecessor is scheduled (every node retransmits on
         every pass).  Scheduling the target alone would deadlock on a
         stale view — the daemon would starve the ring by accident
         instead of steering it.  So alternate by step parity: even
         slots run the target's predecessor (announce), odd slots run
         the target (read and move).  Both halves are pure in
         (now, config), so snapshot-restore and trial partitioning
         replay identically. *)
      Some (if v.now land 1 = 0 then (t + n - 1) mod n else t)
  in
  { name = "adaptive"; stateful = true; choose }
