(* The paper's closing claim, end to end: a self-stabilizing OS is the
   platform distributed self-stabilizing algorithms assume.  Four
   complete SSX16 machines — each booting the section 5.2 scheduler and
   one guest — run Dijkstra's K-state token ring over port-mapped NICs
   and lossy links.  Corrupt every layer on every node, and the cluster
   still reconverges to a single circulating privilege.

   Run with: dune exec examples/cluster_ring.exe *)

let show_states ring =
  let states = Ssos_net.Net_ring.states ring in
  let marks =
    String.concat " "
      (Array.to_list
         (Array.mapi
            (fun i s ->
              if Ssx_stab.Distributed.privileged ~states i then
                Printf.sprintf "[%d]*" s
              else Printf.sprintf " %d  " s)
            states))
  in
  Format.printf "  counters: %s   (%d privilege%s)@." marks
    (Ssos_net.Net_ring.token_count ring)
    (if Ssos_net.Net_ring.token_count ring = 1 then "" else "s")

let () =
  let n = 4 in
  Format.printf
    "A %d-machine cluster running Dijkstra's ring over lossy links (K = %d).@.@."
    n Ssos_net.Net_ring.k;
  let ring =
    Ssos_net.Net_ring.build ~n ~seed:11L
      ~faults:(fun ~src:_ ~dst:_ ->
        Ssos_net.Link.lossy ~drop:0.15 ~max_delay:2 ())
      ()
  in
  Ssos_net.Cluster.run_sharded ring.Ssos_net.Net_ring.cluster ~steps:400;
  Format.printf "After 400 cluster steps (each node booted its own OS):@.";
  show_states ring;

  Format.printf
    "@.Corrupting every machine: scheduler faults on each node, random@.\
     words in every counter and every predecessor view...@.";
  let rng = Ssx_faults.Rng.create 99L in
  Array.iter
    (fun sched ->
      ignore
        (Ssx_faults.Injector.inject_now
           (Ssos.Sched.fault_system sched)
           ~rng
           ~space:(Ssos.Sched.fault_space sched)
           4))
    ring.Ssos_net.Net_ring.systems;
  Ssos_net.Net_ring.corrupt rng ring;
  show_states ring;

  (match Ssos_net.Net_ring.run_until_legitimate ring ~limit:10_000 with
  | Some steps ->
    Format.printf "@.Single privilege restored after %d cluster steps:@." steps
  | None -> Format.printf "@.Did not reconverge (unexpected):@.");
  show_states ring;

  Ssos_net.Cluster.run_sharded ring.Ssos_net.Net_ring.cluster ~steps:500;
  Format.printf "@.500 steps later (the token keeps circulating):@.";
  show_states ring;
  Format.printf "@.Still legitimate: %b@." (Ssos_net.Net_ring.legitimate ring)
