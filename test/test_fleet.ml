(* Tests for the replicated remote tier: rendezvous placement, the
   fleet's double-entry books under wipe/partition/repair
   interleavings, read failover, background re-replication, the
   bounded retransmit ladder and its packet ledger, and the typed
   not-bound errors on the sharing drivers. *)

open Engine

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let qtest = QCheck_alcotest.to_alcotest

let mk_sfs () =
  let sim = Sim.create () in
  let dm = Disk.Disk_model.create () in
  let u = Usbs.Usd.create sim dm in
  (sim, u, Usbs.Sfs.create ~first_block:0 ~nblocks:1_000_000 u)

let open_swap_exn fs ~name ~bytes =
  let q = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
  match Usbs.Sfs.open_swap fs ~name ~bytes ~qos:q () with
  | Ok s -> s
  | Error e -> failwith (Usbs.Sfs.open_error_message e)

(* A fleet of [nodes] remote nodes on their own links, one attached
   store over a 32-page swapfile. Tests drive repair themselves
   ([repair = false] keeps the background process out of the way). *)
let mk_fleet ?(seed = 7) ?(replicas = 2) ?(nodes = 4) ?(node_pages = 16)
    ?(cache_pages = 2) ?(repair = false) ?link_retries ?extra
    ?(laxity = Time.of_ms_float 2.0) () =
  let sim, _, fs = mk_sfs () in
  let swap = open_swap_exn fs ~name:"f" ~bytes:(256 * 1024) in
  let triples =
    List.init nodes (fun i ->
        let name = Printf.sprintf "fn%d" i in
        let link = Usnet.Link.create ~name sim in
        (name, Tier.Remote_node.create ~capacity_pages:node_pages (), link))
  in
  let fleet =
    Tier.Fleet.create ~seed ~redundancy:(Tier.Fleet.Replicated replicas)
      ~repair ?link_retries ~nodes:triples sim
  in
  let clients =
    match
      Tier.Fleet.admit_clients fleet ~name:"t.fleet" ~period:(Time.ms 20)
        ~slice:(Time.ms 10) ?extra ~laxity ()
    with
    | Ok cs -> cs
    | Error e -> failwith (Usnet.Link.admit_error_message e)
  in
  let store = Tier.Fleet.attach fleet ~cache_pages ~clients ~swap () in
  (sim, fleet, store, swap, triples)

let write_exn b slot =
  match b.Tier.Backing.write_pages ~page_index:slot ~npages:1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write failed"

let read_exn b slot =
  match b.Tier.Backing.read_pages ~page_index:slot ~npages:1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "read failed"

(* --- Placement --- *)

let placement_determinism () =
  let _, f1, _, swap, _ = mk_fleet ~seed:11 () in
  let _, f2, _, _, _ = mk_fleet ~seed:11 () in
  let _, f3, _, _, _ = mk_fleet ~seed:12 () in
  let owner = Usbs.Sfs.swap_name swap in
  let differs = ref false in
  for slot = 0 to 31 do
    let p1 = Tier.Fleet.placement f1 ~owner ~slot in
    let p2 = Tier.Fleet.placement f2 ~owner ~slot in
    let p3 = Tier.Fleet.placement f3 ~owner ~slot in
    checkb "same seed, same placement" true (p1 = p2);
    if p1 <> p3 then differs := true;
    check "R replicas" 2 (Array.length p1);
    Array.iter
      (fun i -> checkb "replica index in range" true (i >= 0 && i < 4))
      p1;
    checkb "replicas distinct" true (p1.(0) <> p1.(1))
  done;
  checkb "different seed moves at least one slot" true !differs

let placement_clamp () =
  let _, f, _, swap, _ = mk_fleet ~seed:3 ~replicas:9 ~nodes:3 () in
  let owner = Usbs.Sfs.swap_name swap in
  let p = Tier.Fleet.placement f ~owner ~slot:0 in
  check "replicas clamp to fleet size" 3 (Array.length p)

(* --- Demote / fetch through the Backing seam --- *)

let fleet_demote_fetch () =
  let sim, fleet, store, swap, triples = mk_fleet () in
  let b = Tier.Fleet.backing store in
  let owner = Usbs.Sfs.swap_name swap in
  ignore
    (Proc.spawn sim (fun () ->
         for slot = 0 to 7 do
           write_exn b slot
         done;
         for slot = 0 to 7 do
           read_exn b slot
         done));
  Sim.run ~until:(Time.sec 30) sim;
  let f = Tier.Fleet.stats fleet in
  let st = Tier.Fleet.store_stats store in
  check "stores = acks" f.Tier.Fleet.acks f.Tier.Fleet.stores;
  checkb "fleet served reads" true (st.Tier.Fleet.st_fleet_hits > 0);
  checkb "books balance" true (Tier.Fleet.books_balanced fleet);
  check "nothing lost" 0 st.Tier.Fleet.st_lost_slots;
  (* every tracked slot is fully replicated on its placement nodes:
     slots 0..5 were evicted from the 2-page cache by the later writes *)
  let remotes = Array.of_list (List.map (fun (_, r, _) -> r) triples) in
  for slot = 0 to 5 do
    Array.iter
      (fun i ->
        checkb "replica holds the page" true
          (Tier.Remote_node.holds remotes.(i) ~owner ~slot))
      (Tier.Fleet.placement fleet ~owner ~slot)
  done

(* --- Wipe: reads fail over to the surviving replica --- *)

let wipe_failover () =
  let sim, fleet, store, swap, triples = mk_fleet () in
  let b = Tier.Fleet.backing store in
  let owner = Usbs.Sfs.swap_name swap in
  let remotes = Array.of_list (List.map (fun (_, r, _) -> r) triples) in
  let victim = (Tier.Fleet.placement fleet ~owner ~slot:0).(0) in
  ignore
    (Proc.spawn sim (fun () ->
         (* slots 0..11 demoted; 12..13 flush the 2-page cache *)
         for slot = 0 to 13 do
           write_exn b slot
         done;
         Tier.Remote_node.wipe remotes.(victim);
         for slot = 0 to 11 do
           read_exn b slot
         done));
  Sim.run ~until:(Time.sec 60) sim;
  let orphans = ref 0 in
  for slot = 0 to 11 do
    if (Tier.Fleet.placement fleet ~owner ~slot).(0) = victim then
      incr orphans
  done;
  checkb "the victim was primary somewhere" true (!orphans > 0);
  let f = Tier.Fleet.stats fleet in
  check "each orphaned primary failed over" !orphans f.Tier.Fleet.failovers;
  check "no disk fallbacks (secondary survives)" 0
    f.Tier.Fleet.disk_fallbacks;
  checkb "books balance" true (Tier.Fleet.books_balanced fleet);
  check "nothing lost" 0
    (Tier.Fleet.store_stats store).Tier.Fleet.st_lost_slots

(* --- Repair: the wiped node is re-replicated from survivors --- *)

let repair_rebuild () =
  let sim, fleet, store, swap, triples = mk_fleet () in
  let b = Tier.Fleet.backing store in
  let owner = Usbs.Sfs.swap_name swap in
  let remotes = Array.of_list (List.map (fun (_, r, _) -> r) triples) in
  let victim = (Tier.Fleet.placement fleet ~owner ~slot:0).(0) in
  ignore
    (Proc.spawn sim (fun () ->
         for slot = 0 to 13 do
           write_exn b slot
         done;
         Tier.Remote_node.wipe remotes.(victim);
         (* default budget is 8 copies a round; a few rounds heal it *)
         for _ = 1 to 6 do
           Tier.Fleet.repair_round fleet;
           Proc.sleep (Time.ms 10)
         done));
  Sim.run ~until:(Time.sec 60) sim;
  let f = Tier.Fleet.stats fleet in
  checkb "primary copies rebuilt" true (f.Tier.Fleet.rebuilds > 0);
  checkb "books balance" true (Tier.Fleet.books_balanced fleet);
  for slot = 0 to 11 do
    Array.iter
      (fun i ->
        checkb "every replica holds every tracked slot again" true
          (Tier.Remote_node.holds remotes.(i) ~owner ~slot))
      (Tier.Fleet.placement fleet ~owner ~slot)
  done;
  ignore store

(* --- Model: books balance under wipe/partition/repair interleavings --- *)

(* Random op sequences against a fleet whose nodes are wiped and
   partitioned at random virtual times, with repair rounds woven in:
   write-through keeps a disk floor under everything, so whatever the
   interleaving, every op must succeed, nothing may be lost, and both
   double-entry books must balance. *)
let fleet_books_model =
  QCheck.Test.make ~count:10
    ~name:"fleet: books balance under wipe/partition/repair"
    QCheck.(
      pair
        (list_of_size Gen.(5 -- 40)
           (pair (int_bound 2) (int_bound 13)))
        (triple (int_bound 9999) (int_bound 3) (int_bound 3)))
    (fun (ops, (seed, wiped, parted)) ->
      let sim, fleet, store, _, _ = mk_fleet ~seed:(seed + 1) () in
      let b = Tier.Fleet.backing store in
      let ms f = Time.of_ms_float f in
      Inject.arm
        { Inject.default_plan with
          seed;
          node_faults =
            [ Inject.node_fault
                ~wipe_at:(ms (float_of_int (seed mod 400)))
                (Printf.sprintf "fn%d" wiped);
              Inject.node_fault
                ~partitions:
                  [ ( ms (float_of_int (seed mod 200)),
                      ms (float_of_int ((seed mod 200) + 150)) ) ]
                (Printf.sprintf "fn%d" parted) ] };
      Fun.protect ~finally:Inject.disarm (fun () ->
          let bad = ref 0 in
          let written = Hashtbl.create 16 in
          ignore
            (Proc.spawn sim (fun () ->
                 List.iter
                   (fun (kind, slot) ->
                     match kind with
                     | 0 -> (
                         match
                           b.Tier.Backing.write_pages ~page_index:slot
                             ~npages:1
                         with
                         | Ok () -> Hashtbl.replace written slot ()
                         | Error _ -> incr bad)
                     | 1 ->
                         if Hashtbl.mem written slot then (
                           match
                             b.Tier.Backing.read_pages ~page_index:slot
                               ~npages:1
                           with
                           | Ok () -> ()
                           | Error _ -> incr bad)
                     | _ ->
                         Tier.Fleet.repair_round fleet;
                         Proc.sleep (Time.ms 20))
                   ops;
                 (* let repair settle, then sweep: every written slot
                    must still read back through some copy *)
                 for _ = 1 to 4 do
                   Tier.Fleet.repair_round fleet;
                   Proc.sleep (Time.ms 20)
                 done;
                 Hashtbl.iter
                   (fun slot () ->
                     match
                       b.Tier.Backing.read_pages ~page_index:slot ~npages:1
                     with
                     | Ok () -> ()
                     | Error _ -> incr bad)
                   written));
          Sim.run ~until:(Time.sec 120) sim;
          !bad = 0
          && Tier.Fleet.books_balanced fleet
          && (Tier.Fleet.store_stats store).Tier.Fleet.st_lost_slots = 0))

(* --- The bounded retransmit ladder --- *)

(* A one-node fleet behind a black-hole link, retrying [retries]
   times: writing slot 1 through a one-page cache demotes slot 0 into
   the hole. The client may use slack time and holds no laxity, so
   each retransmit leaves the moment its backoff ends instead of
   waiting for a fresh period.
   Returns the fleet, the link and the instant the demote gave up
   (the write returns right then: slot 0 is clean on disk). *)
let black_hole ~retries =
  let sim, fleet, store, _, triples =
    mk_fleet ~replicas:1 ~nodes:1 ~cache_pages:1 ~link_retries:retries
      ~extra:true ~laxity:0 ()
  in
  let b = Tier.Fleet.backing store in
  let gave_up = ref Time.zero in
  Inject.arm
    { Inject.default_plan with
      seed = 1;
      links =
        [ ("fn0", { Inject.lf_drop = 1.0; lf_delay = 0.0; lf_delay_span = 0 })
        ] };
  Fun.protect ~finally:Inject.disarm (fun () ->
      ignore
        (Proc.spawn sim (fun () ->
             write_exn b 0;
             write_exn b 1;
             gave_up := Sim.now sim));
      Sim.run ~until:(Time.sec 10) sim);
  let _, _, link = List.hd triples in
  (fleet, link, !gave_up)

(* Wire time of the first (MTU-sized) fragment of a page. *)
let frag_tx link =
  let p = Usnet.Link.params link in
  Usnet.Net_params.tx_time p ~bytes:p.Usnet.Net_params.mtu

(* Completion instants of every packet the link carried. *)
let tx_times link =
  List.map fst
    (Usnet.Link.trace link
    |> Trace.filter (function Usnet.Link.Tx _ -> true | _ -> false))

(* Every lost packet waits the 1 ms ack deadline, then backs off
   1/2/4/8 ms, capped at 8: the gaps between successive transmissions
   of the dropped fragment walk that ladder. *)
let backoff_ladder () =
  let _, link, _ = black_hole ~retries:6 in
  let tx = frag_tx link in
  let rec gaps = function
    | a :: (b :: _ as rest) -> (Time.diff b a - tx) :: gaps rest
    | _ -> []
  in
  Alcotest.(check (list int))
    "ack wait + capped ladder between retransmits"
    (List.map (fun b -> Time.ms 1 + Time.ms b) [ 1; 2; 4; 8; 8; 8 ])
    (gaps (tx_times link))

(* Five drops of one fragment (four retries) cost exactly five wire
   times, five ack waits and the 1/2/4/8 ms ladder, and the packet
   ledger books them: four retransmits, one give-up. *)
let retx_elapsed_time () =
  let fleet, link, gave_up = black_hole ~retries:4 in
  let tx = frag_tx link in
  let first_start = List.hd (tx_times link) - tx in
  check "elapsed virtual time"
    ((5 * tx) + (5 * Time.ms 1) + Time.ms (1 + 2 + 4 + 8))
    (Time.diff gave_up first_start);
  let s = Tier.Fleet.stats fleet in
  check "four retransmits" 4 s.Tier.Fleet.retransmits;
  check "five lost packets" 5 s.Tier.Fleet.lost_packets;
  check "one give-up" 1 s.Tier.Fleet.give_ups;
  checkb "books balance" true (Tier.Fleet.books_balanced fleet)

(* --- Typed not-bound errors on the sharing drivers --- *)

let typed_not_bound () =
  checks "Seg printer keeps the legacy string" "Seg: driver not bound"
    (Printexc.to_string (Share.Seg.Not_bound { driver = "Seg" }));
  checks "Cow printer keeps the legacy string" "Cow: driver not bound"
    (Printexc.to_string (Share.Cow.Not_bound { driver = "Cow" }))

(* --- Experiment smoke --- *)

(* Short run: safety invariants only (the full latency/health verdict
   needs the 30 s default to warm up; `make failover` covers that). *)
let failover_experiment_smoke () =
  let r = Experiments.Failover.run ~seed:5 ~duration:(Time.sec 6) () in
  check "no bystander violations" 0
    r.Experiments.Failover.bystander_violations;
  checkb "fleet books balance" true r.Experiments.Failover.books_balanced;
  check "no committed pages lost" 0 r.Experiments.Failover.lost_slots;
  checkb "same-seed rerun byte-identical" true
    r.Experiments.Failover.deterministic;
  Golden.check ~file:"failover_seed5.json" (Experiments.Failover.to_json r)

let suite =
  [ ( "fleet.placement",
      [ Alcotest.test_case "rendezvous determinism" `Quick
          placement_determinism;
        Alcotest.test_case "replicas clamp to fleet size" `Quick
          placement_clamp ] );
    ( "fleet.store",
      [ Alcotest.test_case "demote replicates, fetch promotes" `Quick
          fleet_demote_fetch;
        Alcotest.test_case "wiped primary fails over" `Quick wipe_failover;
        Alcotest.test_case "repair re-replicates the wiped node" `Quick
          repair_rebuild;
        qtest fleet_books_model ] );
    ( "fleet.retransmit",
      [ Alcotest.test_case "bounded exponential ladder" `Quick backoff_ladder;
        Alcotest.test_case "chosen delays surface in virtual time" `Quick
          retx_elapsed_time ] );
    ( "share.errors",
      [ Alcotest.test_case "typed not-bound keeps legacy strings" `Quick
          typed_not_bound ] );
    ( "fleet.experiment",
      [ Alcotest.test_case "failover smoke" `Slow failover_experiment_smoke ]
    ) ]
