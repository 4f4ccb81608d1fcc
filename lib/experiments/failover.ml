open Engine
open Core

type result = {
  seed : int;
  duration : Time.span;
  domains : Harness.domain_report list;
  fleet : Tier.Fleet.stats;
  health : Tier.Fleet.node_health list;
  books_balanced : bool;
  store_totals : Tier.Fleet.store_stats;
  lost_slots : int;
  node_wipes : int;
  node_partitions : int;
  bystander_violations : int;
  tiered_violations : int;
  deterministic : bool;
  audit : Obs.Qos_audit.summary;
}

let experiment = "failover"

let node_count = 4
let node_capacity = 160
let node_name i = Printf.sprintf "n%d" i

(* The fault plan is pure virtual time, no dice: n1 loses its RAM for
   good at T/3 (the node stays up and answers "miss"); n2 falls off
   the network over [T/2, 2T/3] with its contents intact. *)
let plan_for ~seed ~duration =
  let d = Time.to_ns duration in
  { Inject.default_plan with
    seed;
    node_faults =
      [ Inject.node_fault ~wipe_at:(Time.ns (d / 3)) (node_name 1);
        Inject.node_fault
          ~partitions:[ (Time.ns (d / 2), Time.ns (d * 2 / 3)) ]
          (node_name 2) ] }

let mk_nodes ~capacity sys =
  List.init node_count (fun i ->
      let name = node_name i in
      let link =
        Usnet.Link.create ~name ~params:Usnet.Net_params.fast_ethernet
          (System.sim sys)
      in
      (name, Tier.Remote_node.create ~capacity_pages:capacity (), link))

(* The repair budget is deliberately a trickle (2 copies every 250 ms):
   re-replicating a wiped node takes a large fraction of the run, so
   reads must fail over to survivors in the meantime — that window is
   the point of the experiment. *)
let build_fleet ~seed sys =
  Tier.Fleet.create ~seed ~redundancy:(Tier.Fleet.Replicated 2)
    ~repair_period:(Time.ms 250) ~repair_budget:2
    ~nodes:(mk_nodes ~capacity:node_capacity sys)
    (System.sim sys)

let run_once ~seed ~duration =
  let sys = Harness.tier_system ~seed in
  let fleet = build_fleet ~seed sys in
  let stores = ref [] in
  let apps =
    Harness.start_mix ~experiment sys ~tier_prefix:"fleet_" (fun name ->
        Harness.fleet_backing ~experiment ~context:[ ("app", name) ] fleet
          ~on_store:(fun s -> stores := s :: !stores)
          name)
  in
  (* Faults are armed from the start (they fire by virtual time); a
     quiet drain lets repair finish and in-flight packets settle
     before the books are read. *)
  Inject.arm (plan_for ~seed ~duration);
  Harness.run_and_drain sys ~duration;
  let domains = Harness.domain_reports apps in
  let tally = Inject.tally () in
  let store_totals = Harness.store_totals !stores in
  { seed;
    duration;
    domains;
    fleet = Tier.Fleet.stats fleet;
    health = Tier.Fleet.health fleet;
    books_balanced = Tier.Fleet.books_balanced fleet;
    store_totals;
    lost_slots = store_totals.Tier.Fleet.st_lost_slots;
    node_wipes = tally.Inject.node_wipes;
    node_partitions = tally.Inject.node_partitions;
    bystander_violations = Harness.violations ~tiered:false domains;
    tiered_violations = Harness.violations ~tiered:true domains;
    deterministic = true;
    audit = Obs.Qos_audit.summarize () }

let to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" r.seed);
  Buffer.add_string b
    (Printf.sprintf "  \"duration_s\": %.0f,\n" (Time.to_sec r.duration));
  Buffer.add_string b
    (Printf.sprintf "  \"domains\": %s,\n" (Harness.domains_json r.domains));
  let f = r.fleet in
  Buffer.add_string b
    (Printf.sprintf
       "  \"fleet\": {\"stores\": %d, \"acks\": %d, \"replica_skips\": %d, \
        \"replica_timeouts\": %d, \"remote_fulls\": %d, \"lost_primaries\": \
        %d, \"failovers\": %d, \"rebuilds\": %d, \"disk_fallbacks\": %d, \
        \"secondary_rebuilds\": %d, \"retransmits\": %d, \"quarantines\": \
        %d, \"readmissions\": %d, \"probes\": %d, \"probe_failures\": %d, \
        \"wipes_applied\": %d, \"repair_rounds\": %d},\n"
       f.Tier.Fleet.stores f.Tier.Fleet.acks f.Tier.Fleet.replica_skips
       f.Tier.Fleet.replica_timeouts f.Tier.Fleet.remote_fulls
       f.Tier.Fleet.lost_primaries f.Tier.Fleet.failovers
       f.Tier.Fleet.rebuilds f.Tier.Fleet.disk_fallbacks
       f.Tier.Fleet.secondary_rebuilds f.Tier.Fleet.retransmits
       f.Tier.Fleet.quarantines f.Tier.Fleet.readmissions f.Tier.Fleet.probes
       f.Tier.Fleet.probe_failures f.Tier.Fleet.wipes_applied
       f.Tier.Fleet.repair_rounds);
  let node h =
    Printf.sprintf
      "{\"name\": %S, \"member\": %b, \"used\": %d, \"capacity\": %d, \
       \"quarantined\": %b, \"quarantines\": %d, \"readmissions\": %d, \
       \"stores\": %d, \"serves\": %d, \"failovers\": %d}"
      h.Tier.Fleet.nh_name h.Tier.Fleet.nh_member h.Tier.Fleet.nh_used
      h.Tier.Fleet.nh_capacity h.Tier.Fleet.nh_quarantined
      h.Tier.Fleet.nh_quarantines h.Tier.Fleet.nh_readmissions
      h.Tier.Fleet.nh_stores h.Tier.Fleet.nh_serves h.Tier.Fleet.nh_failovers
  in
  Buffer.add_string b
    (Printf.sprintf "  \"nodes\": [%s],\n"
       (String.concat ", " (List.map node r.health)));
  Buffer.add_string b
    (Printf.sprintf "  \"books_balanced\": %b,\n" r.books_balanced);
  let st = r.store_totals in
  Buffer.add_string b
    (Printf.sprintf
       "  \"stores\": {\"cache_hits\": %d, \"fleet_hits\": %d, \
        \"fleet_misses\": %d, \"promotes\": %d, \"demotes\": %d, \
        \"write_fallbacks\": %d, \"clean_skips\": %d, \"lost_slots\": %d},\n"
       st.Tier.Fleet.st_cache_hits st.Tier.Fleet.st_fleet_hits
       st.Tier.Fleet.st_fleet_misses st.Tier.Fleet.st_promotes
       st.Tier.Fleet.st_demotes st.Tier.Fleet.st_write_fallbacks
       st.Tier.Fleet.st_clean_skips st.Tier.Fleet.st_lost_slots);
  Buffer.add_string b (Printf.sprintf "  \"lost_slots\": %d,\n" r.lost_slots);
  Buffer.add_string b
    (Printf.sprintf "  \"node_wipes\": %d, \"node_partitions\": %d,\n"
       r.node_wipes r.node_partitions);
  Buffer.add_string b
    (Printf.sprintf "  \"bystander_violations\": %d,\n"
       r.bystander_violations);
  Buffer.add_string b
    (Printf.sprintf "  \"tiered_violations\": %d,\n" r.tiered_violations);
  Buffer.add_string b
    (Printf.sprintf "  \"deterministic\": %b\n" r.deterministic);
  Buffer.add_string b "}";
  Buffer.contents b

(* Same-seed reproducibility is part of the verdict: the whole run —
   wipe, partition, quarantine, repair — happens twice and the
   canonical reports must match byte-for-byte. *)
let run ?(seed = 42) ?(duration = Time.sec 30) () =
  let r, same = Harness.rerun (fun () -> run_once ~seed ~duration) ~to_json in
  { r with deterministic = same }

let ok r =
  r.bystander_violations = 0 && r.books_balanced && r.lost_slots = 0
  && r.node_wipes >= 1 && r.node_partitions >= 1
  && r.fleet.Tier.Fleet.wipes_applied >= 1
  && r.fleet.Tier.Fleet.failovers > 0
  && r.fleet.Tier.Fleet.rebuilds > 0
  && r.fleet.Tier.Fleet.quarantines >= 1
  && r.fleet.Tier.Fleet.readmissions >= 1
  && r.deterministic

let print r =
  Report.heading "Failover: replicated remote memory under node loss";
  Printf.printf
    "seed %d, %.0f s (wipe at T/3, partition over [T/2, 2T/3]) + 2 s drain\n\n"
    r.seed (Time.to_sec r.duration);
  Harness.domain_table ~tier:"fleet" r.domains;
  print_newline ();
  let f = r.fleet in
  Printf.printf "placement: %d stores = %d acks (%s)\n" f.Tier.Fleet.stores
    f.Tier.Fleet.acks
    (if f.Tier.Fleet.stores = f.Tier.Fleet.acks then "balanced"
     else "UNBALANCED");
  Printf.printf
    "primaries: %d lost = %d failovers + %d rebuilds + %d disk fallbacks \
     (%s)\n"
    f.Tier.Fleet.lost_primaries f.Tier.Fleet.failovers f.Tier.Fleet.rebuilds
    f.Tier.Fleet.disk_fallbacks
    (if r.books_balanced then "balanced" else "UNBALANCED");
  Printf.printf
    "health: %d wipes applied, %d quarantines, %d probes, %d readmissions, \
     %d secondary rebuilds, %d repair rounds\n"
    f.Tier.Fleet.wipes_applied f.Tier.Fleet.quarantines f.Tier.Fleet.probes
    f.Tier.Fleet.readmissions f.Tier.Fleet.secondary_rebuilds
    f.Tier.Fleet.repair_rounds;
  List.iter
    (fun h ->
      Printf.printf "  node %s: %d/%d pages%s, %d quarantines, %d readmissions\n"
        h.Tier.Fleet.nh_name h.Tier.Fleet.nh_used h.Tier.Fleet.nh_capacity
        (if h.Tier.Fleet.nh_quarantined then " [quarantined]" else "")
        h.Tier.Fleet.nh_quarantines h.Tier.Fleet.nh_readmissions)
    r.health;
  let st = r.store_totals in
  Printf.printf
    "reads: %d cache hits, %d fleet hits, %d never-placed (disk); %d \
     demotes, %d write fallbacks, %d clean skips\n"
    st.Tier.Fleet.st_cache_hits st.Tier.Fleet.st_fleet_hits
    st.Tier.Fleet.st_fleet_misses st.Tier.Fleet.st_demotes
    st.Tier.Fleet.st_write_fallbacks st.Tier.Fleet.st_clean_skips;
  Printf.printf "committed pages lost: %d\n" r.lost_slots;
  Printf.printf "same-seed rerun: %s\n\n"
    (if r.deterministic then "byte-identical" else "DIVERGED");
  Report.audit_section "Failover QoS audit" (Some r.audit);
  Printf.printf "bystander (disk-only) violations: %d\n"
    r.bystander_violations;
  print_endline
    (if ok r then
       "VERDICT: ok — node loss survived without safety loss, books \
        balance, bystanders unperturbed, reproducible"
     else "VERDICT: FAILED")

(* ------------------------------------------------------------------ *)
(* Benchmark: post-wipe fault latency vs the healthy remote path.      *)

type bench_cell = {
  bc_name : string;
  bc_accesses : int;
  bc_mean_us : float;
  bc_half2_mean_us : float;
  bc_fleet_hits : int;
  bc_failovers : int;
  bc_rebuilds : int;
  bc_nodes : Tier.Fleet.node_health list;
}

type bench_result = {
  b_seed : int;
  b_duration : Time.span;
  b_cells : bench_cell list;
  b_healthy_us : float;
  b_postwipe_us : float;
  b_disk_us : float;
  b_degradation : float;
  b_ok : bool;
}

let bench_capacity = 300

(* One hotspot run against one backend; when [wipe] is set, node n0
   loses its contents at exactly T/2. *)
let bench_cell ~seed ~duration ~name ~fleeted ~wipe =
  let fleet sys =
    let nodes = mk_nodes ~capacity:bench_capacity sys in
    let _, n0, _ = List.hd nodes in
    ( Tier.Fleet.create ~seed ~redundancy:(Tier.Fleet.Replicated 2) ~nodes
        (System.sim sys),
      n0 )
  in
  let h =
    Harness.hot_run ~experiment ~cell:name ~seed ~duration
      ~fleet:(if fleeted then Some fleet else None)
      ~wipe
  in
  { bc_name = name;
    bc_accesses = h.Harness.h_accesses;
    bc_mean_us = h.Harness.h_mean_us;
    bc_half2_mean_us = h.Harness.h_half2_mean_us;
    bc_fleet_hits = h.Harness.h_fleet_hits;
    bc_failovers = h.Harness.h_fleet.Tier.Fleet.failovers;
    bc_rebuilds = h.Harness.h_fleet.Tier.Fleet.rebuilds;
    bc_nodes = h.Harness.h_health }

let bench ?(seed = 42) ?(duration = Time.sec 30) () =
  let disk = bench_cell ~seed ~duration ~name:"disk" ~fleeted:false ~wipe:false in
  let healthy =
    bench_cell ~seed ~duration ~name:"fleet" ~fleeted:true ~wipe:false
  in
  let wiped =
    bench_cell ~seed ~duration ~name:"fleet_wipe" ~fleeted:true ~wipe:true
  in
  let degradation =
    if
      Float.is_nan healthy.bc_half2_mean_us
      || Float.is_nan wiped.bc_half2_mean_us
      || healthy.bc_half2_mean_us <= 0.
    then nan
    else wiped.bc_half2_mean_us /. healthy.bc_half2_mean_us
  in
  let okv =
    (not (Float.is_nan degradation))
    && degradation <= 2.0
    && (not (Float.is_nan disk.bc_half2_mean_us))
    && disk.bc_half2_mean_us >= 5.0 *. wiped.bc_half2_mean_us
  in
  { b_seed = seed;
    b_duration = duration;
    b_cells = [ disk; healthy; wiped ];
    b_healthy_us = healthy.bc_half2_mean_us;
    b_postwipe_us = wiped.bc_half2_mean_us;
    b_disk_us = disk.bc_half2_mean_us;
    b_degradation = degradation;
    b_ok = okv }

let bench_print r =
  Report.heading "Failover benchmark: post-wipe latency vs healthy fleet";
  Printf.printf
    "seed %d, %.0f s per cell, hotspot; wipe (if any) at T/2; second-half \
     windows compared\n\n"
    r.b_seed (Time.to_sec r.b_duration);
  Report.table
    ~header:
      [ "cell"; "accesses"; "mean us"; "2nd-half us"; "fleet hits";
        "failovers"; "rebuilds" ]
    (List.map
       (fun c ->
         [ c.bc_name; string_of_int c.bc_accesses; Report.us c.bc_mean_us;
           Report.us c.bc_half2_mean_us; string_of_int c.bc_fleet_hits;
           string_of_int c.bc_failovers; string_of_int c.bc_rebuilds ])
       r.b_cells);
  print_newline ();
  Printf.printf
    "post-wipe %.0f us vs healthy %.0f us (%.2fx) vs disk %.0f us — %s\n"
    r.b_postwipe_us r.b_healthy_us r.b_degradation r.b_disk_us
    (if r.b_ok then "no disk-fallback cliff" else "CLIFF (or degraded > 2x)")

let bench_to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" r.b_seed);
  Buffer.add_string b
    (Printf.sprintf "  \"duration_s\": %.0f,\n" (Time.to_sec r.b_duration));
  let node h =
    Printf.sprintf
      "{\"name\": %S, \"used\": %d, \"stores\": %d, \"serves\": %d, \
       \"failovers\": %d, \"quarantines\": %d}"
      h.Tier.Fleet.nh_name h.Tier.Fleet.nh_used h.Tier.Fleet.nh_stores
      h.Tier.Fleet.nh_serves h.Tier.Fleet.nh_failovers
      h.Tier.Fleet.nh_quarantines
  in
  let cell c =
    Printf.sprintf
      "{\"cell\": %S, \"accesses\": %d, \"mean_us\": %s, \"half2_mean_us\": \
       %s, \"fleet_hits\": %d, \"failovers\": %d, \"rebuilds\": %d, \
       \"nodes\": [%s]}"
      c.bc_name c.bc_accesses (Report.jf c.bc_mean_us)
      (Report.jf c.bc_half2_mean_us)
      c.bc_fleet_hits c.bc_failovers c.bc_rebuilds
      (String.concat ", " (List.map node c.bc_nodes))
  in
  Buffer.add_string b
    (Printf.sprintf "  \"cells\": [%s],\n"
       (String.concat ", " (List.map cell r.b_cells)));
  Buffer.add_string b
    (Printf.sprintf
       "  \"healthy_us\": %s, \"postwipe_us\": %s, \"disk_us\": %s,\n"
       (Report.jf r.b_healthy_us) (Report.jf r.b_postwipe_us)
       (Report.jf r.b_disk_us));
  Buffer.add_string b
    (Printf.sprintf "  \"degradation\": %s,\n" (Report.jf3 r.b_degradation));
  Buffer.add_string b (Printf.sprintf "  \"ok\": %b\n" r.b_ok);
  Buffer.add_string b "}";
  Buffer.contents b
