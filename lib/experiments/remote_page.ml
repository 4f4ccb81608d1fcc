open Engine
open Core

type result = {
  seed : int;
  duration : Time.span;
  domains : Harness.domain_report list;
  fleet : Tier.Fleet.stats;
  stores : Tier.Fleet.store_stats;
  books_balanced : bool;
  remote_used : int;
  remote_capacity : int;
  link_drops : int;
  link_delays : int;
  link_utilisation : float;
  bystander_violations : int;
  tiered_violations : int;
  deterministic : bool;
  audit : Obs.Qos_audit.summary;
}

let experiment = "remote"

(* Remote paging is the fleet at size one: a single [Replicated 1]
   node behind one link, which every tiered domain pages through on
   its own admitted client ({!Harness.fleet_backing}). *)
let one_node_fleet ~seed ~link_name ~capacity sys =
  let link =
    Usnet.Link.create ~name:link_name ~params:Usnet.Net_params.fast_ethernet
      (System.sim sys)
  in
  let remote = Tier.Remote_node.create ~capacity_pages:capacity () in
  let fleet =
    Tier.Fleet.create ~seed ~redundancy:(Tier.Fleet.Replicated 1)
      ~nodes:[ (link_name, remote, link) ]
      (System.sim sys)
  in
  (fleet, remote, link)

(* The link chaos plan: second-half packet loss and delay on the
   tier's link, nothing else — the disk stays clean so any bystander
   wobble could only have come through the network side. *)
let plan_for ~seed =
  { Inject.default_plan with
    seed;
    links =
      [ ( "tier0",
          { Inject.lf_drop = 0.06;
            lf_delay = 0.05;
            lf_delay_span = Time.of_ms_float 2.0 } ) ] }

let remote_capacity = 160

let run_once ~seed ~duration =
  let sys = Harness.tier_system ~seed in
  let fleet, remote, link =
    one_node_fleet ~seed ~link_name:"tier0" ~capacity:remote_capacity sys
  in
  let stores = ref [] in
  let apps =
    Harness.start_mix ~experiment sys ~tier_prefix:"tier_" (fun name ->
        Harness.fleet_backing ~experiment ~context:[ ("app", name) ] fleet
          ~on_store:(fun s -> stores := s :: !stores)
          name)
  in
  (* Clean first half, then chaos on the link, then a quiet drain so
     in-flight retransmissions settle before the books are read. *)
  System.run ~until:(Time.ns (Time.to_ns duration / 2)) sys;
  Inject.arm (plan_for ~seed);
  Harness.run_and_drain sys ~duration;
  let domains = Harness.domain_reports apps in
  let tally = Inject.tally () in
  { seed;
    duration;
    domains;
    fleet = Tier.Fleet.stats fleet;
    stores = Harness.store_totals !stores;
    books_balanced = Tier.Fleet.books_balanced fleet;
    remote_used = Tier.Remote_node.used_pages remote;
    remote_capacity;
    link_drops = tally.Inject.link_drops;
    link_delays = tally.Inject.link_delays;
    link_utilisation = Usnet.Link.utilisation link;
    bystander_violations = Harness.violations ~tiered:false domains;
    tiered_violations = Harness.violations ~tiered:true domains;
    deterministic = true;
    audit = Obs.Qos_audit.summarize () }

let to_json r =
  let open Report.Json in
  let f = r.fleet in
  record
    [ [ ("seed", int r.seed) ];
      [ ("duration_s", secs r.duration) ];
      [ ("domains", Harness.domains_json r.domains) ];
      [ ( "fleet",
          obj
            [ ("stores", int f.stores); ("acks", int f.acks);
              ("remote_fulls", int f.remote_fulls);
              ("replica_timeouts", int f.replica_timeouts);
              ("lost_primaries", int f.lost_primaries);
              ("disk_fallbacks", int f.disk_fallbacks);
              ("lost_packets", int f.lost_packets);
              ("retransmits", int f.retransmits);
              ("give_ups", int f.give_ups);
              ("quarantines", int f.quarantines);
              ("readmissions", int f.readmissions);
              ("repair_rounds", int f.repair_rounds) ] ) ];
      [ ("stores", Harness.stores_json r.stores) ];
      [ ("books_balanced", bool r.books_balanced) ];
      [ ( "remote",
          obj
            [ ("used", int r.remote_used);
              ("capacity", int r.remote_capacity) ]
        ) ];
      [ ( "link",
          obj
            [ ("drops", int r.link_drops); ("delays", int r.link_delays);
              ("utilisation", jf3 r.link_utilisation) ] ) ];
      [ ("bystander_violations", int r.bystander_violations) ];
      [ ("tiered_violations", int r.tiered_violations) ];
      [ ("deterministic", bool r.deterministic) ] ]

(* Same-seed reproducibility is part of the verdict: the whole fleet —
   link chaos included — runs twice and the canonical reports must
   match byte-for-byte. *)
let run ?(seed = 42) ?(duration = Time.sec 30) () =
  let r, same = Harness.rerun (fun () -> run_once ~seed ~duration) ~to_json in
  { r with deterministic = same }

(* The packet ledger must also match the fault plan: with no node
   faults, every packet the fleet lost is a drop Inject dealt. *)
let ok r =
  r.bystander_violations = 0 && r.books_balanced && r.link_drops > 0
  && r.fleet.Tier.Fleet.lost_packets = r.link_drops
  && r.stores.Tier.Fleet.st_fleet_hits > 0
  && r.stores.Tier.Fleet.st_demotes > 0
  && r.deterministic

let print r =
  Report.heading "Remote paging: a memory tier across the network";
  Printf.printf
    "seed %d, %.0f s (link chaos in the second half) + 2 s drain\n\n" r.seed
    (Time.to_sec r.duration);
  Harness.domain_table ~tier:"tier" r.domains;
  print_newline ();
  let f = r.fleet and st = r.stores in
  Printf.printf
    "tier: %d cache hits, %d remote hits, %d remote misses, %d demotes, %d \
     promotes, %d remote-full degrades\n"
    st.Tier.Fleet.st_cache_hits st.Tier.Fleet.st_fleet_hits
    st.Tier.Fleet.st_fleet_misses st.Tier.Fleet.st_demotes
    st.Tier.Fleet.st_promotes f.Tier.Fleet.remote_fulls;
  Printf.printf
    "link: %d lost packets = %d retransmits + %d give-ups, %d injected \
     drops; %d disk fallbacks, %d write fallbacks, %d lost slots (%s)\n"
    f.Tier.Fleet.lost_packets f.Tier.Fleet.retransmits f.Tier.Fleet.give_ups
    r.link_drops f.Tier.Fleet.disk_fallbacks st.Tier.Fleet.st_write_fallbacks
    st.Tier.Fleet.st_lost_slots
    (if r.books_balanced then "books balance" else "UNBALANCED BOOKS");
  Printf.printf "remote node: %d/%d pages; link utilisation %.2f\n"
    r.remote_used r.remote_capacity r.link_utilisation;
  Printf.printf "same-seed rerun: %s\n\n"
    (if r.deterministic then "byte-identical" else "DIVERGED");
  Report.audit_section "Remote-paging QoS audit" (Some r.audit);
  Printf.printf "bystander (disk-only) violations: %d\n"
    r.bystander_violations;
  Report.verdict (ok r)
    "bystanders unperturbed, tier books balance, chaos reproducible"

(* ------------------------------------------------------------------ *)
(* Benchmark: tiered vs disk-only, per pattern, fault-free.            *)

type bench_cell = {
  bc_app : Harness.domain_report;
  bc_tier : Tier.Fleet.store_stats;
}

type bench_result = {
  b_seed : int;
  b_duration : Time.span;
  b_cells : bench_cell list;
  b_hot_speedup : float;
  b_hot_tiered_beats_disk : bool;
}

let bench_cell ~seed ~duration ~pat ~tiered =
  let sys = Harness.tier_system ~seed in
  let stores = ref [] in
  let name = "bench" in
  let backing =
    if not tiered then None
    else
      let fleet, _, _ =
        one_node_fleet ~seed ~link_name:"bench0" ~capacity:128 sys
      in
      Some
        (Harness.fleet_backing ~experiment ~context:[ ("app", name) ] fleet
           ~on_store:(fun s -> stores := s :: !stores)
           name)
  in
  let app =
    Harness.start_app ~experiment sys ~slice:(Time.ms 35) ~name
      ~pattern:(Harness.pattern ~experiment pat)
      ?backing ()
  in
  System.run ~until:duration sys;
  { bc_app = Harness.domain_report ~pattern:pat ~tiered name app;
    bc_tier = Harness.store_totals !stores }

let bench ?(seed = 42) ?(duration = Time.sec 30) () =
  let cells =
    List.concat_map
      (fun pat ->
        [ bench_cell ~seed ~duration ~pat ~tiered:false;
          bench_cell ~seed ~duration ~pat ~tiered:true ])
      Harness.patterns
  in
  let hot tiered =
    (List.find
       (fun c -> c.bc_app.dr_pattern = "hot" && c.bc_app.dr_tiered = tiered)
       cells)
      .bc_app.dr_fault_mean_us
  in
  let speedup = Harness.ratio (hot false) (hot true) in
  { b_seed = seed;
    b_duration = duration;
    b_cells = cells;
    b_hot_speedup = speedup;
    b_hot_tiered_beats_disk = (not (Float.is_nan speedup)) && speedup > 1. }

let bench_print r =
  Report.heading "Remote paging benchmark: tiered vs disk-only";
  Printf.printf "seed %d, %.0f s per cell, fault-free\n\n" r.b_seed
    (Time.to_sec r.b_duration);
  Report.table
    ~header:
      [ "pattern"; "backing"; "Mbit/s"; "accesses"; "fault us"; "p95 us";
        "cache/remote/disk" ]
    (List.map
       (fun { bc_app = d; bc_tier = t } ->
         [ d.dr_pattern; (if d.dr_tiered then "tier" else "disk");
           Report.mbit_s d.dr_mbit; string_of_int d.dr_accesses;
           Report.us d.dr_fault_mean_us; Report.us d.dr_fault_p95_us;
           Printf.sprintf "%d/%d/%d" t.st_cache_hits t.st_fleet_hits
             t.st_fleet_misses ])
       r.b_cells);
  print_newline ();
  Printf.printf "hotspot fault-latency speedup (disk/tier): %s — tiered %s\n"
    (if Float.is_nan r.b_hot_speedup then "-"
     else Printf.sprintf "%.2fx" r.b_hot_speedup)
    (if r.b_hot_tiered_beats_disk then "beats disk-only"
     else "does NOT beat disk-only")

let bench_to_json r =
  let open Report.Json in
  let cell { bc_app = d; bc_tier = t } =
    obj
      [ ("pattern", str d.dr_pattern); ("tiered", bool d.dr_tiered);
        ("mbit_s", jf3 d.dr_mbit); ("accesses", int d.dr_accesses);
        ("fault_mean_us", jf d.dr_fault_mean_us);
        ("fault_p95_us", jf d.dr_fault_p95_us);
        ("cache_hits", int t.st_cache_hits);
        ("remote_hits", int t.st_fleet_hits);
        ("remote_misses", int t.st_fleet_misses) ]
  in
  record
    [ [ ("seed", int r.b_seed) ];
      [ ("duration_s", secs r.b_duration) ];
      [ ("cells", list (List.map cell r.b_cells)) ];
      [ ("hot_speedup", jf3 r.b_hot_speedup) ];
      [ ("hot_tiered_beats_disk", bool r.b_hot_tiered_beats_disk) ] ]
