open Engine
open Core

type cell = {
  c_name : string;
  c_mode : string;
  c_domains : Harness.domain_report list;
  c_fleet : Tier.Fleet.stats;
  c_health : Tier.Fleet.node_health list;
  c_books_balanced : bool;
  c_store_totals : Tier.Fleet.store_stats;
  c_lost_slots : int;
  c_overhead : float;
  c_degraded_count : int;
  c_degraded_mean_us : float;
  c_disk_floor_us : float;
  c_bystander_violations : int;
  c_tiered_violations : int;
  c_audit : Obs.Qos_audit.summary;
}

type result = {
  seed : int;
  duration : Time.span;
  replicated : cell;
  erasure : cell;
  speedup : float;
  deterministic : bool;
}

let experiment = "erasure"

(* A six-member ring so an Erasure {k = 4; m = 2} stripe spans every
   member, plus one standby that joins mid-run. Capacity is generous:
   the experiment is about losses and degraded reads, not placement
   pressure (the failover experiment covers full nodes). *)
let member_count = 6
let node_capacity = 420
let node_name i = Printf.sprintf "n%d" i
let standby_name = "n6"

(* Two wipes, m losses apart, plus a membership change and a lossy
   checksum — all virtual time / plan-seeded dice, no wall clock:
   n1 forgets its contents at T/3, n2 at 0.45 T (so an erasure stripe
   is down exactly m = 2 shards until repair catches up), the standby
   joins at 0.6 T, and every shard served by n3 has a 2% chance of
   failing its checksum. *)
let plan_for ~seed ~duration =
  let d = Time.to_ns duration in
  { Inject.default_plan with
    seed;
    node_faults =
      [ Inject.node_fault ~wipe_at:(Time.ns (d / 3)) (node_name 1);
        Inject.node_fault ~wipe_at:(Time.ns (d * 45 / 100)) (node_name 2);
        Inject.node_fault ~join_at:(Time.ns (d * 3 / 5)) standby_name;
        Inject.node_fault ~corrupt:0.02 (node_name 3) ] }

(* The fleet rides a gigabit fabric with jumbo frames — the
   disaggregated-memory premise (the network is an order of magnitude
   closer to DRAM than the disk); a shard or a whole page fits one
   frame. The disk floor the degraded path is measured against is the
   same one the bystanders pay. *)
let mk_node sys name =
  let link =
    Usnet.Link.create ~name ~params:Usnet.Net_params.gigabit (System.sim sys)
  in
  (name, Tier.Remote_node.create ~capacity_pages:node_capacity (), link)

(* The repair budget is the same deliberate trickle as the failover
   experiment (2 entries every 250 ms): with two nodes wiped the fleet
   cannot re-shard fast enough, so reads in the window MUST be served
   degraded — that window is what the experiment measures. *)
let build_fleet ~seed ~redundancy sys =
  Tier.Fleet.create ~seed ~redundancy
    ~standby:[ mk_node sys standby_name ]
    ~repair_period:(Time.ms 250) ~repair_budget:2
    ~nodes:(List.init member_count (fun i -> mk_node sys (node_name i)))
    (System.sim sys)

let run_cell ~seed ~duration ~name ~mode ~redundancy =
  let sys = Harness.tier_system ~seed in
  let fleet = build_fleet ~seed ~redundancy sys in
  let stores = ref [] in
  let apps =
    Harness.start_mix ~experiment sys ~tier_prefix:"fleet_" (fun nm ->
        Harness.fleet_backing ~experiment
          ~context:[ ("cell", name); ("app", nm) ]
          fleet
          ~on_store:(fun s -> stores := s :: !stores)
          nm)
  in
  Inject.arm (plan_for ~seed ~duration);
  Harness.run_and_drain sys ~duration;
  let domains = Harness.domain_reports apps in
  (* the disk durability floor the degraded path must beat: the
     bystanders' pooled fault-service latency over the same run *)
  let _, disk_floor, _ =
    Harness.pooled_faults
      (List.filter_map
         (fun (d : Harness.domain_report) ->
           if d.dr_tiered then None else Some d.dr_name)
         domains)
  in
  let degraded_count, degraded_mean =
    match Obs.Metrics.hist_view ~label:"fleet" "fleet.degraded_us" with
    | Some v -> (v.Obs.Metrics.hv_count, v.Obs.Metrics.hv_mean)
    | None -> (0, nan)
  in
  let store_totals = Harness.store_totals !stores in
  { c_name = name;
    c_mode = mode;
    c_domains = domains;
    c_fleet = Tier.Fleet.stats fleet;
    c_health = Tier.Fleet.health fleet;
    c_books_balanced = Tier.Fleet.books_balanced fleet;
    c_store_totals = store_totals;
    c_lost_slots = store_totals.Tier.Fleet.st_lost_slots;
    c_overhead = Tier.Fleet.storage_overhead fleet;
    c_degraded_count = degraded_count;
    c_degraded_mean_us = degraded_mean;
    c_disk_floor_us = disk_floor;
    c_bystander_violations = Harness.violations ~tiered:false domains;
    c_tiered_violations = Harness.violations ~tiered:true domains;
    c_audit = Obs.Qos_audit.summarize () }

let cell_to_json c =
  let open Report.Json in
  let f = c.c_fleet in
  let node h =
    obj
      [ ("name", str h.Tier.Fleet.nh_name); ("member", bool h.nh_member);
        ("used", int h.nh_used); ("capacity", int h.nh_capacity);
        ("quarantined", bool h.nh_quarantined);
        ("quarantines", int h.nh_quarantines); ("stores", int h.nh_stores);
        ("serves", int h.nh_serves); ("failovers", int h.nh_failovers) ]
  in
  obj_lines ~indent:3
    [ [ ("cell", str c.c_name); ("mode", str c.c_mode) ];
      [ ("domains", Harness.domains_json c.c_domains) ];
      [ ( "fleet",
          obj
            [ ("stores", int f.stores); ("acks", int f.acks);
              ("lost_primaries", int f.lost_primaries);
              ("failovers", int f.failovers); ("rebuilds", int f.rebuilds);
              ("disk_fallbacks", int f.disk_fallbacks);
              ("lost_shards", int f.lost_shards);
              ("degraded_reads", int f.degraded_reads);
              ("reconstructions", int f.reconstructions);
              ("corrupt_shards", int f.corrupt_shards);
              ("migrations", int f.migrations);
              ("node_joins", int f.node_joins);
              ("node_retires", int f.node_retires);
              ("quarantines", int f.quarantines);
              ("readmissions", int f.readmissions);
              ("wipes_applied", int f.wipes_applied);
              ("repair_rounds", int f.repair_rounds) ] ) ];
      [ ("nodes", list (List.map node c.c_health)) ];
      [ ("books_balanced", bool c.c_books_balanced);
        ("lost_slots", int c.c_lost_slots);
        ("storage_overhead", jf3 c.c_overhead) ];
      [ ("degraded_reads", int c.c_degraded_count);
        ("degraded_mean_us", jf c.c_degraded_mean_us);
        ("disk_floor_us", jf c.c_disk_floor_us) ];
      [ ("bystander_violations", int c.c_bystander_violations);
        ("tiered_violations", int c.c_tiered_violations) ] ]

let to_json r =
  let open Report.Json in
  record
    [ [ ("seed", int r.seed) ];
      [ ("duration_s", secs r.duration) ];
      [ ( "cells",
          rows ~indent:2 [ cell_to_json r.replicated; cell_to_json r.erasure ] )
      ];
      [ ("degraded_vs_disk_speedup", jf r.speedup) ];
      [ ("deterministic", bool r.deterministic) ] ]

(* Same-seed reproducibility is part of the verdict: both cells run
   twice — wipes, corruption dice, join, degraded reads, repair — and
   the canonical reports must match byte-for-byte. *)
let run ?(seed = 42) ?(duration = Time.sec 30) () =
  let one () =
    let replicated =
      run_cell ~seed ~duration ~name:"replicated" ~mode:"R=2"
        ~redundancy:(Tier.Fleet.Replicated 2)
    in
    let erasure =
      run_cell ~seed ~duration ~name:"erasure" ~mode:"k=4,m=2"
        ~redundancy:(Tier.Fleet.Erasure { k = 4; m = 2 })
    in
    let speedup =
      Harness.ratio erasure.c_disk_floor_us erasure.c_degraded_mean_us
    in
    { seed; duration; replicated; erasure; speedup; deterministic = true }
  in
  let r, same = Harness.rerun one ~to_json in
  { r with deterministic = same }

let ok r =
  let base c =
    c.c_lost_slots = 0 && c.c_books_balanced
    && c.c_bystander_violations = 0
    && c.c_fleet.Tier.Fleet.wipes_applied >= 2
    && c.c_fleet.Tier.Fleet.node_joins >= 1
    && c.c_fleet.Tier.Fleet.migrations >= 1
  in
  base r.replicated && base r.erasure
  && r.erasure.c_fleet.Tier.Fleet.degraded_reads > 0
  && r.erasure.c_fleet.Tier.Fleet.reconstructions > 0
  && r.erasure.c_fleet.Tier.Fleet.corrupt_shards >= 1
  && (not (Float.is_nan r.erasure.c_overhead))
  && r.erasure.c_overhead <= 1.55
  && r.erasure.c_overhead < r.replicated.c_overhead
  && (not (Float.is_nan r.speedup))
  && r.speedup >= 50.0
  && r.deterministic

let print_cell c =
  Printf.printf "--- cell %s (%s) ---\n" c.c_name c.c_mode;
  Harness.domain_table ~tier:"fleet" c.c_domains;
  let f = c.c_fleet in
  Printf.printf "placement: %d stores = %d acks (%s)\n" f.Tier.Fleet.stores
    f.Tier.Fleet.acks
    (if f.Tier.Fleet.stores = f.Tier.Fleet.acks then "balanced"
     else "UNBALANCED");
  (match f.Tier.Fleet.lost_shards with
  | 0 ->
      Printf.printf
        "primaries: %d lost = %d failovers + %d rebuilds + %d disk \
         fallbacks (%s)\n"
        f.Tier.Fleet.lost_primaries f.Tier.Fleet.failovers
        f.Tier.Fleet.rebuilds f.Tier.Fleet.disk_fallbacks
        (if c.c_books_balanced then "balanced" else "UNBALANCED")
  | _ ->
      Printf.printf
        "shards: %d lost = %d reconstructions + %d rebuilds + %d disk \
         fallbacks (%s)\n"
        f.Tier.Fleet.lost_shards f.Tier.Fleet.reconstructions
        f.Tier.Fleet.rebuilds f.Tier.Fleet.disk_fallbacks
        (if c.c_books_balanced then "balanced" else "UNBALANCED"));
  Printf.printf
    "health: %d wipes, %d corrupt shards, %d joins, %d migrations, %d \
     quarantines, %d repair rounds\n"
    f.Tier.Fleet.wipes_applied f.Tier.Fleet.corrupt_shards
    f.Tier.Fleet.node_joins f.Tier.Fleet.migrations f.Tier.Fleet.quarantines
    f.Tier.Fleet.repair_rounds;
  List.iter
    (fun h ->
      Printf.printf
        "  node %s: %s, %d/%d entries, %d stored, %d served, %d failovers%s\n"
        h.Tier.Fleet.nh_name
        (if h.Tier.Fleet.nh_member then "member" else "standby")
        h.Tier.Fleet.nh_used h.Tier.Fleet.nh_capacity h.Tier.Fleet.nh_stores
        h.Tier.Fleet.nh_serves h.Tier.Fleet.nh_failovers
        (if h.Tier.Fleet.nh_quarantined then " [quarantined]" else ""))
    c.c_health;
  Printf.printf
    "storage overhead: %.3fx; degraded reads: %d (mean %s us) vs disk floor \
     %s us\n"
    c.c_overhead c.c_degraded_count
    (Report.us c.c_degraded_mean_us)
    (Report.us c.c_disk_floor_us);
  Printf.printf "committed pages lost: %d\n" c.c_lost_slots;
  Report.audit_section
    (Printf.sprintf "QoS audit (%s)" c.c_name)
    (Some c.c_audit);
  Printf.printf "bystander (disk-only) violations: %d\n\n"
    c.c_bystander_violations

let print r =
  Report.heading
    "Erasure: k-of-n stripes vs whole-page replicas under double node loss";
  Printf.printf
    "seed %d, %.0f s (wipes at T/3 and 0.45T, standby joins at 0.6T, 2%% \
     corrupt serves on n3) + 2 s drain\n\n"
    r.seed (Time.to_sec r.duration);
  print_cell r.replicated;
  print_cell r.erasure;
  Printf.printf
    "erasure degraded read %.0f us vs disk floor %.0f us: %.0fx faster at \
     %.2fx storage (replicas: %.2fx)\n"
    r.erasure.c_degraded_mean_us r.erasure.c_disk_floor_us r.speedup
    r.erasure.c_overhead r.replicated.c_overhead;
  Printf.printf "same-seed rerun: %s\n"
    (if r.deterministic then "byte-identical" else "DIVERGED");
  Report.verdict (ok r)
    "two nodes lost, every read served from remote memory or the disk floor \
     with zero committed pages lost, parity at 1.5x storage instead of 2x, \
     books balance, reproducible"

(* ------------------------------------------------------------------ *)
(* Benchmark: the price of parity, healthy and degraded.               *)

type bench_result = {
  b_seed : int;
  b_duration : Time.span;
  b_cells : Harness.hot_run list;
  b_repl_us : float;
  b_ec_us : float;
  b_ec_wipe_us : float;
  b_disk_us : float;
  b_parity_price : float;
  b_ec_overhead : float;
  b_repl_overhead : float;
  b_ok : bool;
}

(* One hotspot run against one backend, split at T/2 where the wipe
   (if any) lands — node n0 loses its contents between the two run
   legs, so with a six-node erasure stripe every post-wipe read is
   degraded until repair catches up. *)
let bench_cell ~seed ~duration ~name ~redundancy ?(repair = true) ~wipe () =
  let fleet redundancy sys =
    let nodes = List.init member_count (fun i -> mk_node sys (node_name i)) in
    let _, n0, _ = List.hd nodes in
    (Tier.Fleet.create ~seed ~redundancy ~repair ~nodes (System.sim sys), n0)
  in
  Harness.hot_run ~experiment ~cell:name ~seed ~duration
    ~fleet:(Option.map fleet redundancy) ~wipe

let bench ?(seed = 42) ?(duration = Time.sec 30) () =
  let disk =
    bench_cell ~seed ~duration ~name:"disk" ~redundancy:None ~wipe:false ()
  in
  let repl =
    bench_cell ~seed ~duration ~name:"replicated"
      ~redundancy:(Some (Tier.Fleet.Replicated 2)) ~wipe:false ()
  in
  let ec =
    bench_cell ~seed ~duration ~name:"erasure"
      ~redundancy:(Some (Tier.Fleet.Erasure { k = 4; m = 2 })) ~wipe:false ()
  in
  let ec_wipe =
    (* repair off: every post-wipe read pays the reconstruction, so
       the cell measures the degraded path itself rather than how fast
       the repair loop erases it *)
    bench_cell ~seed ~duration ~name:"erasure_wipe"
      ~redundancy:(Some (Tier.Fleet.Erasure { k = 4; m = 2 })) ~repair:false
      ~wipe:true ()
  in
  let half2 (c : Harness.hot_run) = c.h_half2_mean_us in
  let parity_price = Harness.ratio (half2 ec) (half2 repl) in
  let fin f = not (Float.is_nan f) in
  let okv =
    fin parity_price
    && fin (half2 ec_wipe)
    && fin (half2 disk)
    && half2 ec_wipe <= 2.0 *. half2 ec
    && half2 disk >= 5.0 *. half2 ec_wipe
    && fin ec.h_overhead
    && ec.h_overhead <= 1.55
    && fin repl.h_overhead
    && repl.h_overhead >= 1.9
  in
  { b_seed = seed;
    b_duration = duration;
    b_cells = [ disk; repl; ec; ec_wipe ];
    b_repl_us = half2 repl;
    b_ec_us = half2 ec;
    b_ec_wipe_us = half2 ec_wipe;
    b_disk_us = half2 disk;
    b_parity_price = parity_price;
    b_ec_overhead = ec.h_overhead;
    b_repl_overhead = repl.h_overhead;
    b_ok = okv }

let bench_print r =
  Report.heading "Erasure benchmark: the price of parity, healthy and degraded";
  Printf.printf
    "seed %d, %.0f s per cell, hotspot; wipe (if any) at T/2; second-half \
     windows compared\n\n"
    r.b_seed (Time.to_sec r.b_duration);
  Report.table
    ~header:
      [ "cell"; "accesses"; "mean us"; "2nd-half us"; "fleet hits";
        "degraded"; "rebuilds"; "overhead" ]
    (List.map
       (fun (c : Harness.hot_run) ->
         [ c.h_cell; string_of_int c.h_accesses; Report.us c.h_mean_us;
           Report.us c.h_half2_mean_us; string_of_int c.h_fleet_hits;
           string_of_int c.h_fleet.degraded_reads;
           string_of_int c.h_fleet.rebuilds;
           (if Float.is_nan c.h_overhead then "-"
            else Printf.sprintf "%.2fx" c.h_overhead) ])
       r.b_cells);
  print_newline ();
  Printf.printf
    "parity price: %.2fx the replicated read (%.0f vs %.0f us) at %.2fx \
     storage instead of %.2fx; degraded %.0f us, disk %.0f us — %s\n"
    r.b_parity_price r.b_ec_us r.b_repl_us r.b_ec_overhead r.b_repl_overhead
    r.b_ec_wipe_us r.b_disk_us
    (if r.b_ok then "no disk-fallback cliff" else "CLIFF (or overhead off)")

let bench_to_json r =
  let open Report.Json in
  let node h =
    obj
      [ ("name", str h.Tier.Fleet.nh_name); ("member", bool h.nh_member);
        ("used", int h.nh_used); ("stores", int h.nh_stores);
        ("serves", int h.nh_serves); ("failovers", int h.nh_failovers);
        ("quarantines", int h.nh_quarantines) ]
  in
  let cell (c : Harness.hot_run) =
    let f = c.h_fleet in
    obj
      [ ("cell", str c.h_cell); ("accesses", int c.h_accesses);
        ("mean_us", jf c.h_mean_us); ("half2_mean_us", jf c.h_half2_mean_us);
        ("fleet_hits", int c.h_fleet_hits);
        ("degraded_reads", int f.degraded_reads);
        ("reconstructions", int f.reconstructions);
        ("rebuilds", int f.rebuilds); ("storage_overhead", jf3 c.h_overhead);
        ("nodes", list (List.map node c.h_health)) ]
  in
  record
    [ [ ("seed", int r.b_seed) ];
      [ ("duration_s", secs r.b_duration) ];
      [ ("cells", column ~indent:12 (List.map cell r.b_cells)) ];
      [ ("replicated_us", jf r.b_repl_us); ("erasure_us", jf r.b_ec_us);
        ("erasure_wipe_us", jf r.b_ec_wipe_us); ("disk_us", jf r.b_disk_us) ];
      [ ("parity_price", jf3 r.b_parity_price);
        ("erasure_overhead", jf3 r.b_ec_overhead);
        ("replicated_overhead", jf3 r.b_repl_overhead) ];
      [ ("ok", bool r.b_ok) ] ]
