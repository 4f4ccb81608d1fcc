open Engine
open Core

type result = {
  seed : int;
  duration : Time.span;
  domains : Harness.domain_report list;
  tier : Tier.Store.stats;
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

let zero_stats =
  { Tier.Store.cache_hits = 0; remote_hits = 0; remote_misses = 0;
    promotes = 0; demotes = 0; remote_fulls = 0; drops_seen = 0;
    delays_seen = 0; retransmits = 0; retx_delays = []; drop_losses = 0;
    transfer_fails = 0;
    clean_aborts = 0; disk_fallbacks = 0; link_lost_slots = 0;
    lost_slots = 0 }

let add_stats a b =
  { Tier.Store.cache_hits = a.Tier.Store.cache_hits + b.Tier.Store.cache_hits;
    remote_hits = a.Tier.Store.remote_hits + b.Tier.Store.remote_hits;
    remote_misses = a.Tier.Store.remote_misses + b.Tier.Store.remote_misses;
    promotes = a.Tier.Store.promotes + b.Tier.Store.promotes;
    demotes = a.Tier.Store.demotes + b.Tier.Store.demotes;
    remote_fulls = a.Tier.Store.remote_fulls + b.Tier.Store.remote_fulls;
    drops_seen = a.Tier.Store.drops_seen + b.Tier.Store.drops_seen;
    delays_seen = a.Tier.Store.delays_seen + b.Tier.Store.delays_seen;
    retransmits = a.Tier.Store.retransmits + b.Tier.Store.retransmits;
    retx_delays = a.Tier.Store.retx_delays @ b.Tier.Store.retx_delays;
    drop_losses = a.Tier.Store.drop_losses + b.Tier.Store.drop_losses;
    transfer_fails = a.Tier.Store.transfer_fails + b.Tier.Store.transfer_fails;
    clean_aborts = a.Tier.Store.clean_aborts + b.Tier.Store.clean_aborts;
    disk_fallbacks = a.Tier.Store.disk_fallbacks + b.Tier.Store.disk_fallbacks;
    link_lost_slots =
      a.Tier.Store.link_lost_slots + b.Tier.Store.link_lost_slots;
    lost_slots = a.Tier.Store.lost_slots + b.Tier.Store.lost_slots }

(* Each tiered domain's own client on the tier's one link, under the
   tiered domains' (5 ms / 20 ms, extra, 2 ms lax) guarantee, and its
   store over the shared remote node. *)
let tiered_backing ~link ~remote ~on_store name =
  let client =
    match
      Usnet.Link.admit link ~name:(name ^ ".tier") ~period:(Time.ms 20)
        ~slice:(Time.ms 5) ~extra:true ~laxity:(Time.of_ms_float 2.0) ()
    with
    | Ok c -> c
    | Error e ->
        Harness.fail_verdict ~experiment:"remote" ~context:[ ("app", name) ]
          ("remote: " ^ Usnet.Link.admit_error_message e)
  in
  Harness.backing ~experiment:"remote" "tiered:cache-pages=24"
    [ Tier.Store.Tiered
        { tc_link = link; tc_client = client; tc_remote = remote;
          tc_on_store = on_store } ]

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
  let link =
    Usnet.Link.create ~name:"tier0" ~params:Usnet.Net_params.fast_ethernet
      (System.sim sys)
  in
  let remote = Tier.Remote_node.create ~capacity_pages:remote_capacity () in
  let stores = ref [] in
  let apps =
    Harness.start_mix ~experiment:"remote" sys ~tier_prefix:"tier_"
      (tiered_backing ~link ~remote ~on_store:(fun s -> stores := s :: !stores))
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
    tier =
      List.fold_left
        (fun acc s -> add_stats acc (Tier.Store.stats s))
        zero_stats !stores;
    books_balanced = List.for_all Tier.Store.books_balanced !stores;
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
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" r.seed);
  Buffer.add_string b
    (Printf.sprintf "  \"duration_s\": %.0f,\n" (Time.to_sec r.duration));
  Buffer.add_string b
    (Printf.sprintf "  \"domains\": %s,\n" (Harness.domains_json r.domains));
  let t = r.tier in
  Buffer.add_string b
    (Printf.sprintf
       "  \"tier\": {\"cache_hits\": %d, \"remote_hits\": %d, \
        \"remote_misses\": %d, \"promotes\": %d, \"demotes\": %d, \
        \"remote_fulls\": %d, \"drops_seen\": %d, \"delays_seen\": %d, \
        \"retransmits\": %d, \"retx_backoff_ms\": %.3f, \"drop_losses\": \
        %d, \"transfer_fails\": %d, \"clean_aborts\": %d, \
        \"disk_fallbacks\": %d, \"link_lost_slots\": %d, \"lost_slots\": \
        %d},\n"
       t.Tier.Store.cache_hits t.Tier.Store.remote_hits
       t.Tier.Store.remote_misses t.Tier.Store.promotes t.Tier.Store.demotes
       t.Tier.Store.remote_fulls t.Tier.Store.drops_seen
       t.Tier.Store.delays_seen t.Tier.Store.retransmits
       (Time.to_ms (List.fold_left ( + ) 0 t.Tier.Store.retx_delays))
       t.Tier.Store.drop_losses t.Tier.Store.transfer_fails
       t.Tier.Store.clean_aborts t.Tier.Store.disk_fallbacks
       t.Tier.Store.link_lost_slots t.Tier.Store.lost_slots);
  Buffer.add_string b
    (Printf.sprintf "  \"books_balanced\": %b,\n" r.books_balanced);
  Buffer.add_string b
    (Printf.sprintf "  \"remote\": {\"used\": %d, \"capacity\": %d},\n"
       r.remote_used r.remote_capacity);
  Buffer.add_string b
    (Printf.sprintf
       "  \"link\": {\"drops\": %d, \"delays\": %d, \"utilisation\": %.3f},\n"
       r.link_drops r.link_delays r.link_utilisation);
  Buffer.add_string b
    (Printf.sprintf "  \"bystander_violations\": %d,\n"
       r.bystander_violations);
  Buffer.add_string b
    (Printf.sprintf "  \"tiered_violations\": %d,\n" r.tiered_violations);
  Buffer.add_string b
    (Printf.sprintf "  \"deterministic\": %b\n" r.deterministic);
  Buffer.add_string b "}";
  Buffer.contents b

(* Same-seed reproducibility is part of the verdict: the whole fleet —
   link chaos included — runs twice and the canonical reports must
   match byte-for-byte. *)
let run ?(seed = 42) ?(duration = Time.sec 30) () =
  let r, same = Harness.rerun (fun () -> run_once ~seed ~duration) ~to_json in
  { r with deterministic = same }

let ok r =
  r.bystander_violations = 0 && r.books_balanced && r.link_drops > 0
  && r.tier.Tier.Store.remote_hits > 0
  && r.tier.Tier.Store.demotes > 0
  && r.deterministic

let print r =
  Report.heading "Remote paging: a memory tier across the network";
  Printf.printf
    "seed %d, %.0f s (link chaos in the second half) + 2 s drain\n\n" r.seed
    (Time.to_sec r.duration);
  Harness.domain_table ~tier:"tier" r.domains;
  print_newline ();
  let t = r.tier in
  Printf.printf
    "tier: %d cache hits, %d remote hits, %d remote misses, %d demotes, %d \
     promotes, %d remote-full degrades\n"
    t.Tier.Store.cache_hits t.Tier.Store.remote_hits
    t.Tier.Store.remote_misses t.Tier.Store.demotes t.Tier.Store.promotes
    t.Tier.Store.remote_fulls;
  Printf.printf
    "link: %d drops = %d retransmits + %d losses; %d failed transfers = %d \
     clean + %d disk fallbacks + %d lost slots (%s)\n"
    t.Tier.Store.drops_seen t.Tier.Store.retransmits
    t.Tier.Store.drop_losses t.Tier.Store.transfer_fails
    t.Tier.Store.clean_aborts t.Tier.Store.disk_fallbacks
    t.Tier.Store.link_lost_slots
    (if r.books_balanced then "books balance" else "UNBALANCED BOOKS");
  Printf.printf "remote node: %d/%d pages; link utilisation %.2f\n"
    r.remote_used r.remote_capacity r.link_utilisation;
  Printf.printf "same-seed rerun: %s\n\n"
    (if r.deterministic then "byte-identical" else "DIVERGED");
  Report.audit_section "Remote-paging QoS audit" (Some r.audit);
  Printf.printf "bystander (disk-only) violations: %d\n"
    r.bystander_violations;
  print_endline
    (if ok r then
       "VERDICT: ok — bystanders unperturbed, tier books balance, chaos \
        reproducible"
     else "VERDICT: FAILED")

(* ------------------------------------------------------------------ *)
(* Benchmark: tiered vs disk-only, per pattern, fault-free.            *)

type bench_cell = {
  bc_pattern : string;
  bc_tiered : bool;
  bc_mbit : float;
  bc_accesses : int;
  bc_fault_mean_us : float;
  bc_fault_p95_us : float;
  bc_cache_hits : int;
  bc_remote_hits : int;
  bc_remote_misses : int;
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
  let store = ref None in
  let backing =
    if not tiered then None
    else begin
      let link =
        Usnet.Link.create ~name:"bench0"
          ~params:Usnet.Net_params.fast_ethernet (System.sim sys)
      in
      let remote = Tier.Remote_node.create ~capacity_pages:128 () in
      Some
        (tiered_backing ~link ~remote
           ~on_store:(fun s -> store := Some s)
           "bench")
    end
  in
  let name = "bench" in
  let app =
    Harness.start_app ~experiment:"remote" sys ~name
      ~pattern:(Harness.pattern ~experiment:"remote" pat)
      ?backing ()
  in
  System.run ~until:duration sys;
  let mean, p95 = Harness.fault_hist name in
  let stats =
    match !store with Some s -> Tier.Store.stats s | None -> zero_stats
  in
  { bc_pattern = pat;
    bc_tiered = tiered;
    bc_mbit = Workload.Paging_app.sustained_mbit app;
    bc_accesses = Workload.Paging_app.measured_accesses app;
    bc_fault_mean_us = mean;
    bc_fault_p95_us = p95;
    bc_cache_hits = stats.Tier.Store.cache_hits;
    bc_remote_hits = stats.Tier.Store.remote_hits;
    bc_remote_misses = stats.Tier.Store.remote_misses }

let bench ?(seed = 42) ?(duration = Time.sec 30) () =
  let cells =
    List.concat_map
      (fun pat ->
        [ bench_cell ~seed ~duration ~pat ~tiered:false;
          bench_cell ~seed ~duration ~pat ~tiered:true ])
      Harness.patterns
  in
  let find p tiered =
    List.find (fun c -> c.bc_pattern = p && c.bc_tiered = tiered) cells
  in
  let hot_disk = find "hot" false and hot_tier = find "hot" true in
  let speedup =
    if
      Float.is_nan hot_disk.bc_fault_mean_us
      || Float.is_nan hot_tier.bc_fault_mean_us
      || hot_tier.bc_fault_mean_us <= 0.
    then nan
    else hot_disk.bc_fault_mean_us /. hot_tier.bc_fault_mean_us
  in
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
       (fun c ->
         [ c.bc_pattern; (if c.bc_tiered then "tier" else "disk");
           Report.mbit_s c.bc_mbit; string_of_int c.bc_accesses;
           Report.us c.bc_fault_mean_us; Report.us c.bc_fault_p95_us;
           Printf.sprintf "%d/%d/%d" c.bc_cache_hits c.bc_remote_hits
             c.bc_remote_misses ])
       r.b_cells);
  print_newline ();
  Printf.printf "hotspot fault-latency speedup (disk/tier): %s — tiered %s\n"
    (if Float.is_nan r.b_hot_speedup then "-"
     else Printf.sprintf "%.2fx" r.b_hot_speedup)
    (if r.b_hot_tiered_beats_disk then "beats disk-only"
     else "does NOT beat disk-only")

let bench_to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" r.b_seed);
  Buffer.add_string b
    (Printf.sprintf "  \"duration_s\": %.0f,\n" (Time.to_sec r.b_duration));
  let cell c =
    Printf.sprintf
      "{\"pattern\": %S, \"tiered\": %b, \"mbit_s\": %s, \"accesses\": %d, \
       \"fault_mean_us\": %s, \"fault_p95_us\": %s, \"cache_hits\": %d, \
       \"remote_hits\": %d, \"remote_misses\": %d}"
      c.bc_pattern c.bc_tiered (Report.jf3 c.bc_mbit) c.bc_accesses
      (Report.jf c.bc_fault_mean_us)
      (Report.jf c.bc_fault_p95_us)
      c.bc_cache_hits c.bc_remote_hits c.bc_remote_misses
  in
  Buffer.add_string b
    (Printf.sprintf "  \"cells\": [%s],\n"
       (String.concat ", " (List.map cell r.b_cells)));
  Buffer.add_string b
    (Printf.sprintf "  \"hot_speedup\": %s,\n" (Report.jf3 r.b_hot_speedup));
  Buffer.add_string b
    (Printf.sprintf "  \"hot_tiered_beats_disk\": %b\n"
       r.b_hot_tiered_beats_disk);
  Buffer.add_string b "}";
  Buffer.contents b
