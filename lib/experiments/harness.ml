open Engine
open Core

let run_in_sim sys f =
  let result = ref None in
  ignore
    (Proc.spawn ~name:"experiment" (System.sim sys) (fun () ->
         result := Some (f ())));
  let fuel = ref 200_000_000 in
  while !result = None && !fuel > 0 do
    if Sim.step (System.sim sys) then decr fuel else fuel := 0
  done;
  match !result with
  | Some r -> r
  (* Harness failwiths: fuel exhaustion or a refused bench-domain
     admission mean the experiment never produced a result to
     qualify — abort loudly rather than fabricate one. *)
  | None -> failwith "run_in_sim: experiment did not complete"

let fresh_system ?(page_table = `Linear) ?(usd_rollover = true)
    ?(usd_laxity = true) ?(main_memory_mb = 64) ?(seed = 42) () =
  let config =
    { System.default_config with
      page_table; usd_rollover; usd_laxity; main_memory_mb; seed }
  in
  System.create ~config ()

let bench_domain sys ?(guarantee = 256) ?(optimistic = 0) ~name () =
  match
    System.add_domain sys ~name ~cpu_period:(Time.ms 10)
      ~cpu_slice:(Time.ms 9) ~guarantee ~optimistic ()
  with
  | Ok d -> d
  | Error e -> failwith ("bench_domain: " ^ System.error_message e)

(* One funnel for experiment verdict escapes: the experiment name and
   any structured context go to stderr (the exception message often
   surfaces far from the failing experiment, e.g. under alcotest),
   then the legacy message raises unchanged so callers and tests
   matching on [Failure msg] keep working. *)
let fail_verdict ~experiment ?(context = []) msg =
  Printf.eprintf "[experiment %s] FAILED: %s\n" experiment msg;
  List.iter
    (fun (k, v) -> Printf.eprintf "[experiment %s]   %s = %s\n" experiment k v)
    context;
  flush stderr;
  failwith msg

let pattern ~experiment name =
  match Workload.Paging_app.pattern_of_string name with
  | Ok p -> p
  | Error e -> fail_verdict ~experiment (Registry.error_message e)

let backing ~experiment spec ctx =
  match Tier.Backing.resolve spec with
  | Error e -> fail_verdict ~experiment (Registry.error_message e)
  | Ok factory -> (
      fun swap ->
        match factory ctx swap with
        | Ok b -> b
        | Error msg -> fail_verdict ~experiment msg)

let mean_span spans =
  match spans with
  | [] -> nan
  | _ ->
    let total = List.fold_left ( + ) 0 spans in
    float_of_int total /. float_of_int (List.length spans) /. 1e3

(* Attribute a QoS violation to a domain by name (CPU/USD feeds label
   streams "name" / "name.swap") or by domain id (frame-side feeds). *)
let violations_for ~names ~ids =
  List.length
    (List.filter
       (fun (_, v) ->
         match v with
         | Obs.Qos_audit.Cpu_undersupply { dom; _ } -> List.mem dom names
         | Obs.Qos_audit.Usd_undersupply { stream; _ } ->
           List.exists
             (fun n ->
               String.length stream >= String.length n
               && String.sub stream 0 (String.length n) = n)
             names
         | Obs.Qos_audit.Mem_overcommit _ -> false
         | Obs.Qos_audit.Revocation_overdue { dom; _ }
         | Obs.Qos_audit.Guarantee_starved { dom } -> List.mem dom ids)
       (Obs.Qos_audit.events ()))

let rerun once ~to_json =
  let r1 = once () in
  let r2 = once () in
  (r1, to_json r1 = to_json r2)

(* --- The tier-experiment scaffold ------------------------------------ *)

type domain_report = {
  dr_name : string;
  dr_pattern : string;
  dr_tiered : bool;
  dr_mbit : float;
  dr_accesses : int;
  dr_fault_mean_us : float;
  dr_fault_p95_us : float;
  dr_violations : int;
}

let patterns = [ "seq"; "rand"; "hot" ]

let tier_system ~seed =
  Obs.set_enabled true;
  Obs.reset ();
  Inject.disarm ();
  let config = { System.default_config with seed; main_memory_mb = 2 } in
  System.create ~config ()

let fault_hist name =
  match Obs.Metrics.hist_view ~label:name "fault.latency_us" with
  | Some v -> (v.Obs.Metrics.hv_mean, Obs.Metrics.hist_quantile v 0.95)
  | None -> (nan, nan)

let start_app ~experiment sys ~name ~pattern ?backing () =
  (* six apps share the disk: 6 x 35/250 = 0.84 leaves admission room *)
  let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 35) () in
  match
    Workload.Paging_app.start sys ~name ~mode:Workload.Paging_app.Paging_in
      ~qos ~vm_bytes:(1024 * 1024) ~phys_frames:8
      ~swap_bytes:(4 * 1024 * 1024) ?backing ~pattern ()
  with
  | Ok a -> a
  | Error e ->
      fail_verdict ~experiment ~context:[ ("app", name) ]
        (Printf.sprintf "%s: %s: %s" experiment name e)

type mix_app = {
  m_name : string;
  m_pattern : string;
  m_tiered : bool;
  m_app : Workload.Paging_app.t;
}

(* Apps start in a fixed order — the bystanders, then the tiered
   domains, each backing built (and its link clients admitted) just
   before its app — so same-seed runs stay byte-identical. *)
let start_mix ~experiment sys ~tier_prefix tier_backing =
  let start prefix backing_for =
    List.map
      (fun pat ->
        let name = prefix ^ pat in
        let backing = backing_for name in
        let pattern = pattern ~experiment pat in
        { m_name = name;
          m_pattern = pat;
          m_tiered = backing <> None;
          m_app = start_app ~experiment sys ~name ~pattern ?backing () })
      patterns
  in
  let disk = start "disk_" (fun _ -> None) in
  disk @ start tier_prefix (fun name -> Some (tier_backing name))

let run_and_drain sys ~duration =
  System.run ~until:duration sys;
  Inject.disarm ();
  System.run ~until:(Time.add duration (Time.sec 2)) sys

let domain_reports apps =
  List.map
    (fun a ->
      let mean, p95 = fault_hist a.m_name in
      { dr_name = a.m_name;
        dr_pattern = a.m_pattern;
        dr_tiered = a.m_tiered;
        dr_mbit = Workload.Paging_app.sustained_mbit a.m_app;
        dr_accesses = Workload.Paging_app.measured_accesses a.m_app;
        dr_fault_mean_us = mean;
        dr_fault_p95_us = p95;
        dr_violations =
          violations_for ~names:[ a.m_name ]
            ~ids:[ Domains.id (Workload.Paging_app.domain a.m_app).System.dom ]
      })
    apps

let violations ~tiered reports =
  List.fold_left
    (fun n r -> if r.dr_tiered = tiered then n + r.dr_violations else n)
    0 reports

let domain_table ~tier reports =
  Report.table
    ~header:
      [ "domain"; "pattern"; "backing"; "Mbit/s"; "accesses"; "fault us";
        "p95 us"; "violations" ]
    (List.map
       (fun d ->
         [ d.dr_name; d.dr_pattern; (if d.dr_tiered then tier else "disk");
           Report.mbit_s d.dr_mbit; string_of_int d.dr_accesses;
           Report.us d.dr_fault_mean_us; Report.us d.dr_fault_p95_us;
           string_of_int d.dr_violations ])
       reports)

let domains_json reports =
  let dom d =
    Printf.sprintf
      "{\"name\": %S, \"pattern\": %S, \"tiered\": %b, \"mbit_s\": %s, \
       \"accesses\": %d, \"fault_mean_us\": %s, \"fault_p95_us\": %s, \
       \"violations\": %d}"
      d.dr_name d.dr_pattern d.dr_tiered (Report.jf3 d.dr_mbit) d.dr_accesses
      (Report.jf d.dr_fault_mean_us)
      (Report.jf d.dr_fault_p95_us)
      d.dr_violations
  in
  Printf.sprintf "[%s]" (String.concat ", " (List.map dom reports))

(* Every tiered domain's link guarantee, per node link: 5 ms per 20 ms,
   slack-eligible, 2 ms laxity — 3 domains x 5/20 + a fleet's repair
   client 2/20 = 0.85 of each link. *)
let fleet_backing ~experiment ~context fleet ~on_store name =
  let clients =
    match
      Tier.Fleet.admit_clients fleet ~name:(name ^ ".tier")
        ~period:(Time.ms 20) ~slice:(Time.ms 5) ~extra:true
        ~laxity:(Time.of_ms_float 2.0) ()
    with
    | Ok cs -> cs
    | Error e ->
        fail_verdict ~experiment ~context
          (experiment ^ ": " ^ Usnet.Link.admit_error_message e)
  in
  backing ~experiment "fleet:cache-pages=24"
    [ Tier.Fleet.Fleet_tier
        { fc_fleet = fleet; fc_clients = clients; fc_on_store = on_store } ]

let store_totals stores =
  List.fold_left
    (fun a s ->
      let b = Tier.Fleet.store_stats s in
      let open Tier.Fleet in
      { st_cache_hits = a.st_cache_hits + b.st_cache_hits;
        st_fleet_hits = a.st_fleet_hits + b.st_fleet_hits;
        st_fleet_misses = a.st_fleet_misses + b.st_fleet_misses;
        st_promotes = a.st_promotes + b.st_promotes;
        st_demotes = a.st_demotes + b.st_demotes;
        st_write_fallbacks = a.st_write_fallbacks + b.st_write_fallbacks;
        st_clean_skips = a.st_clean_skips + b.st_clean_skips;
        st_lost_slots = a.st_lost_slots + b.st_lost_slots })
    { Tier.Fleet.st_cache_hits = 0; st_fleet_hits = 0; st_fleet_misses = 0;
      st_promotes = 0; st_demotes = 0; st_write_fallbacks = 0;
      st_clean_skips = 0; st_lost_slots = 0 }
    stores

type hot_run = {
  h_accesses : int;
  h_mean_us : float;
  h_half2_mean_us : float;
  h_fleet_hits : int;
  h_fleet : Tier.Fleet.stats;
  h_overhead : float;
  h_health : Tier.Fleet.node_health list;
}

(* The histogram is cumulative, so the second-half window is recovered
   from (count, mean) snapshots at T/2 and T:
   mean2h = (m2 c2 - m1 c1) / (c2 - c1). The wipe, when asked for, is
   applied directly between the two System.run legs, so the window
   boundary and the fault coincide. *)
let hot_run ~experiment ~cell ~seed ~duration ~fleet ~wipe =
  let sys = tier_system ~seed in
  let fleet = Option.map (fun build -> build sys) fleet in
  let store = ref None in
  let backing =
    Option.map
      (fun (f, _) ->
        fleet_backing ~experiment ~context:[ ("cell", cell) ] f
          ~on_store:(fun s -> store := Some s)
          "bench")
      fleet
  in
  let app =
    start_app ~experiment sys ~name:"bench"
      ~pattern:Workload.Paging_app.Hotspot ?backing ()
  in
  let snap () =
    match Obs.Metrics.hist_view ~label:"bench" "fault.latency_us" with
    | Some v -> (v.Obs.Metrics.hv_count, v.Obs.Metrics.hv_mean)
    | None -> (0, nan)
  in
  System.run ~until:(Time.ns (Time.to_ns duration / 2)) sys;
  let c1, m1 = snap () in
  (match fleet with
  | Some (_, victim) when wipe -> Tier.Remote_node.wipe victim
  | _ -> ());
  System.run ~until:duration sys;
  let c2, m2 = snap () in
  let half2 =
    if c2 > c1 then
      ((m2 *. float_of_int c2) -. (m1 *. float_of_int c1))
      /. float_of_int (c2 - c1)
    else nan
  in
  let stats, overhead, health =
    match fleet with
    | Some (f, _) ->
        ( Tier.Fleet.stats f,
          Tier.Fleet.storage_overhead f,
          Tier.Fleet.health f )
    | None ->
        ( { Tier.Fleet.stores = 0; acks = 0; replica_skips = 0;
            replica_timeouts = 0; remote_fulls = 0; lost_primaries = 0;
            failovers = 0; rebuilds = 0; disk_fallbacks = 0;
            secondary_rebuilds = 0; lost_shards = 0; degraded_reads = 0;
            reconstructions = 0; corrupt_shards = 0; migrations = 0;
            node_joins = 0; node_retires = 0; retransmits = 0;
            quarantines = 0; readmissions = 0; probes = 0;
            probe_failures = 0; wipes_applied = 0; repair_rounds = 0 },
          nan,
          [] )
  in
  { h_accesses = Workload.Paging_app.measured_accesses app;
    h_mean_us = m2;
    h_half2_mean_us = half2;
    h_fleet_hits =
      (match !store with
      | Some s -> (Tier.Fleet.store_stats s).Tier.Fleet.st_fleet_hits
      | None -> 0);
    h_fleet = stats;
    h_overhead = overhead;
    h_health = health }
