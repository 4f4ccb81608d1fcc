open Engine
open Core
open Workload

type row = {
  policy : string;
  pattern : string;
  accesses : int;
  faults : int;
  miss_rate : float;
  demand_ins : int;
  prefetched : int;
  prefetch_hits : int;
  prefetch_waste : int;
  page_outs : int;
  evictions : int;
  wb_flushes : int;
  rescues : int;
  mean_fault_us : float;
  p99_fault_us : float;
  app_mbit : float;
  contender_mbit : float;
  violations : int;
}

type result = { duration : Time.t; rows : row list }

let experiment = "policy-compare"

let patterns =
  List.map (fun n -> (n, Harness.pattern ~experiment n)) Harness.patterns

(* The probe app: 256 pages of VM over 48 guaranteed frames, so the
   residency ratio is ~19% — small enough that sequential and random
   scans page hard, large enough that the hotspot working set (32
   pages) fits and a recency policy can keep it resident. *)
let probe_vm_pages = 256
let probe_frames = 48
let page_bytes = 8192

(* One cell of the comparison matrix: the probe app under [spec] and
   [pattern] (50% of the disk) next to a fixed contender (the seed
   policy, sequential, 25% of the disk). The contender witnesses QoS
   isolation: its throughput must not depend on the probe's policy,
   and the run must stay free of audit violations. *)
let run_cell ~duration ~seed spec (pat_name, pattern) =
  Obs.reset ();
  let sys = Harness.fresh_system ~seed () in
  let qos_probe =
    Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) ()
  in
  let qos_rival =
    Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 62) ()
  in
  let probe =
    Paging_app.start sys ~name:"probe" ~mode:Paging_app.Paging_in
      ~qos:qos_probe
      ~vm_bytes:(probe_vm_pages * page_bytes)
      ~phys_frames:probe_frames
      ~swap_bytes:(2 * probe_vm_pages * page_bytes)
      ~policy:spec ~pattern ()
    |> Harness.expect ~experiment (( ^ ) "policy-compare probe: ")
  in
  let rival =
    Paging_app.start sys ~name:"rival" ~mode:Paging_app.Paging_in
      ~qos:qos_rival ()
    |> Harness.expect ~experiment (( ^ ) "policy-compare rival: ")
  in
  System.run sys ~until:duration;
  let info = Paging_app.measured_info probe in
  let accesses = Paging_app.measured_accesses probe in
  let faults = info.Sd_paged.page_ins + info.Sd_paged.rescues in
  let mean_fault_us, p99_fault_us =
    match Obs.Metrics.hist_view ~label:"probe" "fault.latency_us" with
    | Some v -> (v.Obs.Metrics.hv_mean, Obs.Metrics.hist_quantile v 0.99)
    | None -> (nan, nan)
  in
  let row =
    { policy = Paging_app.policy_name probe;
      pattern = pat_name;
      accesses;
      faults;
      miss_rate =
        (if accesses = 0 then nan
         else float_of_int faults /. float_of_int accesses);
      demand_ins = info.Sd_paged.page_ins;
      prefetched = info.Sd_paged.prefetched;
      prefetch_hits = info.Sd_paged.prefetch_hits;
      prefetch_waste = info.Sd_paged.prefetch_waste;
      page_outs = info.Sd_paged.page_outs;
      evictions = info.Sd_paged.evictions;
      wb_flushes = info.Sd_paged.wb_flushes;
      rescues = info.Sd_paged.rescues;
      mean_fault_us;
      p99_fault_us;
      (* Overall progress rates (bytes touched over the whole run), not
         the sampler's steady-state rate: the contender pages a 4 MB
         stretch through 2 frames and on short runs never leaves its
         populate phase, and the probe's warm-up phases would make the
         sampled windows incomparable across policies. *)
      app_mbit =
        float_of_int (Paging_app.bytes_processed probe)
        *. 8.0 /. Time.to_sec duration /. 1e6;
      contender_mbit =
        float_of_int (Paging_app.bytes_processed rival)
        *. 8.0 /. Time.to_sec duration /. 1e6;
      violations = Obs.Qos_audit.total () }
  in
  Paging_app.stop probe;
  Paging_app.stop rival;
  row

let run ?(duration = Time.sec 60) ?(seed = 42)
    ?(policies = List.map snd Policy.Spec.presets) () =
  (* The experiment depends on the metrics/audit plane; run it with
     observability on, restoring the caller's setting afterwards. *)
  let was_enabled = !Obs.enabled in
  Obs.set_enabled true;
  let rows =
    List.concat_map
      (fun spec -> List.map (run_cell ~duration ~seed spec) patterns)
      policies
  in
  Obs.reset ();
  Obs.set_enabled was_enabled;
  { duration; rows }

let print r =
  Report.heading
    (Printf.sprintf
       "Policy comparison: paging figure per policy x pattern (%.0fs runs)"
       (Time.to_sec r.duration));
  Report.table
    ~header:
      [ "policy"; "pattern"; "accesses"; "faults"; "miss"; "pref";
        "hit"; "waste"; "outs"; "wb"; "resc"; "mean flt us"; "p99 flt us";
        "Mbit/s"; "rival Mbit/s"; "qos viol" ]
    (List.map
       (fun row ->
         [ row.policy; row.pattern;
           string_of_int row.accesses;
           string_of_int row.faults;
           Report.f2 row.miss_rate;
           string_of_int row.prefetched;
           string_of_int row.prefetch_hits;
           string_of_int row.prefetch_waste;
           string_of_int row.page_outs;
           string_of_int row.wb_flushes;
           string_of_int row.rescues;
           Report.f1 row.mean_fault_us;
           Report.f1 row.p99_fault_us;
           Report.f2 row.app_mbit;
           Report.f2 row.contender_mbit;
           string_of_int row.violations ])
       r.rows);
  print_newline ();
  print_endline
    "Each run pairs the probe app (50% disk) with a fixed FIFO contender";
  print_endline
    "(25% disk): the contender's throughput and a zero violation count";
  print_endline "witness that policy choice stays inside the domain's own";
  print_endline "guarantee — self-paging makes paging policy a private matter."

(* The compact layout (no spaces, [%.6g] numbers) predates the record
   layout of {!Report.Json}; BENCH_policy.json keeps it, so this record
   is written here, sharing only the string writer. *)
let json_str s = Report.Json.(to_string (str s))

let json_float f =
  if Float.is_nan f then "null" else Printf.sprintf "%.6g" f

let row_to_json row =
  Printf.sprintf
    "{\"policy\":%s,\"pattern\":%s,\"accesses\":%d,\"faults\":%d,\
     \"miss_rate\":%s,\"demand_ins\":%d,\"prefetched\":%d,\
     \"prefetch_hits\":%d,\"prefetch_waste\":%d,\"page_outs\":%d,\
     \"evictions\":%d,\"wb_flushes\":%d,\"rescues\":%d,\
     \"mean_fault_us\":%s,\"p99_fault_us\":%s,\"app_mbit\":%s,\
     \"contender_mbit\":%s,\"qos_violations\":%d}"
    (json_str row.policy) (json_str row.pattern) row.accesses row.faults
    (json_float row.miss_rate) row.demand_ins row.prefetched row.prefetch_hits
    row.prefetch_waste row.page_outs row.evictions row.wb_flushes row.rescues
    (json_float row.mean_fault_us) (json_float row.p99_fault_us)
    (json_float row.app_mbit) (json_float row.contender_mbit) row.violations

let to_json r =
  Printf.sprintf "{\"duration_s\":%s,\"rows\":[\n%s\n]}\n"
    (json_float (Time.to_sec r.duration))
    (String.concat ",\n" (List.map row_to_json r.rows))
