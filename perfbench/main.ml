(* The paging benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   [--trace 0] measures the end-to-end metrics: it sets the workload up
   several times (set-up time), then runs it untraced, from a fresh
   system each time, for about [S] wall seconds, and reports medians.
   Every run must reproduce the first run's simulated outcome exactly.

   [--trace 1] measures the per-layer metrics: one untraced reference
   run, one traced run (which must reproduce the reference's simulated
   outcome and counts exactly), one run with Obs switched off (the
   observer's wall cost, and whether it changes the outcome), then the
   micro-timings of [Micro].

   Human-readable lines come first; the last line of standard output is
   one JSON object. The exit code is 1 when a correctness check fails,
   2 on a usage error. *)

open Engine
open Core
module App = Workload.Paging_app
module W = Workloads
module D = Drive

(* ---- arguments ---- *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" W.names
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let args =
  let tbl = Hashtbl.create 4 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  tbl

let arg name = match Hashtbl.find_opt args name with Some v -> v | None -> usage ()
let int_arg name = match int_of_string_opt (arg name) with Some n -> n | None -> usage ()
let workload = arg "workload"
let () = if not (List.mem workload W.names) then usage ()
let seed = int_arg "seed"
let seconds = int_arg "seconds"
let traced = match arg "trace" with "0" -> false | "1" -> true | _ -> usage ()

(* ---- one run ---- *)

type run = {
  w : W.t;
  setup_s : float;
  e : D.engine;
  o : D.outcome;
  fleet0 : Tier.Fleet.stats option;  (** fleet counters when the drive began *)
  stores0 : Tier.Fleet.store_stats list;
  slack_ns : int;  (** CPU time only slack could have supplied (traced) *)
}

(* Reads the fleet answered, and reads of never-placed slots, summed
   over the fleet domains' stores. *)
let fleet_reads stats =
  List.fold_left
    (fun (h, m) st -> (h + st.Tier.Fleet.st_fleet_hits, m + st.Tier.Fleet.st_fleet_misses))
    (0, 0) stats

let store_stats (f : W.fleet) = List.map Tier.Fleet.store_stats !(f.stores)

let build ?(seed = seed) ~obs ~traced () =
  Gc.compact ();
  let t0 = D.now_ns () in
  let w = W.build workload ~seed ~obs ~traced in
  (w, float_of_int (D.now_ns () - t0) /. 1e9)

(* Slack CPU time, sampled by the traced run: at every 10 ms CPU-period
   boundary each domain's use since the last sample, less what its
   (p, s) contract granted over those periods, is time only slack could
   have supplied. Periods are taken as aligned to the sample grid, so
   this is an estimate. *)
let cpu_slack (w : W.t) =
  let period = Time.ms 10 in
  let doms = Array.of_list (List.map (fun d -> App.domain d.W.app) w.doms) in
  let used d = Domains.cpu_used d.System.dom in
  let last = Array.map used doms in
  let last_at = ref (Sim.now (System.sim w.sys)) and slack = ref 0 in
  let sample () =
    let now = Sim.now (System.sim w.sys) in
    let periods = max 1 (Time.diff now !last_at / period) in
    Array.iteri
      (fun i d ->
        let u = used d in
        let sp = System.spec d in
        let granted = periods * sp.sp_cpu_slice * period / sp.sp_cpu_period in
        slack := !slack + max 0 (u - last.(i) - granted);
        last.(i) <- u)
      doms;
    last_at := now
  in
  (period, sample, slack)

let run ?seed ?(obs = true) ~traced () =
  let w, setup_s = build ?seed ~obs ~traced () in
  let fleet0, stores0 =
    match w.fleet with
    | None -> (None, [])
    | Some f -> (Some (Tier.Fleet.stats f.fleet), store_stats f)
  in
  let sample_every, sample, slack = cpu_slack w in
  let e = D.drive ~sample_every ~sample ~traced w in
  { w; setup_s; e; o = D.outcome w; fleet0; stores0; slack_ns = !slack }

(* ---- correctness ---- *)

(* Correctness checks as (check, run label, passed), reported grouped by
   check. *)
let checks = ref []
let check ?(label = "") name ok = checks := (name, label, ok) :: !checks

let check_outcome ~label ~obs (r : run) =
  let o = r.o in
  let check = check ~label in
  check "frame books balance (free + held = total, RamTab agrees)" o.books_ok;
  check "fleet books balance" o.fleet_books_ok;
  check "no committed page lost" (o.lost_pages = 0);
  check "every domain reached its measured loop"
    (List.for_all (fun d -> App.in_measured_loop d.W.app) r.w.doms);
  if obs then begin
    check "zero QoS violations" (o.qos_violations = 0);
    check "zero failed faults" (o.failed_faults = 0)
  end

let sum = D.sum
let info_sum f (r : run) = sum f r.o.info

(* Busy time, lax time and packets from a link's transmit trace. *)
let link_trace l =
  let busy = ref 0 and lax = ref 0 and packets = ref 0 in
  Trace.iter
    (fun _ ev ->
      match ev with
      | Usnet.Link.Tx { dur; _ } | Usnet.Link.Slack_tx { dur; _ } ->
          busy := !busy + dur;
          incr packets
      | Usnet.Link.Lax { dur; _ } -> lax := !lax + dur
      | Usnet.Link.Alloc _ -> ())
    (Usnet.Link.trace l);
  (!busy, !lax, !packets)

(* The simulated outcome and every count a run must reproduce: virtual
   time results and the engine, core, disk, tier and link counts. [obs]
   adds the values only Obs can see. *)
let signature ~obs (r : run) =
  let o = r.o in
  let i f = info_sum f r in
  let open Sd_paged in
  let base =
    Printf.sprintf "accesses=%d mbit=%.17g events=%d faults=%d ins=%d outs=%d \
                    evictions=%d rescues=%d prefetched=%d hits=%d waste=%d \
                    wb=%d lost=%d disk=%d/%d fleet=%s"
      o.accesses o.mbit r.e.events o.faults (i (fun x -> x.page_ins))
      (i (fun x -> x.page_outs)) (i (fun x -> x.evictions))
      (i (fun x -> x.rescues)) (i (fun x -> x.prefetched))
      (i (fun x -> x.prefetch_hits)) (i (fun x -> x.prefetch_waste))
      (i (fun x -> x.wb_flushes)) o.lost_pages
      (Disk.Disk_model.mechanical_ops (System.disk r.w.sys))
      (Disk.Disk_model.cache_hits (System.disk r.w.sys))
      (match r.w.fleet with
      | None -> "-"
      | Some f ->
          let s = Tier.Fleet.stats f.fleet in
          let hits, misses = fleet_reads (store_stats f) in
          Printf.sprintf "%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d packets=%d" s.stores
            s.acks s.lost_shards s.degraded_reads s.reconstructions s.rebuilds
            s.disk_fallbacks s.corrupt_shards s.migrations s.retransmits hits
            misses
            (sum (fun l -> let _, _, n = link_trace l in n) f.links))
  in
  if obs then
    Printf.sprintf "%s p50=%.17g p99=%.17g samples=%d qos=%d failed=%d" base
      o.fault_p50_us o.fault_p99_us o.fault_samples o.qos_violations
      o.failed_faults
  else base

(* ---- metrics ---- *)

(* Reported metrics; [~json:false] ones are printed but left out of the
   final JSON line (counts that are zero on a correct run). *)
let metrics = ref []
let metric ?(json = true) name value unit =
  metrics := (name, value, unit, json) :: !metrics
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The simulator's retained state (traces, books, histograms, caches)
   only grows during a run, so the live heap when the event loop ends is
   its peak. Heap size itself also counts the collector's free space,
   which depends on where the last major cycle stopped. *)
let heap_mb (e : D.engine) = fi (e.live_words * (Sys.word_size / 8)) /. 1048576.0

(* End-to-end runs cycle through [inputs] input sets derived from the
   seed, the seed itself first: each simulated metric is a median over
   the sets, and a second run of a set must reproduce the first. *)
let inputs = 3
let input_seed k = if k = 0 then seed else seed + (k * 1_000_003)

let end_to_end () =
  (* Set-up time: a median over several set-ups (each built, then
     dropped), plus the set-ups of the measured runs. *)
  let setups = List.init 9 (fun _ -> snd (build ~obs:true ~traced:false ())) in
  let t_start = D.now_ns () in
  let elapsed () = fi (D.now_ns () - t_start) /. 1e9 in
  (* Keep only what the report needs from each run, so no run's system
     stays live (and grows the heap) while the next one is measured. *)
  let rec reps acc n =
    let r = run ~seed:(input_seed (n mod inputs)) ~traced:false () in
    check_outcome ~label:(Printf.sprintf "run %d" (n + 1)) ~obs:true r;
    let acc = (r.o, r.e, r.setup_s, signature ~obs:true r) :: acc in
    if n < inputs || elapsed () < fi seconds then reps acc (n + 1) else List.rev acc
  in
  let runs = Array.of_list (reps [] 0) in
  check "same input, same outcome and minor words on every run"
    (Array.for_all Fun.id
       (Array.mapi
          (fun n (_, e, _, s) ->
            let _, e0, _, s0 = runs.(n mod inputs) in
            s = s0 && e.D.minor_words = e0.D.minor_words)
          runs));
  let per_input f = median (List.init inputs (fun k -> f runs.(k))) in
  let per_run f = median (Array.to_list (Array.map f runs)) in
  let vt f = per_input (fun (o, _, _, _) -> f o) in
  let accesses (o, _, _, _) = fi o.D.accesses in
  Printf.printf "runs: %d, wall s each: %s\n" (Array.length runs)
    (String.concat " "
       (Array.to_list (Array.map (fun (_, e, _, _) -> Printf.sprintf "%.3f" e.D.wall_s) runs)));
  metric "setup_s"
    (median (setups @ Array.to_list (Array.map (fun (_, _, s, _) -> s) runs)))
    "s";
  metric "wall_s" (per_run (fun (_, e, _, _) -> e.D.wall_s)) "s";
  metric "host_us_per_access"
    (per_run (fun ((_, e, _, _) as r) -> e.D.wall_s *. 1e6 /. accesses r))
    "us";
  metric "minor_words_per_access"
    (per_input (fun ((_, e, _, _) as r) -> e.D.minor_words /. accesses r))
    "words";
  metric "peak_heap_mb" (per_input (fun (_, e, _, _) -> heap_mb e)) "MB";
  metric "vt_accesses" (per_input accesses) "count";
  metric "vt_mbit" (vt (fun o -> o.mbit)) "Mbit/s";
  metric "vt_fault_p50_us" (vt (fun o -> o.fault_p50_us)) "us";
  metric "vt_fault_p99_us" (vt (fun o -> o.fault_p99_us)) "us";
  metric ~json:false "vt_fault_samples" (vt (fun o -> fi o.fault_samples)) "count";
  let total f = Array.fold_left (fun a (o, _, _, _) -> a + f o) 0 runs in
  let attempted = total (fun o -> o.accesses)
  and failed = total (fun o -> o.failed_faults + o.lost_pages) in
  metric ~json:false "qos_violations" (fi (total (fun o -> o.qos_violations))) "count";
  metric ~json:false "error_rate" (ratio (fi failed) (fi attempted)) "ratio";
  (attempted, failed)

let per_layer () =
  let reference = run ~traced:false () in
  let r = run ~traced:true () in
  let off = run ~obs:false ~traced:false () in
  check_outcome ~label:"untraced run" ~obs:true reference;
  check_outcome ~label:"traced run" ~obs:true r;
  check_outcome ~label:"obs-off run" ~obs:false off;
  check "traced run reproduces the untraced outcome and counts"
    (signature ~obs:true r = signature ~obs:true reference);
  let perturbs = signature ~obs:false off <> signature ~obs:false reference in
  Gc.compact ();
  let micro = Micro.all () in
  let o = r.o and e = r.e and w = r.w in
  let acc = fi o.accesses and events = fi e.events in
  let dur = fi (Time.to_ns w.until) in
  let i f = fi (info_sum f r) in
  metric "engine.events" events "count";
  metric "engine.same_instant_share" (ratio (fi e.same_instant) events) "ratio";
  metric "engine.events_per_access" (ratio events acc) "count";
  metric "engine.pending_hwm" (fi e.pending_hwm) "count";
  metric "engine.host_ns_per_event" (ratio (fi e.step_ns) events) "ns";
  metric "engine.minor_words_per_event"
    (ratio reference.e.minor_words (fi reference.e.events)) "words";
  let cpu_used =
    fi (sum (fun d -> Domains.cpu_used (App.domain d.W.app).System.dom) w.doms)
  in
  metric "sched.cpu_utilisation" (cpu_used /. dur) "ratio";
  metric "sched.slack_share" (ratio (fi r.slack_ns) cpu_used) "ratio";
  metric "core.faults_per_access" (ratio (fi o.faults) acc) "ratio";
  metric "core.page_ins" (i (fun x -> x.Sd_paged.page_ins)) "count";
  metric "core.page_outs" (i (fun x -> x.Sd_paged.page_outs)) "count";
  metric "core.evictions" (i (fun x -> x.Sd_paged.evictions)) "count";
  metric "core.rescues" (i (fun x -> x.Sd_paged.rescues)) "count";
  metric "policy.prefetch_hit_ratio"
    (ratio (i (fun x -> x.Sd_paged.prefetch_hits)) (i (fun x -> x.Sd_paged.prefetched)))
    "ratio";
  metric "policy.prefetch_waste" (i (fun x -> x.Sd_paged.prefetch_waste)) "count";
  metric "policy.wb_flushes" (i (fun x -> x.Sd_paged.wb_flushes)) "count";
  let usd_clients =
    List.filter_map
      (fun d -> Result.to_option (Usbs.Sfs.usd_client d.W.swap))
      w.doms
  in
  let usd_sum f = fi (sum f usd_clients) in
  let txn_us = ref [] in
  Trace.iter
    (fun _ ev ->
      match ev with
      | Usbs.Usd.Txn { dur; _ } -> txn_us := Time.to_us dur :: !txn_us
      | _ -> ())
    (Usbs.Usd.trace (System.usd w.sys));
  let disk = System.disk w.sys in
  let mech = fi (Disk.Disk_model.mechanical_ops disk) in
  metric "usd.txns" (usd_sum Usbs.Usd.txn_count) "count";
  metric "usd.busy_share" (usd_sum Usbs.Usd.used_time /. dur) "ratio";
  metric "usd.lax_ms" (usd_sum Usbs.Usd.lax_time /. 1e6) "ms";
  metric "usd.txn_p99_us" (D.percentile (D.sorted_of_list !txn_us) 0.99) "us";
  metric "disk.mechanical_ops" mech "count";
  metric "disk.cache_hit_ratio"
    (let hits = fi (Disk.Disk_model.cache_hits disk) in
     ratio hits (hits +. mech))
    "ratio";
  let p = w.probe in
  let reads = D.sorted_of_list p.read_us in
  metric "tier.reads" (fi p.reads) "count";
  metric "tier.writes" (fi p.writes) "count";
  metric "tier.errors" (fi p.errors) "count";
  metric "tier.read_vt_p50_us" (D.percentile reads 0.50) "us";
  metric "tier.read_vt_p99_us" (D.percentile reads 0.99) "us";
  let delta f =
    match (w.fleet, r.fleet0) with
    | Some fl, Some s0 -> fi (f (Tier.Fleet.stats fl.fleet) - f s0)
    | _ -> 0.0
  in
  let hits, misses =
    match w.fleet with
    | None -> (0, 0)
    | Some fl ->
        let h1, m1 = fleet_reads (store_stats fl) and h0, m0 = fleet_reads r.stores0 in
        (h1 - h0, m1 - m0)
  in
  metric "tier.fleet_hit_ratio" (ratio (fi hits) (fi (hits + misses))) "ratio";
  metric "tier.degraded_reads" (delta (fun s -> s.Tier.Fleet.degraded_reads)) "count";
  metric "tier.reconstructions" (delta (fun s -> s.Tier.Fleet.reconstructions)) "count";
  metric "tier.retransmits" (delta (fun s -> s.Tier.Fleet.retransmits)) "count";
  let links = match w.fleet with None -> [] | Some f -> List.map link_trace f.links in
  metric "usnet.link_utilisation_max"
    (List.fold_left (fun a (busy, _, _) -> Float.max a (fi busy /. dur)) 0.0 links)
    "ratio";
  metric "usnet.lax_ms" (fi (sum (fun (_, lax, _) -> lax) links) /. 1e6) "ms";
  metric "usnet.packets" (fi (sum (fun (_, _, n) -> n) links)) "count";
  metric "obs.wall_ratio" (reference.e.wall_s /. off.e.wall_s) "ratio";
  metric "obs.perturbs_outcome" (if perturbs then 1.0 else 0.0) "bool";
  metric "trace.overhead" (r.e.wall_s /. reference.e.wall_s) "ratio";
  List.iter (fun (n, v, u) -> metric n v u) micro;
  if perturbs then
    Printf.printf "obs on vs off changes the outcome:\n  on:  %s\n  off: %s\n"
      (signature ~obs:false reference) (signature ~obs:false off);
  (o.accesses, o.failed_faults + o.lost_pages)

(* ---- report ---- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  Printf.printf "workload %s, seed %d, %s run\n" workload seed
    (if traced then "traced (per-layer)" else "untraced (end-to-end)");
  let attempted, failed = if traced then per_layer () else end_to_end () in
  let metrics = List.rev !metrics and checks = List.rev !checks in
  List.iter
    (fun (n, v, u, _) -> Printf.printf "%-32s %16s %s\n" n (json_number v) u)
    metrics;
  let names = List.sort_uniq compare (List.map (fun (n, _, _) -> n) checks) in
  List.iter
    (fun name ->
      let mine = List.filter (fun (n, _, _) -> n = name) checks in
      let failed =
        List.filter_map (fun (_, l, ok) -> if ok then None else Some l) mine
      in
      Printf.printf "check %s: %s\n" name
        (match failed with
        | [] -> Printf.sprintf "ok (%d)" (List.length mine)
        | l -> "FAILED (" ^ String.concat ", " l ^ ")"))
    names;
  let correct = List.for_all (fun (_, _, ok) -> ok) checks in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.filter_map
          (fun (n, v, u, json) ->
            if json then
              Some (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
            else None)
          metrics));
  exit (if correct then 0 else 1)
