(* Drive a built workload's event loop to its end time, one [Sim.step]
   at a time, and collect what the run produced.

   The loop stops at a sentinel event scheduled at the end time, so the
   engine counts are taken from outside the simulator. The untraced
   loop only counts events; the traced loop also reads the wall clock
   around every step, notes steps that left the virtual clock where it
   was (same-instant events), tracks the pending-event high-water and
   calls [sample] each time the virtual clock crosses a multiple of
   [sample_every]. *)

open Engine
open Core
module App = Workload.Paging_app
module W = Workloads

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type engine = {
  events : int;
  same_instant : int;
  pending_hwm : int;
  step_ns : int;  (** wall time inside [Sim.step], traced loop only *)
  wall_s : float;
  minor_words : float;
  live_words : int;  (** live major-heap data when the loop ended *)
}

let drive ~sample_every ~sample ~traced (w : W.t) =
  let sim = System.sim w.sys in
  let next_sample = ref (Sim.now sim / sample_every * sample_every) in
  let stop = ref false in
  ignore (Sim.at sim w.until (fun () -> stop := true));
  let events = ref 0 and same = ref 0 and hwm = ref 0 and step_ns = ref 0 in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  if traced then
    while
      let before = Sim.now sim in
      let s0 = now_ns () in
      let ran = Sim.step sim in
      step_ns := !step_ns + (now_ns () - s0);
      if ran && not !stop then begin
        incr events;
        if Sim.now sim = before then incr same;
        let p = Sim.pending sim in
        if p > !hwm then hwm := p;
        if Sim.now sim >= !next_sample then begin
          sample ();
          next_sample := (Sim.now sim / sample_every * sample_every) + sample_every
        end
      end;
      ran && not !stop
    do
      ()
    done
  else
    while Sim.step sim && not !stop do
      incr events
    done;
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  if not !stop then failwith "event queue drained before the end time";
  Gc.full_major ();
  { events = !events;
    same_instant = !same;
    pending_hwm = !hwm;
    step_ns = !step_ns;
    wall_s = float_of_int (t1 - t0) /. 1e9;
    minor_words = w1 -. w0;
    live_words = (Gc.quick_stat ()).Gc.live_words }

(* ---- what a finished run shows from outside ---- *)

let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let fsum f l = List.fold_left (fun a x -> a +. f x) 0.0 l

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Merge every domain's [fault.latency_us] histogram and read a
   quantile from it, interpolating linearly inside the bucket that holds
   it (the buckets are roughly log-spaced, so the bucket bound alone
   would read the same for most seeds). *)
let fault_hist () =
  let views =
    List.filter_map
      (fun label -> Obs.Metrics.hist_view ~label "fault.latency_us")
      (Obs.Metrics.labels_of "fault.latency_us")
  in
  match views with
  | [] -> (0, fun _ -> 0.0)
  | v0 :: _ ->
      let buckets =
        Array.mapi
          (fun i (b, _) ->
            (b, sum (fun v -> snd v.Obs.Metrics.hv_buckets.(i)) views))
          v0.Obs.Metrics.hv_buckets
      in
      let count = sum (fun v -> v.Obs.Metrics.hv_count) views in
      let lo_all =
        List.fold_left (fun a v -> Float.min a v.Obs.Metrics.hv_min) infinity views
      and hi_all =
        List.fold_left (fun a v -> Float.max a v.Obs.Metrics.hv_max) 0.0 views
      in
      let q p =
        let target = p *. float_of_int count in
        let rec go i seen prev =
          let b, c = buckets.(i) in
          if (float_of_int (seen + c) >= target && c > 0)
             || i = Array.length buckets - 1
          then
            let lo = Float.max prev lo_all
            and hi = if Float.is_finite b then Float.min b hi_all else hi_all in
            let frac = (target -. float_of_int seen) /. float_of_int (max c 1) in
            lo +. ((Float.max 0.0 (hi -. lo)) *. Float.min 1.0 (Float.max 0.0 frac))
          else go (i + 1) (seen + c) b
        in
        if count = 0 then 0.0 else go 0 0 0.0
      in
      (count, q)

type outcome = {
  accesses : int;  (** page accesses, initialisation included *)
  mbit : float;  (** Σ over domains in their measured loop *)
  faults : int;
  fault_p50_us : float;
  fault_p99_us : float;
  fault_samples : int;
  qos_violations : int;
  failed_faults : int;
  lost_pages : int;
  info : Sd_paged.info list;
  books_ok : bool;
  fleet_books_ok : bool;
}

let page_bits = float_of_int (Hw.Addr.page_size * 8)

let outcome (w : W.t) =
  let now = Sim.now (System.sim w.sys) in
  let accesses =
    sum (fun d -> App.bytes_processed d.W.app / Hw.Addr.page_size) w.doms
  in
  let mbit =
    fsum
      (fun d ->
        match App.loop_started_at d.W.app with
        | Some t0 when Time.diff now t0 >= Time.sec 1 ->
            float_of_int (App.measured_accesses d.W.app)
            *. page_bits
            /. Time.to_sec (Time.diff now t0)
            /. 1e6
        | _ -> 0.0)
      w.doms
  in
  let fault_samples, q = fault_hist () in
  let info = List.map (fun d -> App.paging_info d.W.app) w.doms in
  let fleet_lost =
    match w.fleet with
    | None -> 0
    | Some f ->
        sum (fun s -> (Tier.Fleet.store_stats s).Tier.Fleet.st_lost_slots) !(f.stores)
  in
  let frames = System.frames w.sys in
  let held =
    sum (fun d -> Frames.held d.System.frames_client) (System.domains w.sys)
  in
  let rt = System.ramtab w.sys in
  let owned = ref 0 in
  for pfn = 0 to Hw.Ramtab.nframes rt - 1 do
    if Hw.Ramtab.owner rt ~pfn <> None then incr owned
  done;
  { accesses;
    mbit;
    faults =
      sum (fun d -> Domains.faults_taken (App.domain d.W.app).System.dom) w.doms;
    fault_p50_us = q 0.50;
    fault_p99_us = q 0.99;
    fault_samples;
    qos_violations = Obs.Qos_audit.total ();
    failed_faults = Obs.Metrics.sum_labels "fault.failed";
    lost_pages = sum (fun i -> i.Sd_paged.lost_pages) info + fleet_lost;
    info;
    books_ok =
      Frames.free_frames frames + held = Frames.total_frames frames
      && !owned = held;
    fleet_books_ok =
      (match w.fleet with
      | None -> true
      | Some f -> Tier.Fleet.books_balanced f.fleet) }
