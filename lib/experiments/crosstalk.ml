open Engine
open Hw
open Core

type latency_stats = {
  bursts : int;
  mean_ms : float;
  p95_ms : float;
  max_ms : float;
}

type config_result = {
  light_latency : latency_stats;
  heavy_mbit : float;
  light_cpu_ms : float;
  heavy_cpu_ms : float;
  pager_cpu_ms : float;
  fault_hists : (string * Obs.Metrics.hist_view) list;
  audit : Obs.Qos_audit.summary option;
}

type result = { self_paging : config_result; external_pager : config_result }

let heavy_bytes_vm = 4 * 1024 * 1024
let light_bytes_vm = 1024 * 1024

let experiment = "crosstalk"

let make_app sys ~name ~bytes =
  let d =
    System.add_domain sys ~name ~cpu_period:(Time.ms 10)
      ~cpu_slice:(Time.of_ms_float 1.5) ~guarantee:2 ~optimistic:0 ()
    |> Harness.expect ~experiment (fun e ->
           name ^ ": " ^ System.error_message e)
  in
  ( d,
    System.alloc_stretch d ~bytes ()
    |> Harness.expect ~experiment (fun e -> name ^ ": " ^ e) )

(* The light app: after init, every [burst_period] touch
   [burst_pages] consecutive pages (reads of swapped pages) and record
   how long the burst took. Skips measurement during warm-up. *)
let light_thread d stretch ~burst_pages ~burst_period ~warmup stats () =
  let dom = d.System.dom in
  let sim = Domains.sim dom in
  let npages = Stretch.npages stretch in
  (* Populate: dirty every page once so everything has been swapped. *)
  for i = 0 to npages - 1 do
    Domains.access dom (Stretch.page_base stretch i) `Write
  done;
  let pos = ref 0 in
  let rec loop () =
    let t0 = Sim.now sim in
    for _ = 1 to burst_pages do
      Domains.access dom (Stretch.page_base stretch !pos) `Read;
      Domains.consume_cpu dom (Time.us 20);
      pos := (!pos + 1) mod npages
    done;
    let dt = Time.diff (Sim.now sim) t0 in
    if Sim.now sim > warmup then Stats.add stats (float_of_int dt /. 1e6);
    if dt < burst_period then Proc.sleep (burst_period - dt);
    loop ()
  in
  loop ()

(* The heavy app: pages out as fast as it can (sequential writes with
   a tiny cache, every eviction dirty). *)
let heavy_thread d stretch bytes () =
  let dom = d.System.dom in
  let npages = Stretch.npages stretch in
  let rec loop () =
    for i = 0 to npages - 1 do
      Domains.access dom (Stretch.page_base stretch i) `Write;
      Domains.consume_cpu dom (Time.us 20);
      bytes := !bytes + Addr.page_size
    done;
    loop ()
  in
  loop ()

let latency_of stats =
  { bursts = Stats.count stats;
    mean_ms = Stats.mean stats;
    p95_ms = Stats.percentile stats 95.0;
    max_ms = Stats.max_value stats }

let cpu_ms dom = Time.to_ms (Domains.cpu_used dom)

let run_config ~external_ ~duration ~burst_pages ~burst_period =
  (* Each configuration gets a clean observability slate, so its
     histograms and audit verdict describe this run alone. *)
  if !Obs.enabled then Obs.reset ();
  let sys = Harness.fresh_system () in
  let light_d, light_s = make_app sys ~name:"light" ~bytes:light_bytes_vm in
  let heavy_d, heavy_s = make_app sys ~name:"heavy" ~bytes:heavy_bytes_vm in
  let pager_cpu = ref (fun () -> 0.0) in
  if external_ then begin
    let pager =
      Baseline.External_pager.create sys ()
      |> Harness.expect ~experiment (( ^ ) "pager: ")
    in
    ignore
      (Baseline.External_pager.attach pager light_d light_s ()
      |> Harness.expect ~experiment (( ^ ) "attach light: "));
    ignore
      (Baseline.External_pager.attach pager heavy_d heavy_s ~forgetful:true ()
      |> Harness.expect ~experiment (( ^ ) "attach heavy: "));
    let pd = Baseline.External_pager.pager_domain pager in
    pager_cpu := fun () -> cpu_ms pd.System.dom
  end
  else begin
    (* Self-paging: each app opens its own swap under its own disk
       guarantee (light 10%, heavy 20%). *)
    let bind d s ~period_ms ~slice_ms ~forgetful =
      let qos =
        Usbs.Qos.make ~period:(Time.ms period_ms) ~slice:(Time.ms slice_ms) ()
      in
      ignore
        (System.bind_paged d ~forgetful ~initial_frames:2
           ~swap_bytes:(16 * 1024 * 1024) ~qos s ()
        |> Harness.expect ~experiment (fun e ->
               "bind: " ^ System.error_message e))
    in
    Harness.run_in_sim sys (fun () ->
        (* A CM-like client wants a short period so that a fresh
           allocation (and hence low latency) is never far away. *)
        bind light_d light_s ~period_ms:20 ~slice_ms:2 ~forgetful:false;
        bind heavy_d heavy_s ~period_ms:250 ~slice_ms:50 ~forgetful:true)
  end;
  (* With the external pager, driver creation already happened in
     [attach]; forgetful behaviour comes from the workload (every
     eviction dirty) rather than the driver flag there. *)
  let stats = Stats.create ~keep_samples:true () in
  let heavy_bytes = ref 0 in
  let warmup = Time.sec 30 in
  ignore
    (Domains.spawn_thread light_d.System.dom ~name:"burst"
       (light_thread light_d light_s ~burst_pages ~burst_period ~warmup stats));
  ignore
    (Domains.spawn_thread heavy_d.System.dom ~name:"churn"
       (heavy_thread heavy_d heavy_s heavy_bytes));
  System.run sys ~until:duration;
  let fault_hists =
    if !Obs.enabled then
      List.filter_map
        (fun label ->
          Option.map
            (fun v -> (label, v))
            (Obs.Metrics.hist_view ~label "fault.latency_us"))
        (Obs.Metrics.labels_of "fault.latency_us")
    else []
  in
  let audit =
    if !Obs.enabled then Some (Obs.Qos_audit.summarize ()) else None
  in
  { light_latency = latency_of stats;
    heavy_mbit = float_of_int !heavy_bytes *. 8.0 /. Time.to_sec duration /. 1e6;
    light_cpu_ms = cpu_ms light_d.System.dom;
    heavy_cpu_ms = cpu_ms heavy_d.System.dom;
    pager_cpu_ms = !pager_cpu ();
    fault_hists; audit }

let run ?(duration = Time.sec 180) ?(burst_pages = 1)
    ?(burst_period = Time.ms 10) () =
  { self_paging =
      run_config ~external_:false ~duration ~burst_pages ~burst_period;
    external_pager =
      run_config ~external_:true ~duration ~burst_pages ~burst_period }

let print r =
  Report.heading
    "QoS crosstalk: self-paging vs external pager (Figure 2, quantified)";
  let row name c =
    [ name;
      string_of_int c.light_latency.bursts;
      Report.f2 c.light_latency.mean_ms;
      Report.f2 c.light_latency.p95_ms;
      Report.f2 c.light_latency.max_ms;
      Report.f2 c.heavy_mbit;
      Report.f1 c.light_cpu_ms;
      Report.f1 c.heavy_cpu_ms;
      Report.f1 c.pager_cpu_ms ]
  in
  Report.table
    ~header:
      [ "config"; "bursts"; "light mean ms"; "light p95 ms"; "light max ms";
        "heavy Mbit/s"; "light cpu ms"; "heavy cpu ms"; "pager cpu ms" ]
    [ row "self-paging" r.self_paging; row "external pager" r.external_pager ];
  print_newline ();
  print_endline
    "Under the external pager the light client queues FCFS behind the hog's";
  print_endline
    "~11ms writes and the pager burns its own CPU on their faults; under";
  print_endline
    "self-paging each domain pays for its own faults and the light client's";
  print_endline "burst latency is isolated.";
  let obs_sections name c =
    if c.fault_hists <> [] then begin
      Report.heading (name ^ ": per-domain fault latency");
      Report.hist_table c.fault_hists
    end;
    Report.audit_section (name ^ ": QoS audit") c.audit
  in
  obs_sections "self-paging" r.self_paging;
  obs_sections "external pager" r.external_pager
