(* Tests for the observability subsystem: the metrics registry, the
   bounded ring buffer, span nesting, the QoS-firewall auditor, and an
   end-to-end check that an instrumented paging run produces fault
   telemetry without audit false-positives. *)

open Engine
open Hw
open Core

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Metrics --- *)

let metrics_counters_and_gauges () =
  Obs.Metrics.reset ();
  let requests = Obs.Metrics.counter "requests" in
  Obs.Metrics.tick requests;
  Obs.Metrics.tick requests;
  Obs.Metrics.bump (Obs.Metrics.counter ~label:"domA" "requests") 5;
  check "unlabelled counter" 2 (Obs.Metrics.counter_value "requests");
  check "labelled counter" 5 (Obs.Metrics.counter_value ~label:"domA" "requests");
  check "missing counter is 0" 0 (Obs.Metrics.counter_value "nonesuch");
  (* Two handles on one name and label share the metric. *)
  Obs.Metrics.tick (Obs.Metrics.counter "requests");
  check "handles share a counter" 3 (Obs.Metrics.counter_value "requests");
  Obs.Metrics.set (Obs.Metrics.gauge "depth") 3.5;
  Alcotest.(check (option (float 0.0))) "gauge" (Some 3.5)
    (Obs.Metrics.gauge_value "depth");
  Alcotest.(check (list string)) "labels_of" [ ""; "domA" ]
    (Obs.Metrics.labels_of "requests");
  Obs.Metrics.reset ();
  check "reset clears" 0 (Obs.Metrics.counter_value "requests")

let metrics_histogram () =
  Obs.Metrics.reset ();
  let bounds = [| 1.0; 10.0; 100.0 |] in
  List.iter
    (Obs.Metrics.record (Obs.Metrics.histogram ~label:"d" ~bounds "lat"))
    [ 0.5; 5.0; 5.0; 50.0; 5000.0 ];
  (match Obs.Metrics.hist_view ~label:"d" "lat" with
  | None -> Alcotest.fail "histogram not registered"
  | Some v ->
    check "count" 5 v.Obs.Metrics.hv_count;
    Alcotest.(check (float 0.0)) "min" 0.5 v.Obs.Metrics.hv_min;
    Alcotest.(check (float 0.0)) "max" 5000.0 v.Obs.Metrics.hv_max;
    Alcotest.(check (float 1e-9)) "mean" 1012.1 v.Obs.Metrics.hv_mean;
    (* buckets: <=1: 1, <=10: 2, <=100: 1, overflow: 1 *)
    let counts = Array.map snd v.Obs.Metrics.hv_buckets in
    Alcotest.(check (array int)) "bucket counts" [| 1; 2; 1; 1 |] counts;
    Alcotest.(check (float 0.0)) "overflow bound is inf" infinity
      (fst v.Obs.Metrics.hv_buckets.(3));
    (* Quantile upper estimates: the 1st of 5 samples sits in bucket
       <=1, the 3rd in <=10, the last in the overflow (reported as the
       observed max). *)
    Alcotest.(check (float 0.0)) "q0.2" 1.0 (Obs.Metrics.hist_quantile v 0.2);
    Alcotest.(check (float 0.0)) "q0.6" 10.0 (Obs.Metrics.hist_quantile v 0.6);
    Alcotest.(check (float 0.0)) "q1" 5000.0 (Obs.Metrics.hist_quantile v 1.0));
  (* Exports don't raise and mention the metric. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  checkb "json mentions lat" true (contains (Obs.Metrics.to_json ()) "lat")

(* A handle made before [Obs.reset] re-resolves on its next write:
   what it wrote before the reset is gone, and what it writes after
   lands in the new registry only. *)
let handle_across_reset () =
  Obs.reset ();
  let c = Obs.Metrics.counter ~label:"d" "c"
  and g = Obs.Metrics.gauge "g"
  and h = Obs.Metrics.histogram "h" in
  Obs.Metrics.bump c 7;
  Obs.Metrics.set g 1.0;
  Obs.Metrics.record h 3.0;
  Obs.reset ();
  check "reset drops the old count" 0 (Obs.Metrics.counter_value ~label:"d" "c");
  Alcotest.(check (list string)) "nothing registered until the next write" []
    (Obs.Metrics.labels_of "c");
  Obs.Metrics.tick c;
  Obs.Metrics.set g 2.0;
  Obs.Metrics.record h 4.0;
  check "counts only in the new registry" 1
    (Obs.Metrics.counter_value ~label:"d" "c");
  Alcotest.(check (option (float 0.0))) "gauge in the new registry" (Some 2.0)
    (Obs.Metrics.gauge_value "g");
  (match Obs.Metrics.hist_view "h" with
  | Some v -> check "one sample in the new registry" 1 v.Obs.Metrics.hv_count
  | None -> Alcotest.fail "histogram not re-registered");
  (* The auditor's streams restart their streaks the same way: one bad
     period before the reset and one after are not two in a row. *)
  let s = Obs.Qos_audit.cpu_stream ~dom:"d" in
  let bad () =
    Obs.Qos_audit.boundary s ~now:(Time.ms 10) ~entitled:(Time.ms 10)
      ~got:0 ~backlogged:true
  in
  bad ();
  Obs.reset ();
  bad ();
  checkb "streak restarts at reset" true (Obs.Qos_audit.ok ());
  bad ();
  checkb "two in a row after it flag" false (Obs.Qos_audit.ok ());
  Obs.reset ()

let unused_handle_registers_nothing () =
  Obs.Metrics.reset ();
  ignore (Obs.Metrics.counter ~label:"d" "c");
  ignore (Obs.Metrics.gauge "g");
  ignore (Obs.Metrics.histogram "h");
  Alcotest.(check string) "registry empty" "[\n\n]" (Obs.Metrics.to_json ())

let kind_clash_raises () =
  Obs.Metrics.reset ();
  Obs.Metrics.set (Obs.Metrics.gauge ~label:"d" "x") 1.0;
  let c = Obs.Metrics.counter ~label:"d" "x" in
  Alcotest.check_raises "counter on a gauge"
    (Invalid_argument "Metrics: \"x\" (label \"d\") is a gauge, not a counter")
    (fun () -> Obs.Metrics.tick c);
  let h = Obs.Metrics.histogram ~label:"d" "x" in
  Alcotest.check_raises "histogram on a gauge"
    (Invalid_argument
       "Metrics: \"x\" (label \"d\") is a gauge, not a histogram")
    (fun () -> Obs.Metrics.record h 1.0);
  Obs.Metrics.reset ()

(* Minor words per call, over 1000 calls after a warm-up call. *)
let words_per_call f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    f ()
  done;
  int_of_float (Gc.minor_words () -. before) / 1000

let resolved_handles_allocate_nothing () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "c"
  and g = Obs.Metrics.gauge "g"
  and h = Obs.Metrics.histogram "h" in
  check "tick" 0 (words_per_call (fun () -> Obs.Metrics.tick c));
  check "bump" 0 (words_per_call (fun () -> Obs.Metrics.bump c 3));
  check "set" 0 (words_per_call (fun () -> Obs.Metrics.set g 2.5));
  check "record" 0 (words_per_call (fun () -> Obs.Metrics.record h 42.0));
  Obs.Metrics.reset ()

(* With Obs on, a TLB lookup costs what it costs with Obs off: a miss
   nothing, a hit its [Some pte]. *)
let tlb_lookup_allocates_nothing () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asn:3 ~vpn:10 Pte.absent;
  let hit () = ignore (Tlb.lookup tlb ~asn:3 ~vpn:10)
  and miss () = ignore (Tlb.lookup tlb ~asn:3 ~vpn:11) in
  let off_hit = words_per_call hit in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      Obs.reset ();
      check "miss" 0 (words_per_call miss);
      check "hit as with Obs off" off_hit (words_per_call hit);
      checkb "counted" true
        (Obs.Metrics.counter_value ~label:"asn3" "tlb.misses" > 1000))

let audit_boundary_allocates_nothing () =
  Obs.reset ();
  let s = Obs.Qos_audit.cpu_stream ~dom:"d" in
  check "non-violating boundary" 0
    (words_per_call (fun () ->
         Obs.Qos_audit.boundary s ~now:(Time.ms 10) ~entitled:(Time.ms 10)
           ~got:(Time.ms 10) ~backlogged:true));
  checkb "audited" true
    ((Obs.Qos_audit.summarize ()).Obs.Qos_audit.audited_boundaries > 1000);
  Obs.reset ()

(* --- Ring --- *)

let ring_wraparound () =
  let r = Obs.Ring.create ~capacity:4 () in
  for i = 1 to 10 do
    Obs.Ring.record r (Time.us i) i
  done;
  check "length capped" 4 (Obs.Ring.length r);
  check "dropped" 6 (Obs.Ring.dropped r);
  check "total" 10 (Obs.Ring.total r);
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 7; 8; 9; 10 ]
    (List.map snd (Obs.Ring.to_list r));
  Obs.Ring.clear r;
  check "clear empties" 0 (Obs.Ring.length r);
  check "clear resets dropped" 0 (Obs.Ring.dropped r)

(* --- Span --- *)

let span_nesting () =
  Obs.Span.reset ();
  let root = Obs.Span.start ~now:(Time.us 0) ~label:"d" "fault" in
  let child = Obs.Span.start ~now:(Time.us 10) ~parent:root "activation" in
  let grandchild = Obs.Span.start ~now:(Time.us 20) ~parent:child "usd.read" in
  Obs.Span.finish ~now:(Time.us 30) grandchild;
  Obs.Span.finish ~now:(Time.us 40) child;
  Obs.Span.finish ~now:(Time.us 50) root;
  Obs.Span.finish ~now:(Time.us 99) root;
  (* idempotent *)
  let recs = Obs.Span.finished () in
  check "three finished spans" 3 (List.length recs);
  let by_name n = List.find (fun r -> r.Obs.Span.name = n) recs in
  let root_r = by_name "fault" in
  let child_r = by_name "activation" in
  let grand_r = by_name "usd.read" in
  Alcotest.(check (option int)) "root has no parent" None root_r.Obs.Span.parent;
  Alcotest.(check (option int)) "child links root" (Some root_r.Obs.Span.id)
    child_r.Obs.Span.parent;
  Alcotest.(check (option int)) "grandchild links child"
    (Some child_r.Obs.Span.id) grand_r.Obs.Span.parent;
  checkb "durations positive" true
    (List.for_all (fun r -> r.Obs.Span.t1 > r.Obs.Span.t0) recs);
  (* CSV has a header plus one row per span. *)
  let lines =
    String.split_on_char '\n' (String.trim (Obs.Span.to_csv ()))
  in
  check "csv rows" 4 (List.length lines);
  Obs.Span.reset ();
  check "reset clears" 0 (List.length (Obs.Span.finished ()))

(* --- Qos_audit --- *)

let audit_cpu_undersupply () =
  Obs.reset ();
  let entitled = Time.ms 10 in
  let victim = Obs.Qos_audit.cpu_stream ~dom:"victim" in
  let feed ~got ~backlogged n =
    for i = 1 to n do
      Obs.Qos_audit.boundary victim ~now:(Time.ms (10 * i)) ~entitled ~got
        ~backlogged
    done
  in
  (* Underserved but idle: never a violation. *)
  feed ~got:0 ~backlogged:false 5;
  checkb "idle client never flags" true (Obs.Qos_audit.ok ());
  (* A single underserved period is within the QoS granularity. *)
  feed ~got:(Time.ms 2) ~backlogged:true 1;
  feed ~got:entitled ~backlogged:true 1;
  checkb "one bad period tolerated" true (Obs.Qos_audit.ok ());
  (* Small shortfall within tolerance: fine. *)
  feed ~got:(Time.ms 10 - Time.us 100) ~backlogged:true 5;
  checkb "tolerance absorbs jitter" true (Obs.Qos_audit.ok ());
  (* Two consecutive starved periods while backlogged: flagged. *)
  feed ~got:(Time.ms 2) ~backlogged:true 2;
  checkb "undersupply flagged" false (Obs.Qos_audit.ok ());
  Alcotest.(check (list (pair string int))) "by_class"
    [ ("cpu.undersupply", 1) ]
    (Obs.Qos_audit.by_class ());
  check "violation counter bumped" 1
    (Obs.Metrics.counter_value ~label:"cpu.undersupply" "qos.violations");
  (match Obs.Qos_audit.events () with
  | [ (_, Obs.Qos_audit.Cpu_undersupply { dom; periods; _ }) ] ->
    Alcotest.(check string) "victim named" "victim" dom;
    check "streak length" 2 periods
  | _ -> Alcotest.fail "expected one Cpu_undersupply event");
  Obs.reset ()

let audit_usd_undersupply () =
  Obs.reset ();
  let swap = Obs.Qos_audit.usd_stream ~stream:"swap" in
  for i = 1 to 3 do
    Obs.Qos_audit.boundary swap ~now:(Time.ms (250 * i)) ~entitled:(Time.ms 50)
      ~got:(Time.ms 1) ~backlogged:true
  done;
  checkb "usd undersupply flagged" false (Obs.Qos_audit.ok ());
  (* Patience 2: periods 1+2 flag once and reset; period 3 starts a new
     streak that is still within patience. *)
  Alcotest.(check (list (pair string int))) "class" [ ("usd.undersupply", 1) ]
    (Obs.Qos_audit.by_class ());
  Obs.reset ()

let audit_mem_and_revocation () =
  Obs.reset ();
  (* Within capacity: fine. *)
  Obs.Qos_audit.mem_grant ~now:Time.zero ~dom:1 ~guarantee:60 ~capacity:100;
  Obs.Qos_audit.mem_grant ~now:Time.zero ~dom:2 ~guarantee:40 ~capacity:100;
  checkb "exactly full is fine" true (Obs.Qos_audit.ok ());
  (* Overcommit Σg > capacity: flagged. *)
  Obs.Qos_audit.mem_grant ~now:Time.zero ~dom:3 ~guarantee:10 ~capacity:100;
  checkb "overcommit flagged" false (Obs.Qos_audit.ok ());
  (* Releasing a contract brings Σg back down; a new grant is clean. *)
  Obs.Qos_audit.mem_release ~dom:3;
  Obs.Qos_audit.mem_release ~dom:2;
  Obs.Qos_audit.mem_grant ~now:Time.zero ~dom:4 ~guarantee:30 ~capacity:100;
  Alcotest.(check (list (pair string int))) "only the one overcommit"
    [ ("mem.overcommit", 1) ]
    (Obs.Qos_audit.by_class ());
  (* Revocation protocol outcomes. *)
  Obs.Qos_audit.revocation_done ~now:(Time.ms 50) ~dom:1
    ~deadline:(Time.ms 100) ~ok:true;
  check "clean revocation not flagged" 1 (Obs.Qos_audit.total ());
  Obs.Qos_audit.revocation_done ~now:(Time.ms 150) ~dom:1
    ~deadline:(Time.ms 100) ~ok:false;
  Obs.Qos_audit.guarantee_starved ~now:(Time.ms 200) ~dom:2;
  Alcotest.(check (list (pair string int))) "all classes"
    [ ("guarantee.starved", 1); ("mem.overcommit", 1);
      ("revocation.overdue", 1) ]
    (Obs.Qos_audit.by_class ());
  let s = Obs.Qos_audit.summarize () in
  check "summary violations" 3 s.Obs.Qos_audit.violations;
  check "recent retained" 3 (List.length s.Obs.Qos_audit.recent);
  Obs.reset ();
  checkb "reset forgets" true (Obs.Qos_audit.ok ())

(* --- End to end: an instrumented paging run --- *)

let instrumented_paging_run () =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      Obs.reset ();
      let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
      let d =
        match
          System.add_domain sys ~name:"app" ~guarantee:8 ~optimistic:0 ()
        with
        | Ok d -> d
        | Error e -> failwith (System.error_message e)
      in
      let s =
        match System.alloc_stretch d ~bytes:(32 * Addr.page_size) () with
        | Ok s -> s
        | Error e -> failwith e
      in
      let finished = ref false in
      ignore
        (Domains.spawn_thread d.System.dom ~name:"main" (fun () ->
             let qos =
               Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) ()
             in
             (match
                System.bind_paged d ~initial_frames:4
                  ~swap_bytes:(64 * Addr.page_size) ~qos s ()
              with
             | Ok _ -> ()
             | Error e -> failwith (System.error_message e));
             (* Two sweeps: populate (demand-zero), then revisit so the
                early pages must come back from swap. *)
             for i = 0 to 31 do
               Domains.access d.System.dom (Stretch.page_base s i) `Write
             done;
             for i = 0 to 31 do
               Domains.access d.System.dom (Stretch.page_base s i) `Read
             done;
             finished := true));
      System.run sys ~until:(Time.sec 120);
      checkb "workload finished" true !finished;
      (* Fault telemetry exists for the domain, under its name. *)
      checkb "fault counter" true
        (Obs.Metrics.counter_value ~label:"app" "fault.count" > 0);
      (match Obs.Metrics.hist_view ~label:"app" "fault.latency_us" with
      | None -> Alcotest.fail "no fault-latency histogram"
      | Some v ->
        checkb "histogram populated" true (v.Obs.Metrics.hv_count > 0);
        checkb "latencies positive" true (v.Obs.Metrics.hv_mean > 0.0));
      (* The TLB saw this address space, and spans decompose faults. *)
      checkb "tlb counters" true
        (Obs.Metrics.labels_of "tlb.misses" <> []);
      let spans = Obs.Span.finished () in
      let has n = List.exists (fun r -> r.Obs.Span.name = n) spans in
      checkb "fault spans" true (has "fault");
      checkb "activation spans" true (has "activation");
      checkb "dispatch spans" true (has "mm.dispatch");
      checkb "usd.read spans" true (has "usd.read");
      let fault_ids =
        List.filter_map
          (fun r ->
            if r.Obs.Span.name = "fault" then Some r.Obs.Span.id else None)
          spans
      in
      checkb "activations link to faults" true
        (List.exists
           (fun r ->
             r.Obs.Span.name = "activation"
             && match r.Obs.Span.parent with
                | Some p -> List.mem p fault_ids
                | None -> false)
           spans);
      (* The paper's claim, audited online: an unperturbed run has no
         QoS violations. *)
      checkb "audit clean" true (Obs.Qos_audit.ok ()))

(* --- Obs on/off: instrumentation never changes the simulated run --- *)

type backing_kind = Disk | Zram | Fleet

let show_backing = function Disk -> "disk" | Zram -> "zram" | Fleet -> "fleet"

(* What a run shows from outside: per app its bytes processed, faults
   taken and driver statistics; the USD trace; the engine's event
   count. *)
let obs_outcome ~obs ~backing ~policy ~pattern ~seed =
  Obs.set_enabled obs;
  Obs.reset ();
  Inject.disarm ();
  let sys =
    System.create
      ~config:{ System.default_config with seed; main_memory_mb = 2 } ()
  in
  let sim = System.sim sys in
  let experiment = "obs-property" in
  let backing_fn =
    match backing with
    | Disk -> None
    | Zram ->
      let _, client =
        match System.admit_service sys ~guarantee:0 ~optimistic:16 with
        | Ok c -> c
        | Error e -> failwith (System.error_message e)
      in
      let zpool =
        Share.Zpool.create ~sim ~frames:(System.frames sys) ~client
          ~ramtab:(System.ramtab sys) ~budget:8 ()
      in
      Some
        (Experiments.Harness.backing ~experiment "zram"
           [ Share.Sd_zram.Zram { zc_zpool = zpool; zc_label = "app.zram" } ])
    | Fleet ->
      let node name =
        ( name,
          Tier.Remote_node.create ~capacity_pages:256 (),
          Usnet.Link.create ~name ~params:Usnet.Net_params.gigabit sim )
      in
      let fleet =
        Tier.Fleet.create ~seed ~redundancy:(Tier.Fleet.Replicated 2)
          ~nodes:[ node "n0"; node "n1" ] sim
      in
      Some
        (Experiments.Harness.fleet_backing ~experiment ~context:[] fleet
           ~on_store:ignore "app")
  in
  let start name ?backing ?policy pattern =
    let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 50) () in
    match
      Workload.Paging_app.start sys ~name ~mode:Workload.Paging_app.Paging_in
        ~qos ~vm_bytes:(256 * 1024) ~phys_frames:4 ~swap_bytes:(1024 * 1024)
        ?policy ?backing ~pattern ()
    with
    | Ok a -> a
    | Error e -> failwith e
  in
  let apps =
    [ start "app" ?backing:backing_fn ~policy pattern;
      start "bystander" Workload.Paging_app.Sequential ]
  in
  let stop = ref false and events = ref 0 in
  ignore (Sim.at sim (Time.sec 4) (fun () -> stop := true));
  while (not !stop) && Sim.step sim do
    incr events
  done;
  let result =
    ( List.map
        (fun a ->
          ( Workload.Paging_app.bytes_processed a,
            Domains.faults_taken (Workload.Paging_app.domain a).System.dom,
            Workload.Paging_app.paging_info a ))
        apps,
      Trace.filter (fun _ -> true) (Usbs.Usd.trace (System.usd sys)),
      !events )
  in
  Obs.set_enabled false;
  Obs.reset ();
  result

let obs_on_off_same_outcome =
  let policies = [| "fifo"; "clock"; "fifo+ra8"; "fifo+wb16" |] in
  let patterns =
    [| Workload.Paging_app.Sequential; Workload.Paging_app.Random;
       Workload.Paging_app.Hotspot |]
  in
  let backings = [| Disk; Zram; Fleet |] in
  let gen =
    QCheck.Gen.(
      quad (int_bound 2) (int_bound 3) (int_bound 2) (int_range 1 1000))
  in
  let print (b, p, pat, seed) =
    Printf.sprintf "backing %s, policy %s, pattern %s, seed %d"
      (show_backing backings.(b)) policies.(p)
      (Workload.Paging_app.pattern_name patterns.(pat))
      seed
  in
  QCheck.Test.make ~name:"obs on and off give the same run" ~count:12
    (QCheck.make gen ~print)
    (fun (b, p, pat, seed) ->
      let policy =
        match Policy.Spec.of_string policies.(p) with
        | Ok s -> s
        | Error e -> failwith e
      in
      let run obs =
        obs_outcome ~obs ~backing:backings.(b) ~policy
          ~pattern:patterns.(pat) ~seed
      in
      let on = run true in
      let (_, _, events) as off = run false in
      events > 0 && on = off)

let suite =
  [ ( "obs.metrics",
      [ Alcotest.test_case "counters and gauges" `Quick
          metrics_counters_and_gauges;
        Alcotest.test_case "histograms" `Quick metrics_histogram;
        Alcotest.test_case "handle across reset" `Quick handle_across_reset;
        Alcotest.test_case "unused handle registers nothing" `Quick
          unused_handle_registers_nothing;
        Alcotest.test_case "kind clash raises" `Quick kind_clash_raises;
        Alcotest.test_case "resolved handles allocate nothing" `Quick
          resolved_handles_allocate_nothing;
        Alcotest.test_case "tlb lookup allocates nothing" `Quick
          tlb_lookup_allocates_nothing;
        Alcotest.test_case "audit boundary allocates nothing" `Quick
          audit_boundary_allocates_nothing ] );
    ( "obs.ring",
      [ Alcotest.test_case "wraparound" `Quick ring_wraparound ] );
    ( "obs.span",
      [ Alcotest.test_case "nesting" `Quick span_nesting ] );
    ( "obs.qos_audit",
      [ Alcotest.test_case "cpu undersupply" `Quick audit_cpu_undersupply;
        Alcotest.test_case "usd undersupply" `Quick audit_usd_undersupply;
        Alcotest.test_case "memory and revocation" `Quick
          audit_mem_and_revocation ] );
    ( "obs.integration",
      [ Alcotest.test_case "instrumented paging run" `Quick
          instrumented_paging_run;
        QCheck_alcotest.to_alcotest obs_on_off_same_outcome ] ) ]
