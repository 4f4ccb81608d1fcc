open Engine
open Hw
open Core

type pattern_report = {
  pr_pattern : string;
  pr_domains : int;
  pr_measured : int;
  pr_accesses : int;
  pr_mbit : float;
}

type result = {
  seed : int;
  domains : int;
  duration : Time.span;
  patterns : pattern_report list;
  total_accesses : int;
  measured_domains : int;
  aggregate_mbit : float;
  refusal_requested : int;
  refusal_available : int;
  refusal_message : string;
  violations : int;
  audit : Obs.Qos_audit.summary;
  frames : Harness.frame_books;
  guaranteed_total : int;
  usd_utilisation : float;
  revocations : int;
}

let experiment = "scale"

(* Per-domain sizing. Guarantees only (o = 0): the point of the scale
   run is many domains self-paging concurrently under honest admission
   control, not revocation storms — the chaos experiment covers those. *)
let guarantee = 6
let vm_pages = 16
let swap_pages = 32

let pattern_of i =
  let n = [| "seq"; "rand"; "hot" |].(i mod 3) in
  (Harness.pattern ~experiment n, n)

let run ?(seed = 42) ?(domains = 128) ?(duration = Time.sec 60) () =
  if domains < 1 then invalid_arg "Scale.run: domains must be positive";
  (* Memory sized so every guarantee fits with ~25 % headroom left
     unguaranteed — tight enough that the late-comer refusal below is
     a real admission decision, not a formality. *)
  let sys =
    Harness.observed_system
      { System.default_config with
        seed;
        main_memory_mb =
          Harness.memory_mb ~guaranteed:(domains * guarantee) ~extra:0 }
  in
  let cpu_slice, qos = Harness.flat_contracts domains in
  let apps =
    List.init domains (fun i ->
        let pattern, pname = pattern_of i in
        let name = Printf.sprintf "d%03d" i in
        (* the first [domains] admissions are sized to fit; only the
           deliberate 129th below may be refused *)
        let app =
          Workload.Paging_app.start sys ~name
            ~mode:Workload.Paging_app.Paging_in ~qos
            ~vm_bytes:(vm_pages * Addr.page_size) ~phys_frames:guarantee
            ~optimistic:0 ~swap_bytes:(swap_pages * Addr.page_size)
            ~cpu_slice ~pattern ()
          |> Harness.expect ~experiment (Printf.sprintf "scale: %s: %s" name)
        in
        (app, pname))
  in
  (* The 129th domain: admission control must refuse it with the typed
     overcommit error carrying the exact shortfall. *)
  let fr = System.frames sys in
  let over = Frames.total_frames fr - Frames.guaranteed_total fr + 1 in
  let refusal_message, refusal_requested, refusal_available =
    match
      System.add_domain sys ~name:"latecomer" ~cpu_slice:(Time.us 20)
        ~guarantee:over ~optimistic:0 ()
    with
    | Ok _ ->
      Harness.fail_verdict ~experiment
        "scale: overcommitted admission was accepted"
    | Error
        (System.Frames_admission
           (Frames.Admission_overcommit { requested; available }) as e) ->
      (System.error_message e, requested, available)
    | Error e ->
      Harness.fail_verdict ~experiment
        ("scale: unexpected refusal: " ^ System.error_message e)
  in
  System.run ~until:duration sys;
  let agg pname =
    let mine = List.filter (fun (_, p) -> p = pname) apps in
    let measured =
      List.filter (fun (a, _) -> Workload.Paging_app.in_measured_loop a) mine
    in
    let mbit =
      List.fold_left
        (fun acc (a, _) ->
          let m = Workload.Paging_app.sustained_mbit a in
          if Float.is_nan m then acc else acc +. m)
        0.0 measured
    in
    { pr_pattern = pname;
      pr_domains = List.length mine;
      pr_measured = List.length measured;
      pr_accesses =
        List.fold_left
          (fun acc (a, _) -> acc + Workload.Paging_app.measured_accesses a)
          0 mine;
      pr_mbit = (if measured = [] then Float.nan else mbit) }
  in
  let patterns = List.map agg [ "seq"; "rand"; "hot" ] in
  let audit = Obs.Qos_audit.summarize () in
  { seed;
    domains;
    duration;
    patterns;
    total_accesses =
      List.fold_left (fun a p -> a + p.pr_accesses) 0 patterns;
    measured_domains =
      List.fold_left (fun a p -> a + p.pr_measured) 0 patterns;
    aggregate_mbit =
      List.fold_left
        (fun a p -> if Float.is_nan p.pr_mbit then a else a +. p.pr_mbit)
        0.0 patterns;
    refusal_requested;
    refusal_available;
    refusal_message;
    violations = audit.Obs.Qos_audit.violations;
    audit;
    frames = Harness.frame_books sys ~extra_held:0;
    guaranteed_total = Frames.guaranteed_total fr;
    usd_utilisation = Usbs.Usd.utilisation (System.usd sys);
    revocations = Frames.revocations fr }

let ok r =
  r.violations = 0 && r.frames.fb_balanced && r.total_accesses > 0
  && r.measured_domains > 0
  && r.refusal_available = r.frames.fb_total - r.guaranteed_total
  && r.refusal_requested = r.refusal_available + 1

let print r =
  Report.heading "Scale: many self-paging domains";
  Printf.printf "seed %d, %d domains, %.0f s\n\n" r.seed r.domains
    (Time.to_sec r.duration);
  Report.table
    ~header:[ "pattern"; "domains"; "measured"; "accesses"; "Mbit/s" ]
    (List.map
       (fun p ->
         [ p.pr_pattern; string_of_int p.pr_domains;
           string_of_int p.pr_measured; string_of_int p.pr_accesses;
           Report.mbit_s p.pr_mbit ])
       r.patterns);
  print_newline ();
  Printf.printf
    "admission: %d domains × %d guaranteed frames = %d of %d; late-comer \
     asking %d refused (\"%s\")\n"
    r.domains guarantee r.guaranteed_total r.frames.fb_total r.refusal_requested
    r.refusal_message;
  Harness.print_frame_books r.frames;
  Printf.printf "disk utilisation booked: %s; intrusive revocations: %d\n\n"
    (Report.f2 r.usd_utilisation) r.revocations;
  Report.audit_section "Scale QoS audit" (Some r.audit);
  Report.verdict (ok r)
    "fleet admitted and isolated, zero violations, books balance"

let to_json r =
  let open Report.Json in
  let pat p =
    obj
      [ ("pattern", str p.pr_pattern); ("domains", int p.pr_domains);
        ("measured", int p.pr_measured); ("accesses", int p.pr_accesses);
        ("mbit_s", jf3 p.pr_mbit) ]
  in
  record
    [ [ ("seed", int r.seed) ];
      [ ("domains", int r.domains) ];
      [ ("duration_s", secs r.duration) ];
      [ ("patterns", list (List.map pat r.patterns)) ];
      [ ("total_accesses", int r.total_accesses) ];
      [ ("measured_domains", int r.measured_domains) ];
      [ ("aggregate_mbit_s", jf3 r.aggregate_mbit) ];
      [ ( "refusal",
          obj
            [ ("requested", int r.refusal_requested);
              ("available", int r.refusal_available);
              ("message", str r.refusal_message) ] ) ];
      [ ( "frames",
          obj
            [ ("total", int r.frames.fb_total); ("free", int r.frames.fb_free);
              ("held", int r.frames.fb_held); ("owned", int r.frames.fb_owned);
              ("guaranteed", int r.guaranteed_total);
              ("books_balanced", bool r.frames.fb_balanced) ] ) ];
      [ ("usd_utilisation", num 4 r.usd_utilisation) ];
      [ ("revocations", int r.revocations) ];
      [ ("violations", int r.violations) ];
      [ ("ok", bool (ok r)) ] ]
