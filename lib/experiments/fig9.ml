open Engine
open Core
open Workload

type result = {
  alone_mbit : float;
  contended_mbit : float;
  alone_series : (Time.t * float) list;
  contended_series : (Time.t * float) list;
  pager10_mbit : float;
  pager20_mbit : float;
  isolation_error : float;
  alone_audit : Obs.Qos_audit.summary option;
  contended_audit : Obs.Qos_audit.summary option;
}

let fs_qos () = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) ()

let run_one ~duration ~fs_depth ~with_pagers =
  if !Obs.enabled then Obs.reset ();
  let sys = Harness.fresh_system () in
  let fs =
    Fs_client.start sys ~name:"fs" ~qos:(fs_qos ()) ~depth:fs_depth ()
    |> Harness.expect ~experiment:"fig9" (( ^ ) "fs client: ")
  in
  let pagers =
    if with_pagers then
      List.map
        (fun slice_ms ->
          let name = Printf.sprintf "pager%d" (slice_ms * 100 / 250) in
          let qos =
            Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms slice_ms) ()
          in
          Paging_app.start sys ~name ~mode:Paging_app.Paging_in ~qos ()
          |> Harness.expect ~experiment:"fig9" (fun e -> name ^ ": " ^ e))
        [ 25; 50 ]
    else []
  in
  System.run sys ~until:duration;
  let sustained =
    Sampler.sustained (Fs_client.sampler fs) ~after:(Time.sec 10) ()
  in
  let series = Stats.Series.to_list (Sampler.series (Fs_client.sampler fs)) in
  (* The pagers generate contention from the moment they start; report
     their gross paging rate whether or not they are past warm-up. *)
  let pager_rates =
    List.map
      (fun a ->
        float_of_int (Paging_app.bytes_processed a)
        *. 8.0 /. Time.to_sec duration /. 1e6)
      pagers
  in
  let audit =
    if !Obs.enabled then Some (Obs.Qos_audit.summarize ()) else None
  in
  (sustained, series, pager_rates, audit)

let run ?(duration = Time.sec 120) ?(fs_depth = 16) () =
  let alone_mbit, alone_series, _, alone_audit =
    run_one ~duration ~fs_depth ~with_pagers:false
  in
  let contended_mbit, contended_series, pager_rates, contended_audit =
    run_one ~duration ~fs_depth ~with_pagers:true
  in
  let pager10_mbit, pager20_mbit =
    match pager_rates with
    | [ a; b ] -> (a, b)
    | _ -> (nan, nan)
  in
  { alone_mbit; contended_mbit; alone_series; contended_series;
    pager10_mbit; pager20_mbit;
    isolation_error = Float.abs (contended_mbit -. alone_mbit) /. alone_mbit;
    alone_audit; contended_audit }

let print_series r =
  Report.heading "Figure 9: file-system client bandwidth vs time";
  Report.chart ~unit_label:"seconds"
    [ ( "fs alone",
        List.map (fun (t, v) -> (Engine.Time.to_sec t, v)) r.alone_series );
      ( "fs + pagers",
        List.map (fun (t, v) -> (Engine.Time.to_sec t, v)) r.contended_series )
    ]

let print r =
  Report.heading "File-System Isolation (Figure 9)";
  Report.table
    ~header:[ "run"; "fs Mbit/s"; "pager10 Mbit/s"; "pager20 Mbit/s" ]
    [ [ "fs alone"; Report.f2 r.alone_mbit; "-"; "-" ];
      [ "fs + 2 pagers"; Report.f2 r.contended_mbit;
        Report.f2 r.pager10_mbit; Report.f2 r.pager20_mbit ] ];
  Printf.printf "\nisolation error: %.2f%% (paper: \"almost exactly the \
                 same\")\n"
    (r.isolation_error *. 100.0);
  Report.audit_section "fs alone: QoS audit" r.alone_audit;
  Report.audit_section "fs + 2 pagers: QoS audit" r.contended_audit
