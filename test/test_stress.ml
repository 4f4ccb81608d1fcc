(* Stress and model-based property tests across the stack. *)

open Engine
open Hw
open Core

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

(* --- Simulator: random event schedules fire in global time order --- *)

let sim_event_order =
  QCheck.Test.make ~name:"events fire in nondecreasing time order" ~count:100
    QCheck.(list (int_range 0 10_000))
    (fun delays ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iter
        (fun d -> ignore (Sim.at sim d (fun () -> fired := Sim.now sim :: !fired)))
        delays;
      Sim.run sim;
      let times = List.rev !fired in
      List.length times = List.length delays
      && List.sort compare times = times
      && List.sort compare times = List.sort compare delays)

(* --- Processes: nested sleeps accumulate exactly --- *)

let proc_sleep_accumulation =
  QCheck.Test.make ~name:"sequential sleeps accumulate exactly" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 10) (int_range 0 1_000_000))
    (fun sleeps ->
      let sim = Sim.create () in
      let woke = ref (-1) in
      ignore
        (Proc.spawn sim (fun () ->
             List.iter Proc.sleep sleeps;
             woke := Sim.now sim));
      Sim.run sim;
      !woke = List.fold_left ( + ) 0 sleeps)

let proc_many_concurrent () =
  let sim = Sim.create () in
  let n = 500 in
  let done_count = ref 0 in
  for i = 1 to n do
    ignore
      (Proc.spawn sim (fun () ->
           Proc.sleep (Time.us i);
           Proc.sleep (Time.us (n - i));
           incr done_count))
  done;
  Sim.run sim;
  check "all procs completed" n !done_count;
  (* Everyone slept i + (n - i) = n microseconds. *)
  check "clock" (Time.us n) (Sim.now sim)

(* --- Frames allocator: model-based random operations --- *)

let frames_model =
  (* Operations: 0 = alloc for client A, 1 = alloc for B, 2 = free one
     of A's frames, 3 = free one of B's. Invariants checked after every
     step against a simple model. *)
  QCheck.Test.make ~name:"frames allocator matches a counting model"
    ~count:100
    QCheck.(list (int_range 0 3))
    (fun ops ->
      let sim = Sim.create () in
      let ramtab = Ramtab.create ~nframes:24 in
      let fr = Frames.create sim ramtab ~nframes:24 in
      let a =
        match Frames.admit fr ~domain:1 ~guarantee:6 ~optimistic:6 with
        | Ok c -> c
        | Error e -> failwith (Frames.error_message e)
      in
      let b =
        match Frames.admit fr ~domain:2 ~guarantee:6 ~optimistic:6 with
        | Ok c -> c
        | Error e -> failwith (Frames.error_message e)
      in
      let held = [| []; [] |] in
      let ok = ref true in
      let result = ref true in
      ignore
        (Proc.spawn sim (fun () ->
             List.iter
               (fun op ->
                 let idx = op land 1 in
                 let client = if idx = 0 then a else b in
                 (match op with
                 | 0 | 1 ->
                   (match Frames.alloc fr client with
                   | Some pfn -> held.(idx) <- pfn :: held.(idx)
                   | None ->
                     (* Refusal is only legal at the g+o cap or when
                        memory is full beyond the guarantee. *)
                     if
                       List.length held.(idx) < 6
                       || List.length held.(idx) < 12
                          && Frames.free_frames fr > 0
                     then ok := false)
                 | _ ->
                   (match held.(idx) with
                   | pfn :: rest ->
                     Frames.free fr client pfn;
                     held.(idx) <- rest
                   | [] -> ()));
                 (* Model invariants. *)
                 if
                   Frames.held a <> List.length held.(0)
                   || Frames.held b <> List.length held.(1)
                   || Frames.free_frames fr
                      <> 24 - List.length held.(0) - List.length held.(1)
                 then ok := false)
               ops;
             result := !ok));
      Sim.run sim;
      !result)

(* --- CPU scheduler: conservation and bounds --- *)

let cpu_time_conserved () =
  let sim = Sim.create () in
  let cpu = Sched.Cpu.create sim in
  let clients =
    List.map
      (fun (name, slice) ->
        match
          Sched.Cpu.admit cpu ~name ~period:(Time.ms 10) ~slice ~extra:false ()
        with
        | Ok c -> c
        | Error e -> failwith e)
      [ ("a", Time.ms 3); ("b", Time.ms 2); ("c", Time.ms 1) ]
  in
  List.iter
    (fun c ->
      ignore
        (Proc.spawn sim (fun () ->
             let rec loop () =
               (match Sched.Cpu.consume cpu c (Time.us 700) with
               | Ok () -> ()
               | Error `Removed -> failwith "client removed");
               loop ()
             in
             loop ())))
    clients;
  Sim.run ~until:(Time.sec 1) sim;
  let used = List.map (fun c -> Time.to_ms (Sched.Cpu.used c)) clients in
  (* No client exceeds its contract by more than one request quantum
     per period, and the CPU is never over-committed in total. *)
  List.iter2
    (fun u bound -> checkb "within contract" true (u <= bound +. 80.0))
    used [ 300.0; 200.0; 100.0 ];
  checkb "total below elapsed" true (List.fold_left ( +. ) 0.0 used <= 1000.0)

(* --- USD: per-period charge never exceeds slice + one overrun --- *)

let usd_period_charge_bounded () =
  let sim = Sim.create () in
  let dm = Disk.Disk_model.create () in
  let u = Usbs.Usd.create sim dm in
  let q = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 50) () in
  let c =
    match Usbs.Usd.admit u ~name:"w" ~qos:q () with
    | Ok c -> c
    | Error e -> failwith e
  in
  ignore
    (Proc.spawn sim (fun () ->
         let rec loop i =
           Usbs.Usd.transact_exn u c Usbs.Usd.Write ~lba:(i * 16 mod 500_000)
             ~nblocks:16;
           loop (i + 1)
         in
         loop 0));
  Sim.run ~until:(Time.sec 10) sim;
  (* Partition the trace at allocation boundaries and add up charges. *)
  let period_charges = ref [] and current = ref 0 in
  Trace.iter
    (fun _ ev ->
      match ev with
      | Usbs.Usd.Alloc _ ->
        period_charges := !current :: !period_charges;
        current := 0
      | Usbs.Usd.Txn { dur; _ } -> current := !current + dur
      | Usbs.Usd.Lax { dur; _ } -> current := !current + dur
      | Usbs.Usd.Txn_error { dur; _ } -> current := !current + dur
      | Usbs.Usd.Slack _ -> ())
    (Usbs.Usd.trace u);
  (* A client may finish one transaction that started with little time
     left, so the per-period bound is slice + one max transaction. *)
  let bound = Time.ms 50 + Time.ms 25 in
  List.iter
    (fun charge -> checkb "period charge bounded" true (charge <= bound))
    !period_charges;
  checkb "several periods observed" true (List.length !period_charges > 30)

(* --- Domains: concurrent faults on the same and different pages --- *)

let concurrent_faulting_threads () =
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let d =
    match System.add_domain sys ~name:"app" ~guarantee:4 ~optimistic:0 () with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let s =
    match System.alloc_stretch d ~bytes:(16 * Addr.page_size) () with
    | Ok s -> s
    | Error e -> failwith e
  in
  let bound = Sync.Ivar.create () in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"binder" (fun () ->
         let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
         (match
            System.bind_paged d ~initial_frames:4
              ~swap_bytes:(32 * Addr.page_size) ~qos s ()
          with
         | Ok _ -> ()
         | Error e -> failwith (System.error_message e));
         Sync.Ivar.fill bound ()));
  let finished = ref 0 in
  for t = 0 to 3 do
    ignore
      (Domains.spawn_thread d.System.dom
         ~name:(Printf.sprintf "worker%d" t)
         (fun () ->
           Sync.Ivar.read bound;
           let rng = Rng.create ~seed:t in
           for _ = 1 to 50 do
             let page = Rng.int rng 16 in
             Domains.access d.System.dom (Stretch.page_base s page)
               (if Rng.int rng 2 = 1 then `Read else `Write)
           done;
           incr finished))
  done;
  System.run sys ~until:(Time.sec 120);
  check "all faulting threads finished" 4 !finished

(* --- Paged driver under a random access pattern --- *)

let paged_random_access () =
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let d =
    match System.add_domain sys ~name:"app" ~guarantee:3 ~optimistic:0 () with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let npages = 32 in
  let s =
    match System.alloc_stretch d ~bytes:(npages * Addr.page_size) () with
    | Ok s -> s
    | Error e -> failwith e
  in
  let result = ref None in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"main" (fun () ->
         let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
         let driver, h =
           match
             System.bind_paged d ~initial_frames:3
               ~swap_bytes:(2 * npages * Addr.page_size) ~qos s ()
           with
           | Ok x -> x
           | Error e -> failwith (System.error_message e)
         in
         let rng = Rng.create ~seed:99 in
         for _ = 1 to 300 do
           let page = Rng.int rng npages in
           Domains.access d.System.dom (Stretch.page_base s page)
             (if Rng.int rng 2 = 1 then `Read else `Write)
         done;
         result := Some (driver.Stretch_driver.resident_pages (), Sd_paged.info h)));
  System.run sys ~until:(Time.sec 300);
  match !result with
  | None -> Alcotest.fail "random-access workload did not finish"
  | Some (resident, info) ->
    checkb "residency bounded by frames" true (resident <= 3);
    checkb "paging happened" true (info.Sd_paged.page_ins > 50);
    checkb "zeros bounded by pages" true (info.Sd_paged.demand_zeros <= npages)

let suite =
  [ ( "stress.sim",
      [ qtest sim_event_order;
        qtest proc_sleep_accumulation;
        Alcotest.test_case "500 concurrent processes" `Quick
          proc_many_concurrent ] );
    ( "stress.frames", [ qtest frames_model ] );
    ( "stress.sched",
      [ Alcotest.test_case "cpu time conserved" `Quick cpu_time_conserved ] );
    ( "stress.usd",
      [ Alcotest.test_case "per-period charge bounded" `Slow
          usd_period_charge_bounded ] );
    ( "stress.domains",
      [ Alcotest.test_case "concurrent faulting threads" `Quick
          concurrent_faulting_threads;
        Alcotest.test_case "paged driver, random access" `Quick
          paged_random_access ] ) ]
