(* Tests for the domain-level runtime facilities: the user-level thread
   scheduler and typed IDC. *)

open Engine
open Core

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let mk_domain sys name =
  match System.add_domain sys ~name ~guarantee:2 ~optimistic:0 () with
  | Ok d -> d
  | Error e -> failwith (System.error_message e)

(* --- Ults --- *)

let ults_fork_join_yield () =
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let d = mk_domain sys "app" in
  let ults = Ults.create d.System.dom in
  let log = ref [] in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"main" (fun () ->
         let t1 =
           Ults.fork ults ~name:"one" (fun () ->
               log := "one-a" :: !log;
               Ults.yield ults;
               log := "one-b" :: !log)
         in
         let t2 =
           Ults.fork ults ~name:"two" (fun () ->
               log := "two-a" :: !log;
               Ults.yield ults;
               log := "two-b" :: !log)
         in
         Ults.join ults t1;
         Ults.join ults t2;
         log := "joined" :: !log));
  System.run sys ~until:(Time.sec 2);
  (* Yields interleave the two threads. *)
  Alcotest.(check (list string))
    "interleaving" [ "one-a"; "two-a"; "one-b"; "two-b"; "joined" ]
    (List.rev !log);
  check "registry drained" 0 (Ults.threads ults)

let ults_block_unblock () =
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let d = mk_domain sys "app" in
  let ults = Ults.create d.System.dom in
  let woke_at = ref Time.zero in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"main" (fun () ->
         let sleeper =
           Ults.fork ults ~name:"sleeper" (fun () ->
               Ults.block ults;
               woke_at := Sim.now (Domains.sim d.System.dom))
         in
         Proc.sleep (Time.ms 5);
         Ults.unblock ults sleeper;
         Ults.join ults sleeper));
  System.run sys ~until:(Time.sec 2);
  checkb "woke after the unblock" true (!woke_at >= Time.ms 5)

let ults_unblock_before_block () =
  (* The pending-wake protocol: an unblock delivered before the block
     must not be lost. *)
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let d = mk_domain sys "app" in
  let ults = Ults.create d.System.dom in
  let finished = ref false in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"main" (fun () ->
         let th =
           Ults.fork ults ~name:"late-blocker" (fun () ->
               Proc.sleep (Time.ms 10);
               Ults.block ults;
               (* must return immediately thanks to the pending wake *)
               finished := true)
         in
         Proc.sleep (Time.ms 1);
         Ults.unblock ults th;
         Ults.join ults th));
  System.run sys ~until:(Time.sec 2);
  checkb "wake survived the race" true !finished

let ults_charges_cpu () =
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let d = mk_domain sys "app" in
  let ults = Ults.create d.System.dom in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"main" (fun () ->
         for _ = 1 to 100 do
           Ults.yield ults
         done));
  System.run sys ~until:(Time.sec 2);
  (* 100 scheduling decisions at 1 us each. *)
  checkb "cpu charged for scheduling" true
    (Domains.cpu_used d.System.dom >= Time.us 100)

(* --- Idc --- *)

let idc_roundtrip () =
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let server = mk_domain sys "server" in
  let client = mk_domain sys "client" in
  let svc = Idc.offer server.System.dom ~name:"double" (fun x -> 2 * x) in
  let got = ref 0 in
  ignore
    (Domains.spawn_thread client.System.dom ~name:"caller" (fun () ->
         got := Idc.call client.System.dom svc 21));
  System.run sys ~until:(Time.sec 2);
  check "reply" 42 !got;
  check "served" 1 (Idc.calls_served svc);
  (* The caller paid the IDC round trip; the server paid for running
     the handler (worker wake-up). *)
  checkb "caller charged" true
    (Domains.cpu_used client.System.dom
     >= (Domains.cost client.System.dom).Hw.Cost.idc_call);
  checkb "server charged" true (Domains.cpu_used server.System.dom > 0)

let idc_serialises_on_one_worker () =
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let server = mk_domain sys "server" in
  let client = mk_domain sys "client" in
  let inside = ref 0 and overlap = ref false in
  let svc =
    Idc.offer server.System.dom ~name:"slow" (fun () ->
        incr inside;
        if !inside > 1 then overlap := true;
        Proc.sleep (Time.ms 3);
        decr inside)
  in
  for i = 1 to 3 do
    ignore
      (Domains.spawn_thread client.System.dom
         ~name:(Printf.sprintf "c%d" i)
         (fun () -> Idc.call client.System.dom svc ()))
  done;
  System.run sys ~until:(Time.sec 2);
  check "all served" 3 (Idc.calls_served svc);
  checkb "single worker serialises" false !overlap

let idc_forbidden_in_handler () =
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let server = mk_domain sys "server" in
  let client = mk_domain sys "client" in
  let svc = Idc.offer server.System.dom ~name:"echo" (fun x -> x) in
  let rejected = ref false in
  (* Attempt the call from inside a notification handler. *)
  Domains.queue_notification client.System.dom (fun () ->
      try ignore (Idc.call client.System.dom svc 1)
      with Failure _ -> rejected := true);
  System.run sys ~until:(Time.sec 2);
  checkb "IDC rejected in activation handler" true !rejected

let idc_dead_server () =
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let server = mk_domain sys "server" in
  let client = mk_domain sys "client" in
  let svc = Idc.offer server.System.dom ~name:"gone" (fun x -> x) in
  System.kill_domain sys server;
  let failed = ref false in
  ignore
    (Domains.spawn_thread client.System.dom ~name:"caller" (fun () ->
         try ignore (Idc.call client.System.dom svc 1)
         with Failure _ -> failed := true));
  System.run sys ~until:(Time.sec 2);
  checkb "call to dead server fails cleanly" true !failed

let suite =
  [ ( "runtime.ults",
      [ Alcotest.test_case "fork/yield/join" `Quick ults_fork_join_yield;
        Alcotest.test_case "block/unblock" `Quick ults_block_unblock;
        Alcotest.test_case "unblock-before-block race" `Quick
          ults_unblock_before_block;
        Alcotest.test_case "scheduling costs CPU" `Quick ults_charges_cpu ] );
    ( "runtime.idc",
      [ Alcotest.test_case "typed round trip" `Quick idc_roundtrip;
        Alcotest.test_case "single worker serialises" `Quick
          idc_serialises_on_one_worker;
        Alcotest.test_case "forbidden in activation handler" `Quick
          idc_forbidden_in_handler;
        Alcotest.test_case "dead server" `Quick idc_dead_server ] ) ]
