(* Micro-timings of layer public functions.

   Inside a workload a blocking call's wall time includes every other
   process's events, so the engine, scheduler, erasure-coding and fault
   layers are also timed here in isolation. Each timing runs [batches]
   batches of [n] operations and reports the median batch's cost per
   operation. *)

open Engine
open Core

let now_ns = Drive.now_ns
let batches = 7

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

(* [op i] performs operation [i]; the result is (ns/op, minor words/op),
   both medians over the batches. *)
let time n op =
  let ns = Array.make batches 0.0 and words = Array.make batches 0.0 in
  for b = 0 to batches - 1 do
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    for i = 1 to n do
      op i
    done;
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    ns.(b) <- float_of_int (t1 - t0) /. float_of_int n;
    words.(b) <- (w1 -. w0) /. float_of_int n
  done;
  (median ns, median words)

(* A push and a pop on a heap holding about 1 k entries — the pending
   event high-water the workloads reach. *)
let heap_push_pop () =
  let h = Heap.create () in
  for i = 1 to 1024 do
    Heap.push h ~key:(i * 7919 mod 100_003) ~sub:i ()
  done;
  fst
    (time 200_000 (fun i ->
         Heap.push h ~key:(i * 7919 mod 100_003) ~sub:i ();
         ignore (Heap.pop h)))

(* A chain of [Sim.after 0] wakes over a queue holding 1 k far-future
   events: one zero-delay event per operation. *)
let zero_delay_wake () =
  let sim = Sim.create () in
  for i = 1 to 1024 do
    ignore (Sim.at sim (Time.sec (1_000 + i)) ignore)
  done;
  let rec tick () = ignore (Sim.after sim 0 tick) in
  tick ();
  fst (time 200_000 (fun _ -> ignore (Sim.step sim)))

(* Two processes waking each other through [Proc.suspend]: one process
   resume per operation. *)
let proc_resume () =
  let sim = Sim.create () in
  let waiting = Array.make 2 None in
  let body me () =
    while true do
      (match waiting.(1 - me) with
      | Some wake ->
          waiting.(1 - me) <- None;
          wake ()
      | None -> ());
      Proc.suspend (fun wake -> waiting.(me) <- Some wake)
    done
  in
  ignore (Proc.spawn ~name:"ping" sim (body 0));
  ignore (Proc.spawn ~name:"pong" sim (body 1));
  fst (time 100_000 (fun _ -> ignore (Sim.step sim)))

(* [Edf.select ~only] over [n] clients with nine in ten rejected by the
   runnability predicate. The rejected ones hold the earlier deadlines,
   as blocked domains waiting on the disk do, so a pick must pass over
   all of them. *)
let edf_pick n =
  let edf = Sched.Edf.create () in
  let runnable_period = Time.ms 80 in
  for i = 0 to n - 1 do
    let period =
      if i mod 10 = 0 then runnable_period else Time.ms (10 * (1 + (i mod 7)))
    in
    match
      Sched.Edf.admit edf ~name:(string_of_int i) ~period
        ~slice:(max 1 (period / (2 * n))) ~now:Time.zero ()
    with
    | Ok _ -> ()
    | Error e -> failwith ("edf fixture: " ^ e)
  done;
  let only c = c.Sched.Edf.period = runnable_period in
  time (max 2_000 (400_000 / n)) (fun _ ->
      ignore (Sched.Edf.select ~only edf ~now:Time.zero))

let ec_page () = Bytes.init Hw.Addr.page_size (fun i -> Char.chr (i * 31 land 255))

let ec_encode () =
  let code = Tier.Ec.make ~k:4 ~m:2 in
  let page = ec_page () in
  fst (time 300 (fun _ -> ignore (Tier.Ec.encode code page)))

(* Decode with two data shards lost: the full reconstruction path. *)
let ec_decode () =
  let code = Tier.Ec.make ~k:4 ~m:2 in
  let shards = Tier.Ec.encode code (ec_page ()) in
  let survivors = List.init 4 (fun i -> (i + 2, shards.(i + 2))) in
  fst
    (time 300 (fun _ ->
         match Tier.Ec.decode code ~page_bytes:Hw.Addr.page_size survivors with
         | Ok _ -> ()
         | Error _ -> failwith "ec decode: unrecoverable"))

(* One page fault through kernel dispatch, activation, MMEntry and a
   one-frame pool driver, and the unmap that re-arms it. *)
let fault_round_trip () =
  let sys = System.create () in
  let d =
    match System.add_domain sys ~name:"micro" ~guarantee:4 ~optimistic:0 () with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let stretch =
    match System.alloc_stretch d ~bytes:Hw.Addr.page_size () with
    | Ok s -> s
    | Error e -> failwith e
  in
  let pool = ref [] in
  let driver =
    { Stretch_driver.name = "micro-pool";
      bind = (fun _ -> ());
      fast =
        (fun fault ->
          match !pool with
          | pfn :: rest ->
              pool := rest;
              Stretch_driver.map_page d.System.env fault.Fault.va ~pfn;
              Stretch_driver.Success
          | [] -> Stretch_driver.Failure "empty");
      full = (fun _ -> Stretch_driver.Failure "unused");
      relinquish = (fun ~want:_ -> 0);
      resident_pages = (fun () -> 0);
      free_frames = (fun () -> List.length !pool) }
  in
  Mm_entry.bind d.System.mm stretch driver;
  let sim = System.sim sys in
  let requests = Sync.Mailbox.create () in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"driver" (fun () ->
         (match Frames.alloc (System.frames sys) d.System.frames_client with
         | Some pfn -> pool := [ pfn ]
         | None -> failwith "no frame");
         while true do
           let reply = Sync.Mailbox.recv requests in
           Domains.access d.System.dom stretch.Stretch.base `Read;
           let pte =
             Stretch_driver.unmap_page d.System.env stretch.Stretch.base
           in
           pool := [ Hw.Pte.pfn pte ];
           Sync.Ivar.fill reply ()
         done));
  fst
    (time 2_000 (fun _ ->
         let reply = Sync.Ivar.create () in
         Sync.Mailbox.send requests reply;
         while Sync.Ivar.peek reply = None && Sim.step sim do
           ()
         done))

let edf_sizes = [ 8; 64; 256; 1024 ]

(* Every micro metric, named as the benchmark reports it. *)
let all () =
  let edf =
    List.concat_map
      (fun n ->
        let ns, words = edf_pick n in
        [ (Printf.sprintf "sched.pick_ns.n%d" n, ns, "ns");
          (Printf.sprintf "sched.pick_words.n%d" n, words, "words") ])
      edf_sizes
  in
  [ ("engine.heap_push_pop_ns", heap_push_pop (), "ns");
    ("engine.zero_delay_wake_ns", zero_delay_wake (), "ns");
    ("engine.proc_resume_ns", proc_resume (), "ns") ]
  @ edf
  @ [ ("core.fault_round_trip_ns", fault_round_trip (), "ns");
      ("tier.ec_encode_ns", ec_encode (), "ns");
      ("tier.ec_decode_ns", ec_decode (), "ns") ]
