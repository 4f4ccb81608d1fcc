(* Tests for the discrete-event simulation kernel. *)

open Engine

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Time --- *)

let time_units () =
  check "us" 1_000 (Time.us 1);
  check "ms" 1_000_000 (Time.ms 1);
  check "sec" 1_000_000_000 (Time.sec 1);
  check "of_us_float rounds" 1_500 (Time.of_us_float 1.5);
  Alcotest.(check (float 1e-9)) "to_ms" 1.5 (Time.to_ms (Time.of_ms_float 1.5));
  check "add" 15 (Time.add 5 10);
  check "diff" (-5) (Time.diff 5 10)

let time_pp () =
  let s v = Format.asprintf "%a" Time.pp v in
  Alcotest.(check string) "ns" "999ns" (s 999);
  Alcotest.(check string) "us" "1.000us" (s 1_000);
  Alcotest.(check string) "ms" "2.500ms" (s (Time.of_ms_float 2.5));
  Alcotest.(check string) "s" "3.000s" (s (Time.sec 3))

(* --- Heap --- *)

let heap_basic () =
  let h = Heap.create () in
  checkb "empty" true (Heap.is_empty h);
  Heap.push h ~key:5 ~sub:0 "five";
  Heap.push h ~key:1 ~sub:0 "one";
  Heap.push h ~key:3 ~sub:0 "three";
  (match Heap.pop h with
  | Some (1, 0, "one") -> ()
  | _ -> Alcotest.fail "expected (1, one)");
  check "min_key" 3 (Heap.min_key h);
  Alcotest.(check string) "take" "three" (Heap.take h);
  checkb "one left" false (Heap.is_empty h)

let heap_fifo_ties () =
  let h = Heap.create () in
  List.iteri (fun i v -> Heap.push h ~key:7 ~sub:i v) [ "a"; "b"; "c" ];
  let order =
    List.init 3 (fun _ ->
        match Heap.pop h with Some (_, _, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "tie order" [ "a"; "b"; "c" ] order

let heap_sorts =
  QCheck.Test.make ~name:"heap pops keys in sorted order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:k ~sub:i k) keys;
      let popped = ref [] in
      let rec drain () =
        match Heap.pop h with
        | Some (k, _, _) ->
          popped := k :: !popped;
          drain ()
        | None -> ()
      in
      drain ();
      List.rev !popped = List.sort compare keys)

(* --- Rng --- *)

let rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let rng_deterministic () =
  let a = Rng.create ~seed:99 and b = Rng.create ~seed:99 in
  for _ = 1 to 50 do
    check "same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done

(* --- Sim --- *)

let sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.at sim (Time.ms 5) (fun () -> log := 5 :: !log));
  ignore (Sim.at sim (Time.ms 1) (fun () -> log := 1 :: !log));
  ignore (Sim.at sim (Time.ms 3) (fun () -> log := 3 :: !log));
  Sim.run sim;
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !log);
  check "clock" (Time.ms 5) (Sim.now sim)

let sim_same_instant_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 4 do
    ignore (Sim.at sim (Time.ms 1) (fun () -> log := i :: !log))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo at same instant" [ 1; 2; 3; 4 ]
    (List.rev !log)

let sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.at sim (Time.ms 1) (fun () -> fired := true) in
  Sim.cancel h;
  check "pending after cancel" 0 (Sim.pending sim);
  Sim.run sim;
  checkb "cancelled did not fire" false !fired

(* Cancelling an event that has already fired changes nothing: the
   pending count dropped when it fired and must not drop again. *)
let sim_cancel_fired () =
  let sim = Sim.create () in
  let fired = Sim.after sim 0 ignore in
  ignore (Sim.at sim (Time.ms 5) ignore);
  checkb "first event ran" true (Sim.step sim);
  check "one pending after it fired" 1 (Sim.pending sim);
  Sim.cancel fired;
  check "cancelling the fired event leaves the count" 1 (Sim.pending sim);
  Sim.run sim;
  check "nothing pending once drained" 0 (Sim.pending sim)

let sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  ignore (Sim.at sim (Time.ms 1) (fun () -> incr fired));
  ignore (Sim.at sim (Time.ms 10) (fun () -> incr fired));
  Sim.run ~until:(Time.ms 5) sim;
  check "only first fired" 1 !fired;
  check "clock at limit" (Time.ms 5) (Sim.now sim);
  Sim.run sim;
  check "second fires on resume" 2 !fired

let sim_past_raises () =
  let sim = Sim.create () in
  ignore (Sim.at sim (Time.ms 2) (fun () -> ()));
  Sim.run sim;
  Alcotest.check_raises "past scheduling"
    (Invalid_argument "Sim.at: 1.000ms is in the past (now 2.000ms)")
    (fun () -> ignore (Sim.at sim (Time.ms 1) (fun () -> ())))

(* A cancelled event last in the queue is dropped without moving the
   clock: the clock only ever moves to an event that runs. *)
let sim_cancelled_tail () =
  let sim = Sim.create () in
  ignore (Sim.at sim (Time.ms 1) ignore);
  Sim.cancel (Sim.at sim (Time.sec 100) ignore);
  Sim.run sim;
  check "run leaves the clock at the last live event" (Time.ms 1) (Sim.now sim);
  Sim.cancel (Sim.at sim (Time.sec 200) ignore);
  checkb "step finds nothing" false (Sim.step sim);
  check "step leaves the clock" (Time.ms 1) (Sim.now sim);
  check "nothing pending" 0 (Sim.pending sim)

(* A same-instant wake costs its handle and nothing else: no heap
   round trip and no boxing, however many events the heap holds. The
   handle is a header and three fields; going through the heap would
   add a four-word entry. *)
let sim_zero_delay_allocation () =
  let words far =
    let sim = Sim.create () in
    for i = 1 to far do
      ignore (Sim.at sim (Time.sec (1_000 + i)) ignore)
    done;
    let rec tick () = ignore (Sim.after sim 0 tick) in
    tick ();
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Sim.step sim)
    done;
    int_of_float (Gc.minor_words () -. before) / 1000
  in
  let small = words 16 and large = words 1024 in
  check "same words per step with 16 and 1024 pending" small large;
  checkb "only the handle's 4 words per step" true (large <= 4)

(* --- Sim against a reference model --- *)

module type SIM = sig
  type t
  type handle

  val now : t -> Time.t
  val at : t -> Time.t -> (unit -> unit) -> handle
  val after : t -> Time.span -> (unit -> unit) -> handle
  val cancel : handle -> unit
  val step : t -> bool
  val run : ?until:Time.t -> t -> unit
  val pending : t -> int
end

(* The heap-only event queue that the ring-plus-heap [Sim] replaced:
   every event goes through the heap, keyed by (time, seq). Firing a
   handle marks it cancelled, so a later cancel leaves [pending]
   alone. *)
module Model = struct
  type handle = { mutable cancelled : bool; fn : unit -> unit; live : int ref }

  type t = {
    mutable clock : Time.t;
    queue : handle Heap.t;
    mutable seq : int;
    live : int ref;
  }

  let create () =
    { clock = Time.zero; queue = Heap.create (); seq = 0; live = ref 0 }
  let now t = t.clock

  let at t time fn =
    if time < t.clock then invalid_arg "Model.at: in the past";
    let h = { cancelled = false; fn; live = t.live } in
    Heap.push t.queue ~key:time ~sub:t.seq h;
    t.seq <- t.seq + 1;
    incr t.live;
    h

  let after t d fn = at t (Time.add t.clock d) fn

  let cancel h =
    if not h.cancelled then begin
      h.cancelled <- true;
      decr h.live
    end

  let rec step t =
    match Heap.pop t.queue with
    | None -> false
    | Some (time, _, h) ->
      if h.cancelled then step t
      else begin
        h.cancelled <- true;
        decr t.live;
        t.clock <- time;
        h.fn ();
        true
      end

  let run ?until t =
    let continue = ref true in
    while !continue do
      match Heap.pop t.queue with
      | None -> continue := false
      | Some (time, sub, h) ->
        let past_limit =
          match until with Some limit -> time > limit | None -> false
        in
        if past_limit then begin
          Heap.push t.queue ~key:time ~sub h;
          (match until with Some limit -> t.clock <- limit | None -> ());
          continue := false
        end
        else if not h.cancelled then begin
          h.cancelled <- true;
          decr t.live;
          t.clock <- time;
          h.fn ()
        end
    done;
    match until with
    | Some limit when t.clock < limit -> t.clock <- limit
    | _ -> ()

  let pending t = !(t.live)
end

(* A random schedule. [Schedule] adds an event that, when it fires,
   runs its body (more [Schedule]s and [Cancel]s); [Cancel n] cancels
   the [n]th event made so far, modulo their number, pending or fired
   alike. *)
type op =
  | Schedule of timing * op list
  | Cancel of int
  | Step
  | Run_until of Time.span (* from now; never earlier than now *)

and timing = At_now | At of Time.span | After_zero | After of Time.span

let rec show_op = function
  | Schedule (w, body) ->
    let w =
      match w with
      | At_now -> "at now"
      | At d -> Printf.sprintf "at now+%d" d
      | After_zero -> "after 0"
      | After d -> Printf.sprintf "after %d" d
    in
    Printf.sprintf "%s {%s}" w (String.concat "; " (List.map show_op body))
  | Cancel n -> Printf.sprintf "cancel #%d" n
  | Step -> "step"
  | Run_until d -> Printf.sprintf "run ~until:now+%d" d

(* The firing sequence, with the clock and the pending count at every
   event and after every top-level operation. *)
module Interp (S : SIM) = struct
  let run sim prog =
    let handles = Hashtbl.create 64 and made = ref 0 and log = ref [] in
    let observe what = log := (what, S.now sim, S.pending sim) :: !log in
    let rec exec = function
      | Schedule (w, body) ->
        let id = !made in
        incr made;
        let fn () =
          observe (Printf.sprintf "fire %d" id);
          List.iter exec body
        in
        let now = S.now sim in
        Hashtbl.replace handles id
          (match w with
          | At_now -> S.at sim now fn
          | At d -> S.at sim (now + d) fn
          | After_zero -> S.after sim 0 fn
          | After d -> S.after sim d fn)
      | Cancel n ->
        if !made > 0 then S.cancel (Hashtbl.find handles (n mod !made))
      | Step -> observe (Printf.sprintf "step %b" (S.step sim))
      | Run_until d ->
        S.run ~until:(S.now sim + d) sim;
        observe "run"
    in
    List.iter
      (fun op ->
        exec op;
        observe "op")
      prog;
    (* A cancelled far-future event as the last entry in the queue. *)
    exec (Schedule (At (Time.sec 100), []));
    exec (Cancel (!made - 1));
    S.run sim;
    observe "drained";
    List.rev !log
end

module Sim_run = Interp (Sim)
module Model_run = Interp (Model)

let gen_program =
  let open QCheck.Gen in
  let timing =
    frequency
      [ (3, return At_now);
        (3, return After_zero);
        (2, map (fun d -> At d) (int_range 1 8));
        (2, map (fun d -> After d) (int_range 1 8)) ]
  in
  let cancel = map (fun n -> Cancel n) (int_bound 1000) in
  let rec body depth =
    if depth = 0 then return []
    else
      list_size (int_bound 2)
        (frequency
           [ (3, map2 (fun w b -> Schedule (w, b)) timing (body (depth - 1)));
             (1, cancel) ])
  in
  list_size (int_range 1 40)
    (frequency
       [ (4, map2 (fun w b -> Schedule (w, b)) timing (body 2));
         (2, cancel);
         (3, return Step);
         (1, map (fun d -> Run_until d) (int_bound 10)) ])

let sim_matches_model =
  QCheck.Test.make ~name:"sim fires in the heap-only model's order" ~count:500
    (QCheck.make gen_program ~print:(fun p ->
         String.concat "\n" (List.map show_op p)))
    (fun prog ->
      Sim_run.run (Sim.create ()) prog = Model_run.run (Model.create ()) prog)

(* --- Proc --- *)

let proc_sleep () =
  let sim = Sim.create () in
  let woke = ref Time.zero in
  ignore
    (Proc.spawn sim (fun () ->
         Proc.sleep (Time.ms 7);
         woke := Sim.now sim));
  Sim.run sim;
  check "woke at 7ms" (Time.ms 7) !woke

let proc_join () =
  let sim = Sim.create () in
  let order = ref [] in
  let p =
    Proc.spawn sim (fun () ->
        Proc.sleep (Time.ms 3);
        order := "worker" :: !order)
  in
  ignore
    (Proc.spawn sim (fun () ->
         Proc.join p;
         order := "joiner" :: !order));
  Sim.run sim;
  Alcotest.(check (list string)) "join order" [ "worker"; "joiner" ]
    (List.rev !order)

let proc_kill_mid_sleep () =
  let sim = Sim.create () in
  let cleaned = ref false in
  let reached = ref false in
  let p =
    Proc.spawn sim (fun () ->
        (try Proc.sleep (Time.sec 100)
         with Proc.Killed as e ->
           cleaned := true;
           raise e);
        reached := true)
  in
  ignore (Sim.after sim (Time.ms 1) (fun () -> Proc.kill p));
  Sim.run sim;
  checkb "cleanup ran" true !cleaned;
  checkb "body did not continue" false !reached;
  checkb "dead" false (Proc.is_alive p);
  (* The 100 s timer must have been cancelled. *)
  check "clock stopped early" (Time.ms 1) (Sim.now sim)

let proc_on_terminate () =
  let sim = Sim.create () in
  let hooks = ref 0 in
  let p = Proc.spawn sim (fun () -> Proc.sleep (Time.ms 1)) in
  Proc.on_terminate p (fun () -> incr hooks);
  Sim.run sim;
  check "hook ran" 1 !hooks;
  Proc.on_terminate p (fun () -> incr hooks);
  check "late hook runs at once" 2 !hooks

let proc_kill_before_start () =
  let sim = Sim.create () in
  let ran = ref false in
  let p = Proc.spawn sim (fun () -> ran := true) in
  Proc.kill p;
  Sim.run sim;
  checkb "body never ran" false !ran;
  checkb "dead" false (Proc.is_alive p)

(* --- Sync --- *)

let ivar_basics () =
  let sim = Sim.create () in
  let iv = Sync.Ivar.create () in
  let got = ref 0 in
  ignore (Proc.spawn sim (fun () -> got := Sync.Ivar.read iv));
  ignore (Sim.after sim (Time.ms 2) (fun () -> Sync.Ivar.fill iv 42));
  Sim.run sim;
  check "read value" 42 !got;
  checkb "try_fill refused" false (Sync.Ivar.try_fill iv 1);
  Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already filled")
    (fun () -> Sync.Ivar.fill iv 1)

let ivar_timeout () =
  let sim = Sim.create () in
  let first = ref None and second = ref None in
  let iv = Sync.Ivar.create () in
  ignore
    (Proc.spawn sim (fun () -> first := Some (Sync.Ivar.read_timeout iv (Time.ms 5))));
  ignore
    (Proc.spawn sim (fun () ->
         second := Some (Sync.Ivar.read_timeout iv (Time.ms 20))));
  ignore (Sim.after sim (Time.ms 10) (fun () -> Sync.Ivar.fill iv 7));
  Sim.run sim;
  Alcotest.(check (option (option int))) "timed out" (Some None) !first;
  Alcotest.(check (option (option int))) "delivered" (Some (Some 7)) !second

let mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Sync.Mailbox.create () in
  let got = ref [] in
  ignore
    (Proc.spawn sim (fun () ->
         for _ = 1 to 3 do
           got := Sync.Mailbox.recv mb :: !got
         done));
  ignore
    (Sim.after sim (Time.ms 1) (fun () ->
         List.iter (Sync.Mailbox.send mb) [ 1; 2; 3 ]));
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let semaphore_mutex () =
  let sim = Sim.create () in
  let sem = Sync.Semaphore.create 1 in
  let inside = ref 0 and max_inside = ref 0 in
  let worker () =
    Sync.Semaphore.acquire sem;
    incr inside;
    if !inside > !max_inside then max_inside := !inside;
    Proc.sleep (Time.ms 2);
    decr inside;
    Sync.Semaphore.release sem
  in
  for _ = 1 to 5 do
    ignore (Proc.spawn sim worker)
  done;
  Sim.run sim;
  check "mutual exclusion" 1 !max_inside;
  check "all done" 0 !inside

let waitq_timeout () =
  let sim = Sim.create () in
  let q = Sync.Waitq.create () in
  let r1 = ref None and r2 = ref None in
  ignore (Proc.spawn sim (fun () -> r1 := Some (Sync.Waitq.wait_timeout q (Time.ms 5))));
  ignore (Proc.spawn sim (fun () -> r2 := Some (Sync.Waitq.wait_timeout q (Time.ms 50))));
  ignore (Sim.after sim (Time.ms 10) (fun () -> Sync.Waitq.broadcast q));
  Sim.run sim;
  Alcotest.(check (option bool)) "timed out" (Some false) !r1;
  Alcotest.(check (option bool)) "signalled" (Some true) !r2

(* --- Stats --- *)

let stats_moments () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 0.0)) "max" 9.0 (Stats.max_value s)

let stats_percentile () =
  let s = Stats.create ~keep_samples:true () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  Alcotest.(check (float 0.5)) "p50" 50.5 (Stats.percentile s 50.0);
  Alcotest.(check (float 0.5)) "p95" 95.0 (Stats.percentile s 95.0);
  Alcotest.(check (float 0.0)) "p100" 100.0 (Stats.percentile s 100.0)

let stats_percentile_edges () =
  let s = Stats.create ~keep_samples:true () in
  List.iter (Stats.add s) [ 7.0; 3.0; 5.0 ];
  Alcotest.(check (float 0.0)) "p0 is min" 3.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 0.0)) "p100 is max" 7.0 (Stats.percentile s 100.0);
  let one = Stats.create ~keep_samples:true () in
  Stats.add one 42.0;
  Alcotest.(check (float 0.0)) "single sample p0" 42.0 (Stats.percentile one 0.0);
  Alcotest.(check (float 0.0)) "single sample p50" 42.0
    (Stats.percentile one 50.0);
  Alcotest.(check (float 0.0)) "single sample p100" 42.0
    (Stats.percentile one 100.0);
  let empty = Stats.create ~keep_samples:true () in
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Stats.percentile empty 50.0));
  let raises p =
    match Stats.percentile s p with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "p < 0 rejected" true (raises (-1.0));
  Alcotest.(check bool) "p > 100 rejected" true (raises 100.5);
  Alcotest.(check bool) "nan p rejected" true (raises Float.nan)

let stats_mean_matches_oracle =
  QCheck.Test.make ~name:"stats mean matches naive computation" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean s -. naive) < 1e-6)

let series_mean_after () =
  let s = Stats.Series.create () in
  Stats.Series.add s (Time.sec 1) 10.0;
  Stats.Series.add s (Time.sec 2) 20.0;
  Stats.Series.add s (Time.sec 3) 30.0;
  Alcotest.(check (float 1e-9)) "all" 20.0 (Stats.Series.mean_after s Time.zero);
  Alcotest.(check (float 1e-9)) "tail" 25.0
    (Stats.Series.mean_after s (Time.sec 2))

(* --- Trace / Dynarray --- *)

let trace_between () =
  let t = Trace.create () in
  List.iter (fun (ts, v) -> Trace.record t ts v)
    [ (1, "a"); (5, "b"); (9, "c") ];
  Alcotest.(check (list (pair int string))) "window" [ (5, "b") ]
    (Trace.between t 2 9)

let dynarray_growth () =
  let d = Dynarray.create () in
  for i = 0 to 99 do
    Dynarray.add_last d i
  done;
  check "length" 100 (Dynarray.length d);
  check "get" 42 (Dynarray.get d 42);
  Alcotest.check_raises "oob" (Invalid_argument "Dynarray: index out of bounds")
    (fun () -> ignore (Dynarray.get d 100));
  check "fold" (99 * 100 / 2)
    (Dynarray.fold_left ( + ) 0 d)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [ ( "engine.time",
      [ Alcotest.test_case "units" `Quick time_units;
        Alcotest.test_case "pretty-printing" `Quick time_pp ] );
    ( "engine.heap",
      [ Alcotest.test_case "push/pop/peek" `Quick heap_basic;
        Alcotest.test_case "ties are FIFO" `Quick heap_fifo_ties;
        qtest heap_sorts ] );
    ( "engine.rng",
      [ qtest rng_bounds;
        Alcotest.test_case "deterministic streams" `Quick rng_deterministic ] );
    ( "engine.sim",
      [ Alcotest.test_case "time ordering" `Quick sim_ordering;
        Alcotest.test_case "same-instant FIFO" `Quick sim_same_instant_fifo;
        Alcotest.test_case "cancellation" `Quick sim_cancel;
        Alcotest.test_case "cancelling a fired event" `Quick sim_cancel_fired;
        Alcotest.test_case "run ~until" `Quick sim_until;
        Alcotest.test_case "scheduling in the past" `Quick sim_past_raises;
        Alcotest.test_case "cancelled tail leaves the clock" `Quick
          sim_cancelled_tail;
        Alcotest.test_case "zero-delay wake allocates only its handle" `Quick
          sim_zero_delay_allocation;
        qtest sim_matches_model ] );
    ( "engine.proc",
      [ Alcotest.test_case "sleep advances time" `Quick proc_sleep;
        Alcotest.test_case "join" `Quick proc_join;
        Alcotest.test_case "kill mid-sleep" `Quick proc_kill_mid_sleep;
        Alcotest.test_case "on_terminate" `Quick proc_on_terminate;
        Alcotest.test_case "kill before start" `Quick proc_kill_before_start ] );
    ( "engine.sync",
      [ Alcotest.test_case "ivar" `Quick ivar_basics;
        Alcotest.test_case "ivar timeout" `Quick ivar_timeout;
        Alcotest.test_case "mailbox fifo" `Quick mailbox_fifo;
        Alcotest.test_case "semaphore as mutex" `Quick semaphore_mutex;
        Alcotest.test_case "waitq timeout" `Quick waitq_timeout ] );
    ( "engine.stats",
      [ Alcotest.test_case "moments" `Quick stats_moments;
        Alcotest.test_case "percentiles" `Quick stats_percentile;
        Alcotest.test_case "percentile edge cases" `Quick stats_percentile_edges;
        qtest stats_mean_matches_oracle;
        Alcotest.test_case "series mean_after" `Quick series_mean_after ] );
    ( "engine.trace",
      [ Alcotest.test_case "between" `Quick trace_between;
        Alcotest.test_case "dynarray" `Quick dynarray_growth ] ) ]
