(* Tests for the many-domain scale-out work: the rebuilt O(1)/O(log n)
   hot-path structures checked op-for-op against their seed-shape
   reference models, the typed errors across the public API, and the
   scale experiment's determinism. *)

open Engine
open Core

let qtest = QCheck_alcotest.to_alcotest
let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Frame stack vs the seed's list model -------------------------- *)

(* The seed kept each frame stack as a bare [int list] (top first).
   The intrusive rebuild must match it op-for-op, including the full
   resulting order after every operation. *)

type fs_op =
  | Fpush of int
  | Fremove of int
  | Ftop of int
  | Fbottom of int
  | Ftop_k of int

let fs_op_gen =
  QCheck.Gen.(
    oneof
      [ map (fun p -> Fpush p) (int_range 0 15);
        map (fun p -> Fremove p) (int_range 0 15);
        map (fun p -> Ftop p) (int_range 0 15);
        map (fun p -> Fbottom p) (int_range 0 15);
        map (fun k -> Ftop_k k) (int_range 0 8) ])

let fs_op_print = function
  | Fpush p -> Printf.sprintf "push %d" p
  | Fremove p -> Printf.sprintf "remove %d" p
  | Ftop p -> Printf.sprintf "top %d" p
  | Fbottom p -> Printf.sprintf "bottom %d" p
  | Ftop_k k -> Printf.sprintf "top_k %d" k

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

let fs_apply fs model op =
  match op with
  | Fpush p ->
    if List.mem p !model then (
      match Frame_stack.push fs p with
      | () -> failwith "push of a present frame did not raise"
      | exception Invalid_argument _ -> ())
    else begin
      Frame_stack.push fs p;
      model := p :: !model
    end
  | Fremove p ->
    let expected = List.mem p !model in
    if Frame_stack.remove fs p <> expected then
      failwith "remove return value disagrees with the model";
    model := List.filter (fun q -> q <> p) !model
  | Ftop p ->
    if List.mem p !model then begin
      Frame_stack.move_to_top fs p;
      model := p :: List.filter (fun q -> q <> p) !model
    end
    else (
      match Frame_stack.move_to_top fs p with
      | () -> failwith "move_to_top of an absent frame did not raise"
      | exception Not_found -> ())
  | Fbottom p ->
    if List.mem p !model then begin
      Frame_stack.move_to_bottom fs p;
      model := List.filter (fun q -> q <> p) !model @ [ p ]
    end
    else (
      match Frame_stack.move_to_bottom fs p with
      | () -> failwith "move_to_bottom of an absent frame did not raise"
      | exception Not_found -> ())
  | Ftop_k k ->
    if Frame_stack.top_k fs k <> take k !model then
      failwith "top_k disagrees with the model"

let frame_stack_matches_model =
  QCheck.Test.make ~name:"frame stack matches the seed list model op-for-op"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map fs_op_print ops))
       QCheck.Gen.(list_size (int_range 1 60) fs_op_gen))
    (fun ops ->
      let fs = Frame_stack.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          fs_apply fs model op;
          Frame_stack.to_list fs = !model
          && Frame_stack.size fs = List.length !model)
        ops)

let frame_stack_unit () =
  let fs = Frame_stack.create () in
  Frame_stack.push fs 3;
  Frame_stack.push fs 7;
  Alcotest.check_raises "duplicate push"
    (Invalid_argument "Frame_stack.push: frame already present") (fun () ->
      Frame_stack.push fs 3);
  checkb "absent remove" false (Frame_stack.remove fs 99);
  Alcotest.check_raises "absent move" Not_found (fun () ->
      Frame_stack.move_to_top fs 99);
  Alcotest.(check (list int)) "order" [ 7; 3 ] (Frame_stack.to_list fs);
  Frame_stack.move_to_bottom fs 7;
  Alcotest.(check (list int)) "demoted" [ 3; 7 ] (Frame_stack.to_list fs);
  Alcotest.(check (list int)) "top_k over-ask" [ 3; 7 ]
    (Frame_stack.top_k fs 5)

(* --- Sorted-table EDF vs the seed's fold model ---------------------- *)

(* The seed picked the next client by folding over the member list in
   admission order, keeping the earliest deadline with budget (first
   admitted wins ties), and replenished by scanning every member. The
   sorted id table must select the same client after any sequence of
   admissions, charges, removals and clock advances — with and without
   a runnability filter, for budget and for slack picks — report the
   same next deadline, and fire the boundary hook for the same clients
   in (deadline, admission) order. *)

type m_client = {
  m_name : string;
  m_period : int;
  m_slice : int;
  m_extra : bool;
  mutable m_deadline : int;
  mutable m_remaining : int;
}

type edf_op =
  | Eadmit of int * int * bool  (** (period choice, slice choice, extra) *)
  | Eadvance of int  (** ms *)
  | Echarge of int * int  (** (client pick, span us) *)
  | Eremove of int  (** client pick *)
  | Ereplenish_removed of int  (** removed-client pick *)
  | Eselect of int  (** bit k set: each client c<j>, j mod 16 = k, blocked *)

let edf_op_gen =
  QCheck.Gen.(
    frequency
      [ (2, map3 (fun p s x -> Eadmit (p, s, x)) (int_range 0 3)
             (int_range 0 2) bool);
        (3, map (fun d -> Eadvance d) (int_range 1 12));
        (3, map2 (fun i u -> Echarge (i, u)) (int_range 0 7)
             (int_range 100 1800));
        (1, map (fun i -> Eremove i) (int_range 0 7));
        (1, map (fun i -> Ereplenish_removed i) (int_range 0 7));
        (4, map (fun m -> Eselect m) (int_range 0 0xffff)) ])

let edf_op_print = function
  | Eadmit (p, s, x) ->
    Printf.sprintf "admit %d %d%s" p s (if x then " x" else "")
  | Eadvance d -> Printf.sprintf "advance %dms" d
  | Echarge (i, u) -> Printf.sprintf "charge %d %dus" i u
  | Eremove i -> Printf.sprintf "remove %d" i
  | Ereplenish_removed i -> Printf.sprintf "replenish removed %d" i
  | Eselect m -> Printf.sprintf "select blocked=%04x" m

let m_utilisation model =
  List.fold_left
    (fun acc c -> acc +. (float_of_int c.m_slice /. float_of_int c.m_period))
    0.0 model

(* The seed's replenish, verbatim semantics (rollover on). *)
let m_replenish now c =
  while c.m_deadline <= now do
    let carry = if c.m_remaining < 0 then c.m_remaining else 0 in
    c.m_remaining <- c.m_slice + carry;
    c.m_deadline <- c.m_deadline + c.m_period
  done

(* The seed's fold: earliest deadline among the clients [eligible]
   admits, the first admitted kept on ties. *)
let m_pick eligible model =
  List.fold_left
    (fun best c ->
      if eligible c then
        match best with
        | Some b when b.m_deadline <= c.m_deadline -> best
        | _ -> Some c
      else best)
    None model

(* Client "c<j>" is blocked when bit (j mod 16) of [mask] is set. *)
let blocked mask name =
  let j = int_of_string (String.sub name 1 (String.length name - 1)) in
  (mask lsr (j mod 16)) land 1 = 1

let same_pick what real expect =
  match (real, expect) with
  | None, None -> ()
  | Some r, Some m when r.Sched.Edf.cname = m.m_name -> ()
  | _ -> failwith (what ^ " disagrees with the fold")

let edf_matches_fold =
  let periods = [| Time.ms 2; Time.ms 3; Time.ms 5; Time.ms 10 |] in
  let slices = [| Time.us 400; Time.us 700; Time.ms 1 |] in
  QCheck.Test.make
    ~name:"sorted-table EDF picks the same client as the seed fold"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map edf_op_print ops))
       QCheck.Gen.(list_size (int_range 1 80) edf_op_gen))
    (fun ops ->
      let edf = Sched.Edf.create () in
      let fired = ref [] in
      Sched.Edf.set_boundary_hook edf (fun c ~unused ~boundary ~grants ->
          fired := (c.Sched.Edf.cname, unused, boundary, grants) :: !fired);
      let model = ref [] in
      let removed = ref [] in
      let next = ref 0 in
      let now = ref Time.zero in
      let pick i l = List.nth l (i mod List.length l) in
      List.for_all
        (fun op ->
          (match op with
          | Eadmit (p, s, extra) ->
            let period = periods.(p) and slice = slices.(s) in
            let name = Printf.sprintf "c%d" !next in
            incr next;
            let refused =
              m_utilisation !model
              +. (float_of_int slice /. float_of_int period)
              > 1.0 +. 1e-9
            in
            (match
               Sched.Edf.admit edf ~name ~period ~slice ~extra ~now:!now ()
             with
            | Ok _ when refused -> failwith "model refused, EDF admitted"
            | Error _ when not refused ->
              failwith "model admitted, EDF refused"
            | Ok _ ->
              model :=
                !model
                @ [ { m_name = name; m_period = period;
                      m_slice = slice; m_extra = extra;
                      m_deadline = !now + period; m_remaining = slice } ]
            | Error _ -> ())
          | Eadvance d -> now := Time.add !now (Time.ms d)
          | Echarge (i, us) -> (
            match Sched.Edf.clients edf with
            | [] -> ()
            | real ->
              Sched.Edf.charge (pick i real) (Time.us us);
              let m = pick i !model in
              m.m_remaining <- m.m_remaining - Time.us us)
          | Eremove i -> (
            match Sched.Edf.clients edf with
            | [] -> ()
            | real ->
              let victim = pick i real in
              Sched.Edf.remove edf victim;
              removed := victim :: !removed;
              model :=
                List.filter
                  (fun m -> m.m_name <> victim.Sched.Edf.cname)
                  !model)
          | Ereplenish_removed i -> (
            (* Still accounted (and still observed by the hook), but
               it must never come back into the pick order. *)
            match !removed with
            | [] -> ()
            | gone ->
              let c = pick i gone in
              let d = c.Sched.Edf.deadline and p = c.Sched.Edf.period in
              let expect = if d <= !now then ((!now - d) / p) + 1 else 0 in
              fired := [];
              if Sched.Edf.replenish edf ~now:!now c <> expect then
                failwith "replenish of a removed client miscounted";
              if List.length !fired <> min 1 expect then
                failwith "hook fired wrongly for a removed client")
          | Eselect mask ->
            let due =
              List.stable_sort
                (fun a b -> compare a.m_deadline b.m_deadline)
                (List.filter (fun m -> m.m_deadline <= !now) !model)
            in
            let expect_fired =
              List.map
                (fun m ->
                  let grants =
                    ((!now - m.m_deadline) / m.m_period) + 1
                  in
                  (m.m_name, max 0 m.m_remaining, m.m_deadline, grants))
                due
            in
            fired := [];
            Sched.Edf.replenish_due edf ~now:!now;
            if List.rev !fired <> expect_fired then
              failwith "boundary hook fired out of (deadline, id) order";
            List.iter (m_replenish !now) !model;
            let only r = not (blocked mask r.Sched.Edf.cname) in
            let m_only m = not (blocked mask m.m_name) in
            same_pick "select"
              (Sched.Edf.select edf ~now:!now)
              (m_pick (fun m -> m.m_remaining > 0) !model);
            same_pick "select ~only"
              (Sched.Edf.select ~only edf ~now:!now)
              (m_pick (fun m -> m.m_remaining > 0 && m_only m) !model);
            same_pick "select_slack ~only"
              (Sched.Edf.select_slack ~only edf ~now:!now)
              (m_pick (fun m -> m.m_extra && m_only m) !model);
            same_pick "earliest ~only"
              (Sched.Edf.earliest ~only edf)
              (m_pick m_only !model);
            let expect_next =
              Option.map (fun m -> m.m_deadline) (m_pick (fun _ -> true) !model)
            in
            if Sched.Edf.next_deadline edf <> expect_next then
              failwith "next_deadline disagrees with the fold");
          (* The member list itself must stay in admission order with
             identical accounting state. *)
          List.for_all2
            (fun (r : Sched.Edf.client) m ->
              r.Sched.Edf.cname = m.m_name
              && r.Sched.Edf.deadline = m.m_deadline
              && r.Sched.Edf.remaining = m.m_remaining)
            (Sched.Edf.clients edf) !model)
        ops)

(* With nine in ten clients blocked, and blocked ones holding the
   earlier deadlines, a pick passes over almost every client: it must
   still allocate nothing beyond its option boxes, at any size. *)
let edf_select_allocation () =
  let words n =
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
      | Error e -> failwith e
    done;
    let only c = c.Sched.Edf.period = runnable_period in
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Sched.Edf.select ~only edf ~now:Time.zero)
    done;
    int_of_float (Gc.minor_words () -. before) / 1000
  in
  let small = words 8 and large = words 256 in
  check "same words per pick at n=8 and n=256" small large;
  checkb "at most 8 words per pick" true (large <= 8)

let edf_tie_break () =
  let edf = Sched.Edf.create () in
  let admit name =
    match
      Sched.Edf.admit edf ~name ~period:(Time.ms 10) ~slice:(Time.ms 2)
        ~now:Time.zero ()
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  let a = admit "first" in
  let _b = admit "second" in
  let _c = admit "third" in
  (* Equal deadlines: the first-admitted client must win, as the seed
     fold's [<=] kept it. *)
  (match Sched.Edf.select edf ~now:Time.zero with
  | Some c -> Alcotest.(check string) "tie" "first" c.Sched.Edf.cname
  | None -> Alcotest.fail "no client selected");
  (* Exhaust the winner: the tie moves to the next admission. *)
  Sched.Edf.charge a (Time.ms 2);
  match Sched.Edf.select edf ~now:Time.zero with
  | Some c -> Alcotest.(check string) "next tie" "second" c.Sched.Edf.cname
  | None -> Alcotest.fail "no client selected"

let edf_replenish_due () =
  let edf = Sched.Edf.create () in
  let admit name period =
    match
      Sched.Edf.admit edf ~name ~period ~slice:(Time.ms 1) ~now:Time.zero ()
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  let a = admit "a" (Time.ms 10) in
  let b = admit "b" (Time.ms 40) in
  Sched.Edf.charge a (Time.ms 1);
  Sched.Edf.charge b (Time.ms 1);
  (* Only a's boundary has passed at 15 ms: replenish_due must refill
     a and leave b alone. *)
  Sched.Edf.replenish_due edf ~now:(Time.ms 15);
  checkb "a refilled" true (Sched.Edf.has_budget a);
  checkb "b untouched" false (Sched.Edf.has_budget b);
  check "a deadline advanced" (Time.ms 20) a.Sched.Edf.deadline;
  check "b deadline unchanged" (Time.ms 40) b.Sched.Edf.deadline

(* --- Typed errors across the public API ---------------------------- *)

let frames_fixture () =
  let sim = Sim.create () in
  let rt = Hw.Ramtab.create ~nframes:8 in
  Frames.create sim rt ~nframes:8

let frames_overcommit_payload () =
  let fr = frames_fixture () in
  (match Frames.admit fr ~domain:1 ~guarantee:5 ~optimistic:0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "honest admission refused");
  (match Frames.admit fr ~domain:2 ~guarantee:4 ~optimistic:0 with
  | Error (Frames.Admission_overcommit { requested; available }) ->
    check "requested" 4 requested;
    check "available" 3 available
  | Ok _ -> Alcotest.fail "overcommit admitted"
  | Error _ -> Alcotest.fail "wrong error");
  (match Frames.admit fr ~domain:3 ~guarantee:(-1) ~optimistic:0 with
  | Error Frames.Negative_quota -> ()
  | _ -> Alcotest.fail "negative quota not typed");
  Alcotest.(check string) "rendered message"
    "admission refused: 4 guaranteed frames requested, 3 available"
    (Frames.error_message
       (Frames.Admission_overcommit { requested = 4; available = 3 }))

let frames_alloc_specific_errors () =
  let fr = frames_fixture () in
  let a =
    match Frames.admit fr ~domain:1 ~guarantee:2 ~optimistic:0 with
    | Ok c -> c
    | Error e -> failwith (Frames.error_message e)
  in
  let b =
    match Frames.admit fr ~domain:2 ~guarantee:2 ~optimistic:0 with
    | Ok c -> c
    | Error e -> failwith (Frames.error_message e)
  in
  (match Frames.alloc_specific fr a ~pfn:99 with
  | Error (Frames.Frame_out_of_range { pfn = 99; nframes = 8 }) -> ()
  | _ -> Alcotest.fail "out-of-range not typed");
  (match Frames.alloc_specific fr a ~pfn:5 with
  | Ok () -> ()
  | Error e -> failwith (Frames.error_message e));
  (match Frames.alloc_specific fr b ~pfn:5 with
  | Error (Frames.Frame_in_use { pfn = 5 }) -> ()
  | _ -> Alcotest.fail "in-use not typed");
  (match Frames.alloc_specific fr a ~pfn:6 with
  | Ok () -> ()
  | Error e -> failwith (Frames.error_message e));
  match Frames.alloc_specific fr a ~pfn:7 with
  | Error (Frames.Quota_exhausted { held = 2; quota = 2 }) -> ()
  | _ -> Alcotest.fail "quota exhaustion not typed"

let cpu_consume_removed () =
  let sim = Sim.create () in
  let cpu = Sched.Cpu.create sim in
  let c =
    match
      Sched.Cpu.admit cpu ~name:"gone" ~period:(Time.ms 10)
        ~slice:(Time.ms 2) ()
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  Sched.Cpu.remove cpu c;
  ignore
    (Proc.spawn sim (fun () ->
         match Sched.Cpu.consume cpu c (Time.ms 1) with
         | Error `Removed -> ()
         | Ok () -> Alcotest.fail "consume on removed contract succeeded"));
  Sim.run ~until:(Time.ms 100) sim

let link_send_retired () =
  let sim = Sim.create () in
  let link = Usnet.Link.create sim in
  let c =
    match
      Usnet.Link.admit link ~name:"a" ~period:(Time.ms 10)
        ~slice:(Time.ms 5) ()
    with
    | Ok c -> c
    | Error e -> failwith (Usnet.Link.admit_error_message e)
  in
  Usnet.Link.retire link c;
  (match Usnet.Link.send link c ~bytes:1000 with
  | Error `Retired -> ()
  | Ok _ -> Alcotest.fail "send on retired client accepted");
  match Usnet.Link.transmit link c ~bytes:1000 with
  | Error `Retired -> ()
  | Ok () -> Alcotest.fail "transmit on retired client succeeded"

let file_store_retired () =
  let sys = System.create () in
  let store = System.file_store sys in
  let f =
    match
      Usbs.File_store.create_file store ~name:"dead.dat" ~bytes:8192
    with
    | Ok f -> f
    | Error e -> failwith e
  in
  let qos = Usbs.Qos.make ~period:(Time.ms 100) ~slice:(Time.ms 10) () in
  let c =
    match Usbs.Usd.admit (System.usd sys) ~name:"dead" ~qos () with
    | Ok c -> c
    | Error e -> failwith e
  in
  Usbs.Usd.retire (System.usd sys) c;
  (match Usbs.File_store.read_page store f ~client:c ~page_index:0 with
  | Error `Retired -> ()
  | Ok () -> Alcotest.fail "read through retired client succeeded"
  | Error (`Media _) -> Alcotest.fail "wrong error shape");
  match Usbs.File_store.write_page store f ~client:c ~page_index:0 with
  | Error `Retired -> ()
  | Ok () -> Alcotest.fail "write through retired client succeeded"
  | Error (`Media _) -> Alcotest.fail "wrong error shape"

let system_errors_typed () =
  let sys = System.create () in
  (* CPU refusal: slice exceeds period. *)
  (match
     System.add_domain sys ~name:"bad" ~cpu_period:(Time.ms 1)
       ~cpu_slice:(Time.ms 2) ~guarantee:1 ~optimistic:0 ()
   with
  | Error (System.Cpu_admission { reason }) ->
    Alcotest.(check string) "cpu message" ("cpu: " ^ reason)
      (System.error_message (System.Cpu_admission { reason }))
  | _ -> Alcotest.fail "cpu refusal not typed");
  (* Frames refusal carries the Frames.error inside. *)
  let total = Frames.total_frames (System.frames sys) in
  match
    System.add_domain sys ~name:"greedy" ~guarantee:(total + 1)
      ~optimistic:0 ()
  with
  | Error
      (System.Frames_admission (Frames.Admission_overcommit { requested; _ })
       as e) ->
    check "requested" (total + 1) requested;
    checkb "rendered with frames: prefix" true
      (String.length (System.error_message e) > 7
      && String.sub (System.error_message e) 0 7 = "frames:")
  | _ -> Alcotest.fail "frames refusal not typed"

(* --- The experiment: determinism and the full verdict -------------- *)

let scale_deterministic () =
  let j1 =
    Experiments.Scale.to_json
      (Experiments.Scale.run ~seed:7 ~domains:6 ~duration:(Time.sec 3) ())
  in
  let j2 =
    Experiments.Scale.to_json
      (Experiments.Scale.run ~seed:7 ~domains:6 ~duration:(Time.sec 3) ())
  in
  Alcotest.(check string) "same seed, byte-identical record" j1 j2;
  Golden.check ~file:"scale_seed7.json" j1

let scale_verdict () =
  let r = Experiments.Scale.run ~domains:32 ~duration:(Time.sec 30) () in
  check "zero violations" 0 r.Experiments.Scale.violations;
  checkb "books balance" true
    r.Experiments.Scale.frames.Experiments.Harness.fb_balanced;
  checkb "every domain measured" true
    (r.Experiments.Scale.measured_domains = 32);
  checkb "verdict" true (Experiments.Scale.ok r)

let suite =
  [ ( "scale.frame_stack",
      [ qtest frame_stack_matches_model;
        Alcotest.test_case "unit edges" `Quick frame_stack_unit ] );
    ( "scale.edf",
      [ qtest edf_matches_fold;
        Alcotest.test_case "deadline ties go to first admitted" `Quick
          edf_tie_break;
        Alcotest.test_case "replenish_due only touches due clients" `Quick
          edf_replenish_due;
        Alcotest.test_case "select ~only allocates a fixed few words" `Quick
          edf_select_allocation ] );
    ( "scale.errors",
      [ Alcotest.test_case "admission overcommit payload" `Quick
          frames_overcommit_payload;
        Alcotest.test_case "alloc_specific variants" `Quick
          frames_alloc_specific_errors;
        Alcotest.test_case "consume on removed CPU contract" `Quick
          cpu_consume_removed;
        Alcotest.test_case "send on retired link client" `Quick
          link_send_retired;
        Alcotest.test_case "file store on retired USD client" `Quick
          file_store_retired;
        Alcotest.test_case "system admission errors typed" `Quick
          system_errors_typed ] );
    ( "scale.experiment",
      [ Alcotest.test_case "same seed, same JSON record" `Quick
          scale_deterministic;
        Alcotest.test_case "32-domain verdict" `Slow scale_verdict ] ) ]
