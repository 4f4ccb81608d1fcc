(* Tests for lib/share: the compression codec's round-trip property,
   the RamTab reference books under qcheck-generated interleavings of
   CoW breaks, pool sheds and tenant kills, and the tenancy
   experiment's same-seed determinism. *)

open Engine
open Hw
open Core

let qtest = QCheck_alcotest.to_alcotest
let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Compression round-trip ---------------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"zpool compress/decompress round-trips" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 12_000))
    (fun s -> Share.Zpool.decompress (Share.Zpool.compress s) = s)

(* Every entropy class the size model synthesizes must round-trip to a
   full page — this is the fault-back-bytes-identical guarantee. *)
let prop_synth_roundtrip =
  QCheck.Test.make ~name:"synthesized pages round-trip at page size"
    ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 1 24)) small_nat)
    (fun (key, version) ->
      let page = Share.Zpool.synth ~key ~version in
      String.length page = Share.Zpool.page_bytes
      && Share.Zpool.decompress (Share.Zpool.compress page) = page)

(* --- RamTab refcount books under CoW/kill/shed interleavings ------- *)

(* A miniature tenant fleet (one frozen template, three CoW tenants, a
   two-page text segment, a sheddable zpool) driven by a generated op
   list. Whatever the interleaving of writes (share breaks), reads
   (share grants), kills (detach hooks) and pool sheds, the books must
   balance afterwards: every RamTab reference sits on a registry
   frame, registry installs - frees = live frames, and the frames
   allocator's free + held = total with RamTab ownership matching. *)

type op =
  | Write of int * int  (* tenant, page *)
  | Read of int * int
  | Kill of int  (* tenant *)
  | Shed  (* squeeze the zpool budget to zero and back *)

let op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map2 (fun t p -> Write (t, p)) (int_range 0 2) (int_range 0 5));
        (4, map2 (fun t p -> Read (t, p)) (int_range 0 2) (int_range 0 5));
        (1, map (fun t -> Kill t) (int_range 0 2));
        (1, return Shed) ])

let op_print = function
  | Write (t, p) -> Printf.sprintf "w%d.%d" t p
  | Read (t, p) -> Printf.sprintf "r%d.%d" t p
  | Kill t -> Printf.sprintf "kill%d" t
  | Shed -> "shed"

let tpl_pages = 6
let seg_pages = 2

let run_fleet ops =
  Obs.set_enabled false;
  Inject.disarm ();
  let config = { System.default_config with seed = 7; main_memory_mb = 2 } in
  let sys = System.create ~config () in
  let sim = System.sim sys in
  let qos () = Usbs.Qos.make ~period:(Time.ms 50) ~slice:(Time.ms 10) () in
  let reg =
    match
      Share.Shared_frames.create sys ~guarantee:(tpl_pages + seg_pages + 2)
    with
    | Ok r -> r
    | Error e -> failwith (System.error_message e)
  in
  let seg = Share.Seg.create ~reg ~name:"text" ~npages:seg_pages () in
  let zpool =
    match System.admit_service sys ~guarantee:0 ~optimistic:4 with
    | Error e -> failwith (System.error_message e)
    | Ok (_, client) ->
      Share.Zpool.create ~sim ~frames:(System.frames sys) ~client
        ~ramtab:(System.ramtab sys) ~budget:2 ()
  in
  let template =
    match
      System.add_domain sys ~name:"tpl" ~guarantee:(tpl_pages + 2)
        ~optimistic:0 ()
    with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let proto =
    match System.add_domain sys ~name:"proto" ~guarantee:4 ~optimistic:2 () with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let frozen = Sync.Ivar.create () in
  (match
     System.alloc_stretch template ~bytes:(tpl_pages * Addr.page_size) ()
   with
  | Error msg -> failwith msg
  | Ok s ->
    (match
       System.bind_paged template ~initial_frames:tpl_pages
         ~swap_bytes:(2 * tpl_pages * Addr.page_size) ~qos:(qos ()) s ()
     with
    | Error e -> failwith (System.error_message e)
    | Ok (_, h) ->
      ignore
        (Domains.spawn_thread template.System.dom ~name:"tpl.warm" (fun () ->
             for p = 0 to tpl_pages - 1 do
               Domains.access template.System.dom (Stretch.page_base s p)
                 `Write
             done;
             Sync.Ivar.fill frozen
               (Share.Cow.freeze ~reg ~name:"img" template h
                  ~npages:tpl_pages)))));
  (* Per-tenant worker threads: ops arrive by mailbox, acks by ivar, so
     the driver below serializes the whole interleaving. *)
  let boxes = Array.init 3 (fun _ -> Sync.Mailbox.create ()) in
  let live = Array.make 3 false in
  let doms = Array.make 3 None in
  let done_ = Sync.Ivar.create () in
  ignore
    (Proc.spawn ~name:"driver" sim (fun () ->
         let tpl = Sync.Ivar.read frozen in
         System.kill_domain sys template;
         for i = 0 to 2 do
           let name = Printf.sprintf "t%d" i in
           match
             Share.Cow.spawn sys ~template:tpl ~tpl_domain:proto ~name
               ~backing:(fun swap ->
                 Share.Sd_zram.backing
                   (Share.Sd_zram.create ~label:("z" ^ name) ~zpool
                      ~below:(Tier.Backing.of_sfs swap) ()))
               ~initial_frames:2 ~npages:tpl_pages
               ~swap_bytes:(2 * tpl_pages * Addr.page_size) ~qos:(qos ()) ()
           with
           | Error e -> failwith (System.error_message e)
           | Ok (d, (_, stretch)) ->
             (match Share.Seg.attach seg d with
             | Error e -> failwith (System.error_message e)
             | Ok (_, seg_stretch) ->
               doms.(i) <- Some d;
               live.(i) <- true;
               ignore
                 (Domains.spawn_thread d.System.dom ~name:(name ^ ".w")
                    (fun () ->
                      let rec loop () =
                        let op, (reply : unit Sync.Ivar.t) =
                          Sync.Mailbox.recv boxes.(i)
                        in
                        (match op with
                        | Write (_, p) ->
                          Domains.access d.System.dom
                            (Stretch.page_base stretch p) `Write
                        | Read (_, p) ->
                          if p < seg_pages then
                            Domains.access d.System.dom
                              (Stretch.page_base seg_stretch p) `Read;
                          Domains.access d.System.dom
                            (Stretch.page_base stretch p) `Read
                        | Kill _ | Shed -> ());
                        Sync.Ivar.fill reply ();
                        loop ()
                      in
                      loop ())))
         done;
         List.iter
           (fun op ->
             match op with
             | Kill t ->
               if live.(t) then begin
                 live.(t) <- false;
                 match doms.(t) with
                 | Some d -> System.kill_domain sys d
                 | None -> ()
               end
             | Shed ->
               ignore (Share.Zpool.set_budget zpool 0);
               ignore (Share.Zpool.set_budget zpool 2)
             | Write (t, _) | Read (t, _) ->
               if live.(t) then begin
                 let reply = Sync.Ivar.create () in
                 Sync.Mailbox.send boxes.(t) (op, reply);
                 Sync.Ivar.read reply
               end)
           ops;
         Sync.Ivar.fill done_ ()));
  System.run ~until:(Time.sec 30) sys;
  if Sync.Ivar.peek done_ = None then failwith "fleet driver did not finish";
  let rt = System.ramtab sys in
  let books = Share.Shared_frames.books reg in
  let total_refs = ref 0 in
  for pfn = 0 to Ramtab.nframes rt - 1 do
    total_refs := !total_refs + Ramtab.refs rt ~pfn
  done;
  let held_sum =
    List.fold_left
      (fun acc d -> acc + Frames.held d.System.frames_client)
      0 (System.domains sys)
    + Frames.held (Share.Shared_frames.client reg)
    + Share.Zpool.frames_held zpool
  in
  let owned = ref 0 in
  for pfn = 0 to Ramtab.nframes rt - 1 do
    if Ramtab.owner rt ~pfn <> None then incr owned
  done;
  let fr = System.frames sys in
  Share.Shared_frames.books_balanced reg
  && !total_refs = books.Share.Shared_frames.b_live_refs
  && Frames.free_frames fr + held_sum = Frames.total_frames fr
  && !owned = held_sum

let prop_refcount_books =
  QCheck.Test.make ~name:"refcount books balance under CoW/kill/shed ops"
    ~count:12
    QCheck.(list_of_size (Gen.int_range 1 24) (make ~print:op_print op_gen))
    run_fleet

(* --- Tenancy determinism ------------------------------------------- *)

let test_tenancy_deterministic () =
  let go () =
    Experiments.Tenancy.to_json
      (Experiments.Tenancy.run ~seed:11 ~tenants:4 ~duration:(Time.sec 6) ())
  in
  let a = go () in
  let b = go () in
  Alcotest.(check string) "same seed, byte-identical report" a b;
  Golden.check ~file:"tenancy_seed11.json" a

(* The default Sd_paged path must be untouched by the new layer: a
   tenancy control run with sharing and the compressed tier both off
   still balances its books and leaves no references anywhere. *)
let test_control_arm_books () =
  let r =
    Experiments.Tenancy.run ~seed:3 ~tenants:2 ~duration:(Time.sec 5)
      ~share:false ~zram:false ()
  in
  checkb "books balanced" true
    r.Experiments.Tenancy.frames.Experiments.Harness.fb_balanced;
  checkb "registry balanced" true r.Experiments.Tenancy.reg_balanced;
  check "no refs leaked" 0 r.Experiments.Tenancy.refs_leaked;
  check "no CoW breaks" 0 r.Experiments.Tenancy.cow_breaks;
  check "nothing frozen" 0 r.Experiments.Tenancy.template_frozen

let suite =
  [ ( "share",
      [ qtest prop_roundtrip; qtest prop_synth_roundtrip;
        qtest prop_refcount_books;
        Alcotest.test_case "tenancy same-seed byte-identical" `Slow
          test_tenancy_deterministic;
        Alcotest.test_case "control arm keeps clean books" `Quick
          test_control_arm_books ] ) ]
