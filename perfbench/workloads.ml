(* The three paging workloads, built from the library's public API.

   Each workload function returns a [t]: a booted system with its domains
   admitted and set up, plus the end time of the run. Nothing is
   stepped beyond what [Paging_app.start] needs to finish a domain's
   set-up; the caller drives the event loop (see [Drive]).

   The seed reaches the inputs two ways: it seeds the system (the
   simulator's root stream, the fleet's placement hash, the fault
   plan's dice) and it is part of every domain name. A paging app
   seeds its access-pattern stream from its name, so a new seed gives
   new random and hotspot page sequences. *)

open Engine
open Core
module App = Workload.Paging_app

type dom = { app : App.t; swap : Usbs.Sfs.swapfile }

type fleet = {
  fleet : Tier.Fleet.t;
  links : Usnet.Link.t list;
  stores : Tier.Fleet.store list ref;
}

(* Counts and virtual-time latencies of the calls the paged drivers make
   on a fleet domain's backing store, kept by a wrapper installed
   around each [Backing.t] in the traced run. *)
type tier_probe = {
  mutable reads : int;
  mutable writes : int;
  mutable errors : int;
  mutable read_us : float list;
}

type t = {
  sys : System.t;
  doms : dom list;
  fleet : fleet option;
  until : Time.t;
  probe : tier_probe;
}

let fail fmt = Printf.ksprintf failwith fmt

let pattern n =
  match App.pattern_of_string n with
  | Ok p -> p
  | Error e -> fail "pattern %s: %s" n (Registry.error_message e)

let policy s =
  match Policy.Spec.of_string s with
  | Ok p -> p
  | Error e -> fail "policy %s: %s" s e

let wrap probe sim (b : Tier.Backing.t) =
  let count_write r =
    probe.writes <- probe.writes + 1;
    if Result.is_error r then probe.errors <- probe.errors + 1;
    r
  in
  { b with
    read_pages =
      (fun ~page_index ~npages ->
        let t0 = Sim.now sim in
        let r = b.read_pages ~page_index ~npages in
        probe.reads <- probe.reads + 1;
        probe.read_us <- Time.to_us (Time.diff (Sim.now sim) t0) :: probe.read_us;
        if Result.is_error r then probe.errors <- probe.errors + 1;
        r);
    write_page = (fun ~page_index -> count_write (b.write_page ~page_index));
    write_pages =
      (fun ~page_index ~npages -> count_write (b.write_pages ~page_index ~npages));
    write_pages_commit =
      (fun ~page_index ~npages ~pages ~retire ->
        count_write (b.write_pages_commit ~page_index ~npages ~pages ~retire)) }

(* Start one paging app, remembering its swapfile. [backing] maps the
   swapfile to the data path; the default is the seed's SFS path. *)
let start sys ~name ~mode ~qos ?(backing = Tier.Backing.of_sfs) ?vm_bytes
    ?phys_frames ?swap_bytes ?cpu_slice ?policy ~pattern () =
  let swap = ref None in
  let backing s =
    swap := Some s;
    backing s
  in
  match
    App.start sys ~name ~mode ~qos ?vm_bytes ?phys_frames ?swap_bytes ?cpu_slice
      ?policy ~backing ~pattern ()
  with
  | Error e -> fail "%s: %s" name e
  | Ok app -> (
      match !swap with
      | Some swap -> { app; swap }
      | None -> fail "%s: no swapfile bound" name)

let reset_globals ~obs =
  Obs.set_enabled obs;
  Obs.reset ();
  Inject.disarm ()

let new_probe () = { reads = 0; writes = 0; errors = 0; read_us = [] }

(* many-domains: the scale experiment's 128-domain fleet under its
   tight admission (CPU ~0.77 booked, disk ~0.8 booked). *)
let many_domains ~seed ~seconds =
  let domains = 128 and guarantee = 6 in
  let frames_per_mb = 1024 * 1024 / Hw.Addr.page_size in
  let frames_wanted = domains * guarantee * 5 / 4 in
  let mem = max 2 ((frames_wanted + frames_per_mb - 1) / frames_per_mb) in
  let sys =
    System.create
      ~config:{ System.default_config with seed; main_memory_mb = mem } ()
  in
  let cpu_slice = Time.us (max 20 (7_700 / domains)) in
  let usd_period_ms = max 400 (domains * 32) in
  let qos =
    Usbs.Qos.make ~period:(Time.ms usd_period_ms)
      ~slice:(Time.us (max 500 (usd_period_ms * 800 / domains))) ()
  in
  let doms =
    List.init domains (fun i ->
        start sys
          ~name:(Printf.sprintf "d%03d-s%d" i seed)
          ~mode:App.Paging_in ~qos ~vm_bytes:(16 * Hw.Addr.page_size)
          ~phys_frames:guarantee ~swap_bytes:(32 * Hw.Addr.page_size)
          ~cpu_slice
          ~pattern:(pattern [| "seq"; "rand"; "hot" |].(i mod 3))
          ())
  in
  { sys; doms; fleet = None; until = Time.sec seconds; probe = new_probe () }

(* disk-paging: the Fig 7 / Fig 8 mix on one USD — three readers under
   three policies beside two forgetful writers, (p, s, l) contracts
   booking 0.9 of the disk. *)
let disk_paging ~seed ~seconds =
  let sys = Experiments.Harness.fresh_system ~seed () in
  let qos slice_ms =
    Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms slice_ms)
      ~laxity:(Time.ms 10) ()
  in
  let mk (base, mode, pat, pol, slice_ms) =
    start sys
      ~name:(Printf.sprintf "%s-s%d" base seed)
      ~mode ~qos:(qos slice_ms) ?policy:(Option.map policy pol)
      ~pattern:(pattern pat) ()
  in
  let doms =
    List.map mk
      [ ("in-seq", App.Paging_in, "seq", Some "fifo+ra8", 50);
        ("in-hot", App.Paging_in, "hot", Some "clock", 50);
        ("in-rand", App.Paging_in, "rand", None, 50);
        ("out-seq", App.Paging_out, "seq", None, 25);
        ("out-rand", App.Paging_out, "rand", Some "fifo+wb16", 50) ]
  in
  { sys; doms; fleet = None; until = Time.sec seconds; probe = new_probe () }

(* ec-fleet: the erasure experiment's erasure cell — three fleet-backed
   domains over a six-node (4,2) fleet plus a standby, three disk-only
   bystanders, a trickle repair budget. The fault plan is the
   experiment's (two wipes m apart, a standby join, a 2%-corrupt node)
   but timed inside the measured window: the fleet domains reach their
   measured loop about 20 s into the run, and the faults land after. *)
let ec_fleet ~seed ~seconds ~traced =
  let sys =
    System.create
      ~config:{ System.default_config with seed; main_memory_mb = 2 } ()
  in
  let sim = System.sim sys in
  let node name =
    let link =
      Usnet.Link.create ~name ~params:Usnet.Net_params.gigabit sim
    in
    (name, Tier.Remote_node.create ~capacity_pages:420 (), link)
  in
  let members = List.init 6 (fun i -> node (Printf.sprintf "n%d" i)) in
  let standby = node "n6" in
  let fleet =
    Tier.Fleet.create ~seed ~redundancy:(Tier.Fleet.Erasure { k = 4; m = 2 })
      ~standby:[ standby ] ~repair_period:(Time.ms 250) ~repair_budget:2
      ~nodes:members sim
  in
  let stores = ref [] in
  let probe = new_probe () in
  let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 35) () in
  let app ~name ~pat ?backing () =
    start sys ~name ~mode:App.Paging_in ~qos ~vm_bytes:(1024 * 1024)
      ~phys_frames:8 ~swap_bytes:(4 * 1024 * 1024) ?backing
      ~pattern:(pattern pat) ()
  in
  let pats = [ "seq"; "rand"; "hot" ] in
  let bystanders =
    List.map
      (fun pat -> app ~name:(Printf.sprintf "disk-%s-s%d" pat seed) ~pat ())
      pats
  in
  let fleet_doms =
    List.map
      (fun pat ->
        let name = Printf.sprintf "fleet-%s-s%d" pat seed in
        let clients =
          match
            Tier.Fleet.admit_clients fleet ~name:(name ^ ".tier")
              ~period:(Time.ms 20) ~slice:(Time.ms 5) ~extra:true
              ~laxity:(Time.of_ms_float 2.0) ()
          with
          | Ok cs -> cs
          | Error e -> fail "%s: %s" name (Usnet.Link.admit_error_message e)
        in
        let attach =
          Experiments.Harness.backing ~experiment:"perfbench"
            "fleet:cache-pages=24"
            [ Tier.Fleet.Fleet_tier
                { fc_fleet = fleet; fc_clients = clients;
                  fc_on_store = (fun s -> stores := s :: !stores) } ]
        in
        let backing swap =
          let b = attach swap in
          if traced then wrap probe sim b else b
        in
        app ~name ~pat ~backing ())
      pats
  in
  let at ms = Time.add (Time.sec 20) (Time.ms ms) in
  Inject.arm
    { Inject.default_plan with
      seed;
      node_faults =
        [ Inject.node_fault ~wipe_at:(at 800) "n1";
          Inject.node_fault ~wipe_at:(at 2400) "n2";
          Inject.node_fault ~join_at:(at 4000) "n6";
          Inject.node_fault ~corrupt:0.02 "n3" ] };
  { sys;
    doms = bystanders @ fleet_doms;
    fleet =
      Some
        { fleet;
          links = List.map (fun (_, _, l) -> l) (members @ [ standby ]);
          stores };
    until = Time.sec seconds;
    probe }

(* Each workload with the simulated seconds it runs. *)
let all =
  [ ("many-domains", 70, fun ~seed ~seconds ~traced:_ -> many_domains ~seed ~seconds);
    ("ec-fleet", 28, ec_fleet);
    ("disk-paging", 240, fun ~seed ~seconds ~traced:_ -> disk_paging ~seed ~seconds) ]

let names = List.map (fun (n, _, _) -> n) all

(* Build a workload from fresh Obs and Inject state. [traced] installs
   the tier probe. *)
let build name ~seed ~obs ~traced =
  match List.find_opt (fun (n, _, _) -> n = name) all with
  | None -> fail "unknown workload %s" name
  | Some (_, seconds, make) ->
      reset_globals ~obs;
      make ~seed ~seconds ~traced
