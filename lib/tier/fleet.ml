open Engine

let page_bytes = 8192 (* the USBS page size; Sfs keeps it internal *)

(* ------------------------------------------------------------------ *)
(* Types                                                               *)

type redundancy = Replicated of int | Erasure of { k : int; m : int }

type node = {
  nd_idx : int;
  nd_name : string;
  nd_remote : Remote_node.t;
  nd_link : Usnet.Link.t;
  nd_repair : Usnet.Link.client; (* fleet-owned probe/repair client *)
  mutable nd_member : bool; (* in the placement ring right now *)
  mutable nd_streak : int; (* consecutive timeouts *)
  mutable nd_quarantined : bool;
  mutable nd_next_probe : Time.t;
  mutable nd_quarantines : int;
  mutable nd_readmissions : int;
  mutable nd_stores : int; (* entries this node acked *)
  mutable nd_serves : int; (* reads this node answered *)
  mutable nd_failovers : int; (* reads it answered as a failover *)
  (* ["fleet.node.*"] gauges, labelled with the node's name *)
  g_used_pages : Obs.Metrics.gauge;
  g_member : Obs.Metrics.gauge;
  g_quarantined : Obs.Metrics.gauge;
  g_streak : Obs.Metrics.gauge;
}

type t = {
  sim : Sim.t;
  seed : int;
  ec : Ec.code option; (* Some iff the redundancy is Erasure *)
  width : int; (* entries placed per page: R, or k + m *)
  quarantine_after : int;
  probe_period : Time.span;
  repair_period : Time.span;
  repair_budget : int;
  link_retries : int;
  retx_timeout : Time.span;
  nodes : node array; (* members first, then standby *)
  (* the placement book: pages the fleet believes it holds, keyed by
     [(owner, slot)], mapped to the node index per stripe position
     (replicated: copy 0 = primary; erasure: position = shard index).
     Recorded only when enough entries were acked to recover the
     page. Repair mutates entries in place as it migrates shards. *)
  pages : (string * int, int array) Hashtbl.t;
  (* page heat: remote faults per [(owner, slot)], fed by every fetch
     and read by repair to rebuild the hottest pages first *)
  heat : (string * int, int ref) Hashtbl.t;
  mutable s_stores : int;
  mutable s_acks : int;
  mutable s_replica_skips : int;
  mutable s_replica_timeouts : int;
  mutable s_remote_fulls : int;
  mutable s_lost_primaries : int;
  mutable s_failovers : int;
  mutable s_rebuilds : int;
  mutable s_disk_fallbacks : int;
  mutable s_secondary_rebuilds : int;
  mutable s_lost_shards : int;
  mutable s_degraded_reads : int;
  mutable s_reconstructions : int;
  mutable s_corrupt_shards : int;
  mutable s_migrations : int;
  mutable s_node_joins : int;
  mutable s_node_retires : int;
  mutable s_retransmits : int;
  mutable s_lost_packets : int;
  mutable s_give_ups : int;
  mutable s_quarantines : int;
  mutable s_readmissions : int;
  mutable s_probes : int;
  mutable s_probe_failures : int;
  mutable s_wipes_applied : int;
  mutable s_repair_rounds : int;
  obs : fleet_obs;
}

(* The fleet-wide ["fleet.*"] counters. *)
and fleet_obs = {
  m_quarantine : Obs.Metrics.counter;
  m_readmit : Obs.Metrics.counter;
  m_node_join : Obs.Metrics.counter;
  m_node_retire : Obs.Metrics.counter;
  m_wipe : Obs.Metrics.counter;
  m_retransmit : Obs.Metrics.counter;
  m_corrupt_shard : Obs.Metrics.counter;
  m_probe : Obs.Metrics.counter;
  m_store : Obs.Metrics.counter;
  m_migrate : Obs.Metrics.counter;
  m_shard_rebuild : Obs.Metrics.counter;
  m_rebuild : Obs.Metrics.counter;
  m_secondary_rebuild : Obs.Metrics.counter;
  m_remote_full : Obs.Metrics.counter;
  m_lost_primary : Obs.Metrics.counter;
  m_failover : Obs.Metrics.counter;
  m_lost_shard : Obs.Metrics.counter;
  m_degraded_read : Obs.Metrics.counter;
  demote_recovery : Inject.recovery;
}

type stats = {
  stores : int;
  acks : int;
  replica_skips : int;
  replica_timeouts : int;
  remote_fulls : int;
  lost_primaries : int;
  failovers : int;
  rebuilds : int;
  disk_fallbacks : int;
  secondary_rebuilds : int;
  lost_shards : int;
  degraded_reads : int;
  reconstructions : int;
  corrupt_shards : int;
  migrations : int;
  node_joins : int;
  node_retires : int;
  retransmits : int;
  lost_packets : int;
  give_ups : int;
  quarantines : int;
  readmissions : int;
  probes : int;
  probe_failures : int;
  wipes_applied : int;
  repair_rounds : int;
}

type node_health = {
  nh_name : string;
  nh_member : bool;
  nh_used : int;
  nh_capacity : int;
  nh_quarantined : bool;
  nh_streak : int;
  nh_quarantines : int;
  nh_readmissions : int;
  nh_stores : int;
  nh_serves : int;
  nh_failovers : int;
}

(* One domain's lower layer under its {!Cache} front end: its client
   on every node link and the eviction books the front end cannot
   see. *)
type view = {
  fl : t;
  label : string;
  clients : Usnet.Link.client array; (* one per node, node order *)
  owner : string;
  mutable sx_write_fallbacks : int;
  mutable sx_clean_skips : int;
  (* per-domain handles: counters under [owner], the degraded-read
     histogram under [label] *)
  m_disk_fallback : Obs.Metrics.counter;
  m_cache_hit : Obs.Metrics.counter;
  m_hit : Obs.Metrics.counter;
  degraded_us : Obs.Metrics.histogram;
}

type store = { cache : Cache.t; view : view }

type store_stats = {
  st_cache_hits : int;
  st_fleet_hits : int;
  st_fleet_misses : int;
  st_promotes : int;
  st_demotes : int;
  st_write_fallbacks : int;
  st_clean_skips : int;
  st_lost_slots : int;
}

let metric c = if !Obs.enabled then Obs.Metrics.tick c

let node_gauges nd =
  if !Obs.enabled then begin
    let g = Obs.Metrics.set in
    g nd.g_used_pages (float_of_int (Remote_node.used_pages nd.nd_remote));
    g nd.g_member (if nd.nd_member then 1.0 else 0.0);
    g nd.g_quarantined (if nd.nd_quarantined then 1.0 else 0.0);
    g nd.g_streak (float_of_int nd.nd_streak)
  end

(* Which shard an entry at stripe position [p] is keyed as at the
   node: replicated copies are all the whole page (shard 0), erasure
   positions are distinct shards. *)
let shard_of t p = match t.ec with None -> 0 | Some _ -> p

(* Bytes of one entry on the wire: a whole page, or one shard. *)
let xfer_len t =
  match t.ec with None -> page_bytes | Some c -> Ec.shard_length c ~page_bytes

(* Acked entries needed before a placement is worth booking: one copy
   recovers a replicated page, k shards an erasure-coded one. *)
let min_placed t = match t.ec with None -> 1 | Some c -> Ec.k c

(* ------------------------------------------------------------------ *)
(* Placement: seeded rendezvous (highest-random-weight) hashing        *)

(* A splitmix-style finaliser over the 63-bit int; constants fit in
   OCaml's native int. Deterministic in its argument alone. *)
let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x4cf5ad432745937 land max_int in
  let x = x lxor (x lsr 27) in
  let x = x * 0x1d8e4e27c47d124 land max_int in
  x lxor (x lsr 31)

let weight t ~node_name ~owner ~slot =
  mix
    (mix (t.seed lxor Hashtbl.hash node_name)
    lxor (Hashtbl.hash owner * 0x9e3779b9)
    lxor (slot * 0x85ebca6b))

(* Every member node scores the page; the [width] highest win (the
   highest is the primary / shard 0). A pure function of (seed,
   member names, owner, slot), so a restarted fleet over the same
   membership recomputes the same book — and a membership change
   re-ranks with minimal movement: pages whose top [width] set does
   not involve the joined/retired node keep their placement. *)
let placement t ~owner ~slot =
  let scored = ref [] in
  Array.iter
    (fun nd ->
      if nd.nd_member then
        scored :=
          (weight t ~node_name:nd.nd_name ~owner ~slot, nd.nd_idx) :: !scored)
    t.nodes;
  let scored =
    List.sort (fun (wa, ia) (wb, ib) -> compare (wb, ib) (wa, ia)) !scored
  in
  Array.of_list
    (List.filteri (fun n _ -> n < t.width) scored |> List.map snd)

let member_names t =
  Array.of_list
    (Array.to_list t.nodes
    |> List.filter (fun nd -> nd.nd_member)
    |> List.map (fun nd -> nd.nd_name))

let member_count t =
  Array.fold_left (fun n nd -> if nd.nd_member then n + 1 else n) 0 t.nodes

(* ------------------------------------------------------------------ *)
(* Node health and membership                                          *)

let quarantine t nd =
  if not nd.nd_quarantined then begin
    nd.nd_quarantined <- true;
    nd.nd_quarantines <- nd.nd_quarantines + 1;
    t.s_quarantines <- t.s_quarantines + 1;
    nd.nd_next_probe <- Time.add (Sim.now t.sim) t.probe_period;
    metric t.obs.m_quarantine;
    node_gauges nd
  end

let note_timeout t nd =
  nd.nd_streak <- nd.nd_streak + 1;
  if nd.nd_streak >= t.quarantine_after then quarantine t nd

let note_ok nd = nd.nd_streak <- 0

let readmit t nd =
  nd.nd_quarantined <- false;
  nd.nd_streak <- 0;
  nd.nd_readmissions <- nd.nd_readmissions + 1;
  t.s_readmissions <- t.s_readmissions + 1;
  metric t.obs.m_readmit;
  node_gauges nd

let find_node t name =
  Array.to_list t.nodes |> List.find_opt (fun nd -> nd.nd_name = name)

let apply_join t nd =
  nd.nd_member <- true;
  t.s_node_joins <- t.s_node_joins + 1;
  metric t.obs.m_node_join;
  node_gauges nd

let apply_retire t nd =
  nd.nd_member <- false;
  t.s_node_retires <- t.s_node_retires + 1;
  metric t.obs.m_node_retire;
  node_gauges nd

let add_node t ~name =
  match find_node t name with
  | None -> invalid_arg ("Fleet.add_node: unknown node " ^ name)
  | Some nd ->
      if nd.nd_member then
        invalid_arg ("Fleet.add_node: already a member: " ^ name);
      apply_join t nd

let retire_node t ~name =
  match find_node t name with
  | None -> invalid_arg ("Fleet.retire_node: unknown node " ^ name)
  | Some nd ->
      if not nd.nd_member then
        invalid_arg ("Fleet.retire_node: not a member: " ^ name);
      if member_count t - 1 < t.width then
        invalid_arg
          ("Fleet.retire_node: would leave fewer members than the stripe \
            width: " ^ name);
      apply_retire t nd

(* Faults are applied lazily: before any fleet operation consults a
   node's contents or the placement, honour pending wipes (a crash
   implies a wipe — the RAM went with the node) and membership
   changes from the chaos plan. Joins land before retires so a plan
   that swaps a node in and another out in the same instant never
   dips below the stripe width. *)
let poll_faults t =
  let now = Sim.now t.sim in
  Array.iter
    (fun nd ->
      if Inject.node_wipe_due ~name:nd.nd_name ~now then begin
        Remote_node.wipe nd.nd_remote;
        t.s_wipes_applied <- t.s_wipes_applied + 1;
        metric t.obs.m_wipe;
        node_gauges nd
      end;
      if (not nd.nd_member) && Inject.node_join_due ~name:nd.nd_name ~now then
        apply_join t nd)
    t.nodes;
  Array.iter
    (fun nd ->
      if
        nd.nd_member && member_count t > t.width
        && Inject.node_retire_due ~name:nd.nd_name ~now
      then apply_retire t nd)
    t.nodes

(* ------------------------------------------------------------------ *)
(* Link transfers                                                      *)

(* MTU-sized fragments of one [len]-byte entry, smallest last (per
   node link). *)
let fragments nd len =
  let mtu = (Usnet.Link.params nd.nd_link).Usnet.Net_params.mtu in
  let n = (len + mtu - 1) / mtu in
  List.init n (fun i -> if i = n - 1 then len - ((n - 1) * mtu) else mtu)

(* The retransmit ladder: the [attempt]-th retry (0-based) backs off
   [base * 2^attempt], bounded at [8 * base] so a long retry budget
   degenerates to a steady (still deterministic) pulse rather than an
   unbounded stall — 1/2/4/8 ms at the default 1 ms base, the Sfs
   retry ladder at network scale. *)
let backoff ~base ~attempt = base * (1 lsl min attempt 3)

(* One packet towards [nd] on [client]. The transmit burns the
   client's slice whether or not the far end is reachable — the
   sender cannot know — then the packet is lost if the node is
   crashed/partitioned ({!Inject.node_reachable}) or the link's own
   fault plan drops it. A lost packet waits out the ack deadline,
   then retransmits on the {!backoff} ladder, [retries] times, then
   gives up: the packet ledger books it as exactly one of the two. *)
let send_frag t nd client ~retries bytes =
  let rec attempt left n =
    match Usnet.Link.transmit nd.nd_link client ~bytes with
    | Error `Retired -> Error `Timeout
    | Ok () ->
        let delivered =
          Inject.node_reachable ~name:nd.nd_name ~now:(Sim.now t.sim)
          &&
          match Inject.link ~name:(Usnet.Link.name nd.nd_link) with
          | Inject.Deliver -> true
          | Inject.Delay d ->
              Proc.sleep d;
              true
          | Inject.Drop -> false
        in
        if delivered then Ok ()
        else begin
          (* waited the ack deadline in vain *)
          Proc.sleep t.retx_timeout;
          t.s_lost_packets <- t.s_lost_packets + 1;
          if left > 0 then begin
            t.s_retransmits <- t.s_retransmits + 1;
            metric t.obs.m_retransmit;
            Proc.sleep (backoff ~base:t.retx_timeout ~attempt:n);
            attempt (left - 1) (n + 1)
          end
          else begin
            t.s_give_ups <- t.s_give_ups + 1;
            Error `Timeout
          end
        end
  in
  attempt retries 0

let send_frags t nd client ~retries frags =
  let rec go = function
    | [] -> Ok ()
    | b :: rest -> (
        match send_frag t nd client ~retries b with
        | Ok () -> go rest
        | Error _ as e -> e)
  in
  go frags

(* Fan [jobs] out as child processes and wait for them all. A stripe
   touches every node at once, but each leg rides a distinct node
   link under a distinct client of the same domain, so the domain is
   still charged per link while the stripe costs its slowest leg, not
   the sum of k + m serial transfers — without this a (4, 2) stripe
   pays ~6x the replicated path's latency per fault and queues
   collapse under load. Spawn order is fixed and the sim's event loop
   is deterministic, so same-seed runs stay byte-identical. *)
let in_parallel t jobs =
  match jobs with
  | [] -> ()
  | [ job ] -> job ()
  | jobs ->
      List.map (fun job -> Proc.spawn ~name:"fleet.xfer" t.sim job) jobs
      |> List.iter Proc.join

(* Push one entry (copy or shard) to [nd]: fragments out, node
   service, store. Health is noted here; the caller classifies the
   outcome. *)
let push_page t nd client ~retries ~shard ~owner ~slot =
  match send_frags t nd client ~retries (fragments nd (xfer_len t)) with
  | Error `Timeout ->
      note_timeout t nd;
      `Timeout
  | Ok () -> (
      Proc.sleep (Remote_node.service_time nd.nd_remote);
      note_ok nd;
      match Remote_node.store nd.nd_remote ~shard ~owner ~slot with
      | Ok () ->
          t.s_acks <- t.s_acks + 1;
          nd.nd_stores <- nd.nd_stores + 1;
          `Acked
      | Error `Remote_full -> `Full)

(* Pull one entry back from [nd]: 64-byte request out, node service,
   fragments back — all on [client]'s guarantee. [`Stale] is a miss
   reply: the node answered (health-wise it is fine) but no longer
   holds the entry. *)
let fetch_page t nd client ~retries ~shard ~owner ~slot =
  match send_frag t nd client ~retries 64 with
  | Error `Timeout ->
      note_timeout t nd;
      `Timeout
  | Ok () ->
      Proc.sleep (Remote_node.service_time nd.nd_remote);
      if not (Remote_node.holds nd.nd_remote ~shard ~owner ~slot) then begin
        note_ok nd;
        `Stale
      end
      else (
        match send_frags t nd client ~retries (fragments nd (xfer_len t)) with
        | Ok () ->
            note_ok nd;
            `Ok
        | Error `Timeout ->
            note_timeout t nd;
            `Timeout)

(* Fetch plus checksum verification: the {!Inject.shard_corrupt} site
   fires once per entry actually served, and a detected bit-flip is
   treated exactly like a lost entry — reconstruct, fail over or
   rebuild; never silently returned. *)
let fetch_shard t nd client ~retries ~shard ~owner ~slot =
  match fetch_page t nd client ~retries ~shard ~owner ~slot with
  | `Ok ->
      if Inject.shard_corrupt ~name:nd.nd_name then begin
        t.s_corrupt_shards <- t.s_corrupt_shards + 1;
        metric t.obs.m_corrupt_shard;
        `Corrupt
      end
      else `Ok
  | (`Stale | `Timeout) as e -> e

(* ------------------------------------------------------------------ *)
(* Probe / repair                                                      *)

let probe t nd =
  t.s_probes <- t.s_probes + 1;
  metric t.obs.m_probe;
  match send_frag t nd nd.nd_repair ~retries:0 64 with
  | Ok () ->
      Proc.sleep (Remote_node.service_time nd.nd_remote);
      readmit t nd
  | Error `Timeout ->
      t.s_probe_failures <- t.s_probe_failures + 1;
      nd.nd_next_probe <- Time.add (Sim.now t.sim) t.probe_period

let probe_due t =
  let now = Sim.now t.sim in
  Array.iter
    (fun nd -> if nd.nd_quarantined && now >= nd.nd_next_probe then probe t nd)
    t.nodes

(* The book entry is re-checked by physical equality after every
   transfer: the owning domain may have overwritten the page while
   bytes were on the wire (drop + re-demote installs a fresh array),
   in which case the rebuilt entry is stale and must not be stored. *)
let book_fresh t ~reps ~owner ~slot =
  match Hashtbl.find_opt t.pages (owner, slot) with
  | Some r when r == reps -> true
  | _ -> false

(* Materialise the entry for stripe position [p] at [dst], over the
   fleet's own repair clients.

   Cheap path first: if a live node still serves that very entry
   (any surviving copy in replicated mode; position [p]'s recorded
   holder in erasure mode), one fetch + one push moves it — this is
   what makes membership rebalancing "minimal movement". Otherwise a
   replicated page with no surviving copy cannot be repaired
   ([`No_source]; the read path answers), while an erasure-coded
   page is reconstructed from any [k] live shards: [k] shard fetches
   plus one shard push, the real price of parity repair. *)
let rebuild_shard t ~reps ~owner ~slot ~p ~dst =
  let live i = not t.nodes.(i).nd_quarantined in
  let holds q i =
    Remote_node.holds t.nodes.(i).nd_remote ~shard:(shard_of t q) ~owner ~slot
  in
  let push () =
    if not (book_fresh t ~reps ~owner ~slot) then `Stale
    else
      match
        push_page t dst dst.nd_repair ~retries:t.link_retries
          ~shard:(shard_of t p) ~owner ~slot
      with
      | `Acked ->
          t.s_stores <- t.s_stores + 1;
          metric t.obs.m_store;
          `Acked
      | (`Full | `Timeout) as e -> e
  in
  let direct_src =
    match t.ec with
    | None ->
        (* any copy is the page *)
        let src = ref None in
        Array.iter
          (fun i ->
            if !src = None && i <> dst.nd_idx && live i && holds 0 i then
              src := Some i)
          reps;
        !src
    | Some _ ->
        let i = reps.(p) in
        if i <> dst.nd_idx && live i && holds p i then Some i else None
  in
  match direct_src with
  | Some i -> (
      let src = t.nodes.(i) in
      match
        fetch_shard t src src.nd_repair ~retries:t.link_retries
          ~shard:(shard_of t p) ~owner ~slot
      with
      | (`Timeout | `Stale | `Corrupt) as e -> e
      | `Ok -> push ())
  | None -> (
      match t.ec with
      | None -> `No_source
      | Some c ->
          let k = Ec.k c in
          let srcs = ref [] and n = ref 0 in
          Array.iteri
            (fun q i ->
              if !n < k && q <> p && live i && holds q i then begin
                incr n;
                srcs := (q, i) :: !srcs
              end)
            reps;
          if !n < k then `No_source
          else begin
            let rec pull = function
              | [] -> push ()
              | (q, i) :: rest -> (
                  let src = t.nodes.(i) in
                  match
                    fetch_shard t src src.nd_repair ~retries:t.link_retries
                      ~shard:(shard_of t q) ~owner ~slot
                  with
                  | `Ok -> pull rest
                  | (`Timeout | `Stale | `Corrupt) as e -> e)
            in
            pull (List.rev !srcs)
          end)

let repair_round t =
  t.s_repair_rounds <- t.s_repair_rounds + 1;
  poll_faults t;
  probe_due t;
  let budget = ref t.repair_budget in
  (* Demand-driven order: hottest pages first, with the (owner, slot)
     key as a deterministic tie-break. Each page's heat is read once,
     before the sort. *)
  let book =
    Hashtbl.fold
      (fun k v acc ->
        let h = match Hashtbl.find_opt t.heat k with Some r -> !r | None -> 0 in
        (h, k, v) :: acc)
      t.pages []
    |> List.sort (fun (ha, ka, _) (hb, kb, _) ->
           if ha <> hb then compare hb ha else compare ka kb)
  in
  List.iter
    (fun (_, (owner, slot), reps) ->
      if !budget > 0 then begin
        let want = placement t ~owner ~slot in
        for p = 0 to t.width - 1 do
          if !budget > 0 then begin
            let cur = reps.(p) and tgt = want.(p) in
            let cur_nd = t.nodes.(cur) and tgt_nd = t.nodes.(tgt) in
            let cur_has =
              (not cur_nd.nd_quarantined)
              && Remote_node.holds cur_nd.nd_remote ~shard:(shard_of t p)
                   ~owner ~slot
            in
            if (not (cur_has && cur = tgt)) && not tgt_nd.nd_quarantined
            then begin
              decr budget;
              match rebuild_shard t ~reps ~owner ~slot ~p ~dst:tgt_nd with
              | `Acked ->
                  (if cur_has && cur <> tgt then begin
                     (* rebalance: the entry lived, it just moved *)
                     Remote_node.drop cur_nd.nd_remote ~shard:(shard_of t p)
                       ~owner ~slot;
                     t.s_migrations <- t.s_migrations + 1;
                     metric t.obs.m_migrate
                   end
                   else
                     match t.ec with
                     | Some _ ->
                         (* a lost shard observed and answered here *)
                         t.s_lost_shards <- t.s_lost_shards + 1;
                         t.s_rebuilds <- t.s_rebuilds + 1;
                         metric t.obs.m_shard_rebuild
                     | None ->
                         if p = 0 then begin
                           (* the primary was gone and repair answered *)
                           t.s_lost_primaries <- t.s_lost_primaries + 1;
                           t.s_rebuilds <- t.s_rebuilds + 1;
                           metric t.obs.m_rebuild
                         end
                         else begin
                           t.s_secondary_rebuilds <-
                             t.s_secondary_rebuilds + 1;
                           metric t.obs.m_secondary_rebuild
                         end);
                  reps.(p) <- tgt
              | `No_source | `Full | `Timeout | `Stale | `Corrupt -> ()
            end
          end
        done
      end)
    book;
  Array.iter node_gauges t.nodes

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create ?(redundancy = Replicated 2) ?(standby = [])
    ?(quarantine_after = 3) ?(probe_period = Time.ms 50)
    ?(repair_period = Time.ms 25) ?(repair_budget = 8) ?(link_retries = 3)
    ?(retx_timeout = Time.ms 1) ?(repair_qos = (Time.ms 20, Time.ms 2))
    ?(repair = true) ~seed ~nodes sim =
  if nodes = [] then invalid_arg "Fleet.create: empty node list";
  if quarantine_after < 1 then
    invalid_arg "Fleet.create: quarantine_after must be >= 1";
  let members = List.length nodes in
  let ec, width =
    match redundancy with
    | Replicated r ->
        if r < 1 then invalid_arg "Fleet.create: replicas must be >= 1";
        (None, min r members)
    | Erasure { k; m } ->
        let c = Ec.make ~k ~m in
        (* Ec.make validated the (k, m) ranges *)
        if k + m > members then
          invalid_arg "Fleet.create: erasure needs k + m member nodes";
        (Some c, k + m)
  in
  let period, slice = repair_qos in
  let mk_node member i (name, remote, link) =
    if name <> Usnet.Link.name link then
      invalid_arg
        (Printf.sprintf "Fleet.create: node %s does not match its link %s"
           name (Usnet.Link.name link));
    let repair_client =
      match
        Usnet.Link.admit link ~name:(name ^ ".repair") ~period ~slice
          ~extra:true ()
      with
      | Ok c -> c
      | Error e ->
          invalid_arg
            ("Fleet.create: repair client refused: "
            ^ Usnet.Link.admit_error_message e)
    in
    let gauge n = Obs.Metrics.gauge ~label:name ("fleet.node." ^ n) in
    { nd_idx = i;
      nd_name = name;
      nd_remote = remote;
      nd_link = link;
      nd_repair = repair_client;
      nd_member = member;
      nd_streak = 0;
      nd_quarantined = false;
      nd_next_probe = Time.zero;
      nd_quarantines = 0;
      nd_readmissions = 0;
      nd_stores = 0;
      nd_serves = 0;
      nd_failovers = 0;
      g_used_pages = gauge "used_pages";
      g_member = gauge "member";
      g_quarantined = gauge "quarantined";
      g_streak = gauge "streak" }
  in
  let all =
    List.mapi (mk_node true) nodes
    @ List.mapi (fun i n -> mk_node false (members + i) n) standby
  in
  let t =
    { sim;
      seed;
      ec;
      width;
      quarantine_after;
      probe_period;
      repair_period;
      repair_budget;
      link_retries;
      retx_timeout;
      nodes = Array.of_list all;
      pages = Hashtbl.create 256;
      heat = Hashtbl.create 256;
      s_stores = 0;
      s_acks = 0;
      s_replica_skips = 0;
      s_replica_timeouts = 0;
      s_remote_fulls = 0;
      s_lost_primaries = 0;
      s_failovers = 0;
      s_rebuilds = 0;
      s_disk_fallbacks = 0;
      s_secondary_rebuilds = 0;
      s_lost_shards = 0;
      s_degraded_reads = 0;
      s_reconstructions = 0;
      s_corrupt_shards = 0;
      s_migrations = 0;
      s_node_joins = 0;
      s_node_retires = 0;
      s_retransmits = 0;
      s_lost_packets = 0;
      s_give_ups = 0;
      s_quarantines = 0;
      s_readmissions = 0;
      s_probes = 0;
      s_probe_failures = 0;
      s_wipes_applied = 0;
      s_repair_rounds = 0;
      obs =
        (let c n = Obs.Metrics.counter ("fleet." ^ n) in
         { m_quarantine = c "quarantine";
           m_readmit = c "readmit";
           m_node_join = c "node_join";
           m_node_retire = c "node_retire";
           m_wipe = c "wipe";
           m_retransmit = c "retransmit";
           m_corrupt_shard = c "corrupt_shard";
           m_probe = c "probe";
           m_store = c "store";
           m_migrate = c "migrate";
           m_shard_rebuild = c "shard_rebuild";
           m_rebuild = c "rebuild";
           m_secondary_rebuild = c "secondary_rebuild";
           m_remote_full = c "remote_full";
           m_lost_primary = c "lost_primary";
           m_failover = c "failover";
           m_lost_shard = c "lost_shard";
           m_degraded_read = c "degraded_read";
           demote_recovery = Inject.recovery "fleet.demote" }) }
  in
  if repair then
    ignore
      (Proc.spawn ~name:"fleet.repair" sim (fun () ->
           let rec loop () =
             Proc.sleep t.repair_period;
             repair_round t;
             loop ()
           in
           loop ()));
  t

let admit_clients t ~name ~period ~slice ?extra ?queue_depth ?laxity () =
  let admitted = ref [] in
  let rec go i =
    if i = Array.length t.nodes then
      Ok (Array.of_list (List.rev !admitted))
    else
      let nd = t.nodes.(i) in
      match
        Usnet.Link.admit nd.nd_link
          ~name:(name ^ "@" ^ nd.nd_name)
          ~period ~slice ?extra ?queue_depth ?laxity ()
      with
      | Ok c ->
          admitted := c :: !admitted;
          go (i + 1)
      | Error e ->
          List.iteri
            (fun j c -> Usnet.Link.retire t.nodes.(i - 1 - j).nd_link c)
            !admitted;
          Error e
  in
  go 0

(* ------------------------------------------------------------------ *)
(* One domain's lower layer                                            *)

let tracked v s = Hashtbl.mem v.fl.pages (v.owner, s)

(* Fresh contents for a slot: every stored entry is stale. The drops
   are metadata at the nodes; the placement-book entry goes with
   them, so the fleet never serves the old bytes. *)
let drop_fleet v s =
  match Hashtbl.find_opt v.fl.pages (v.owner, s) with
  | Some reps ->
      Array.iteri
        (fun p i ->
          Remote_node.drop v.fl.nodes.(i).nd_remote
            ~shard:(shard_of v.fl p) ~owner:v.owner ~slot:s)
        reps;
      Hashtbl.remove v.fl.pages (v.owner, s)
  | None -> ()

(* Push one evicted slot to its stripe. Quarantined nodes are skipped
   (repair rebuilds their entries); the eviction succeeds if enough
   entries were acked to recover the page — one copy, or k shards. An
   under-placed erasure stripe is useless, so its acked shards are
   taken back before the front end falls to the disk floor (no leaked
   node entries). *)
let demote v s ~dirty =
  let t = v.fl in
  poll_faults t;
  let reps = placement t ~owner:v.owner ~slot:s in
  let acked = Array.make (Array.length reps) false in
  let placed = ref 0 in
  let push_one p =
    let i = reps.(p) in
    let nd = t.nodes.(i) in
    if nd.nd_quarantined then t.s_replica_skips <- t.s_replica_skips + 1
    else if not (Remote_node.has_room nd.nd_remote) then begin
      (* known-full before any byte moves *)
      t.s_remote_fulls <- t.s_remote_fulls + 1;
      metric t.obs.m_remote_full
    end
    else
      match
        push_page t nd v.clients.(i) ~retries:t.link_retries
          ~shard:(shard_of t p) ~owner:v.owner ~slot:s
      with
      | `Acked ->
          incr placed;
          acked.(p) <- true;
          t.s_stores <- t.s_stores + 1;
          metric t.obs.m_store
      | `Full ->
          t.s_remote_fulls <- t.s_remote_fulls + 1;
          metric t.obs.m_remote_full
      | `Timeout -> t.s_replica_timeouts <- t.s_replica_timeouts + 1
  in
  in_parallel t (List.init (Array.length reps) (fun p () -> push_one p));
  if !placed >= min_placed t then begin
    Hashtbl.replace t.pages (v.owner, s) reps;
    true
  end
  else begin
    Array.iteri
      (fun p i ->
        if acked.(p) then
          Remote_node.drop t.nodes.(i).nd_remote ~shard:(shard_of t p)
            ~owner:v.owner ~slot:s)
      reps;
    if dirty then v.sx_write_fallbacks <- v.sx_write_fallbacks + 1
    else v.sx_clean_skips <- v.sx_clean_skips + 1;
    false
  end

(* Serve one tracked slot from a replicated stripe: primary first,
   then the surviving copies in placement order. Exactly one of
   failover/disk-fallback answers a lost primary here (rebuilds are
   the repair process's entry). *)
let fetch_replicated v s reps =
  let t = v.fl in
  let try_node p =
    let i = reps.(p) in
    let nd = t.nodes.(i) in
    if nd.nd_quarantined then `Skip
    else
      match
        fetch_shard t nd v.clients.(i) ~retries:t.link_retries ~shard:0
          ~owner:v.owner ~slot:s
      with
      | `Ok ->
          nd.nd_serves <- nd.nd_serves + 1;
          `Ok
      | (`Stale | `Timeout | `Corrupt) as e -> e
  in
  match try_node 0 with
  | `Ok -> `Served
  | `Skip | `Stale | `Timeout | `Corrupt ->
      t.s_lost_primaries <- t.s_lost_primaries + 1;
      metric t.obs.m_lost_primary;
      let rec failover p =
        if p >= Array.length reps then `All_lost 1
        else
          match try_node p with
          | `Ok ->
              t.s_failovers <- t.s_failovers + 1;
              t.nodes.(reps.(p)).nd_failovers <-
                t.nodes.(reps.(p)).nd_failovers + 1;
              metric t.obs.m_failover;
              `Served
          | `Skip | `Stale | `Timeout | `Corrupt -> failover (p + 1)
      in
      failover 1

(* Serve one tracked slot from an erasure stripe: walk the positions
   in shard order (data first — the systematic fast path needs no
   decode) until k shards are in hand. Every position found
   unavailable on the way (quarantined, stale, timed out, corrupt)
   is one lost-shard observation; a read that still gathers k is a
   {e degraded read} — answered from remote memory by
   reconstruction, never the disk floor — and books each observed
   loss as a reconstruction. A read that cannot gather k returns the
   observation count for the disk-fallback side of the ledger. *)
let fetch_erasure v s reps c =
  let t = v.fl in
  let k = Ec.k c in
  let t0 = Time.to_us (Sim.now t.sim) in
  let got = ref 0 and losses = ref 0 in
  let fetch_one p =
    let i = reps.(p) in
    let nd = t.nodes.(i) in
    if nd.nd_quarantined then begin
      incr losses;
      metric t.obs.m_lost_shard
    end
    else
      match
        fetch_shard t nd v.clients.(i) ~retries:t.link_retries ~shard:p
          ~owner:v.owner ~slot:s
      with
      | `Ok ->
          incr got;
          nd.nd_serves <- nd.nd_serves + 1
      | `Stale | `Timeout | `Corrupt ->
          incr losses;
          metric t.obs.m_lost_shard
  in
  (* Gather in parallel rounds: the k lowest live positions first
     (data shards — the systematic fast path needs no decode), then
     widen by exactly as many legs as failed. Healthy stripes pay one
     parallel round; a stripe missing j <= m shards pays one short
     second round for the parity it now needs. *)
  let next = ref 0 in
  while !got < k && !next < t.width do
    let batch = min (k - !got) (t.width - !next) in
    let first = !next in
    next := first + batch;
    in_parallel t (List.init batch (fun j () -> fetch_one (first + j)))
  done;
  t.s_lost_shards <- t.s_lost_shards + !losses;
  if !got >= k then begin
    if !losses > 0 then begin
      (* the GF(256) decode itself is CPU noise next to the wire *)
      t.s_degraded_reads <- t.s_degraded_reads + 1;
      t.s_reconstructions <- t.s_reconstructions + !losses;
      metric t.obs.m_degraded_read;
      if !Obs.enabled then
        Obs.Metrics.record v.degraded_us
          (Time.to_us (Sim.now t.sim) -. t0)
    end;
    `Served
  end
  else `All_lost !losses

(* A read of a tracked slot. Remote faults feed the repair queue's
   hot-first ordering; a page no stripe could serve books its observed
   losses as disk fallbacks, whether or not the disk holds a copy. *)
let fetch v s ~on_disk:_ =
  let t = v.fl in
  (match Hashtbl.find_opt t.heat (v.owner, s) with
  | Some r -> incr r
  | None -> Hashtbl.replace t.heat (v.owner, s) (ref 1));
  poll_faults t;
  let reps = Hashtbl.find t.pages (v.owner, s) in
  match
    match t.ec with
    | None -> fetch_replicated v s reps
    | Some c -> fetch_erasure v s reps c
  with
  | `Served -> true
  | `All_lost n ->
      t.s_disk_fallbacks <- t.s_disk_fallbacks + n;
      metric v.m_disk_fallback;
      false

let lower v =
  { Cache.holds = tracked v;
    fetch = fetch v;
    demote = demote v;
    forget = drop_fleet v;
    note =
      (function
      | Cache.Cache_hit -> metric v.m_cache_hit
      | Cache.Promote -> metric v.m_hit
      | Cache.Miss | Cache.Demote -> ()
      | Cache.Floor_lost -> Inject.note_killed v.fl.obs.demote_recovery) }

let attach ?(mode = Cache.Write_through) ?(cache_pages = 32)
    ?(label = "fleet") t ~clients ~swap () =
  if Array.length clients <> Array.length t.nodes then
    invalid_arg "Fleet.attach: need one admitted client per node";
  let owner = Usbs.Sfs.swap_name swap in
  let counter n = Obs.Metrics.counter ~label:owner ("fleet." ^ n) in
  let view =
    { fl = t;
      label;
      clients;
      owner;
      sx_write_fallbacks = 0;
      sx_clean_skips = 0;
      m_disk_fallback = counter "disk_fallback";
      m_cache_hit = counter "cache_hit";
      m_hit = counter "hit";
      degraded_us = Obs.Metrics.histogram ~label "fleet.degraded_us" }
  in
  { cache = Cache.create ~mode ~cache_pages ~label ~swap (lower view); view }

let backing st = Cache.backing st.cache

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let stats t =
  { stores = t.s_stores;
    acks = t.s_acks;
    replica_skips = t.s_replica_skips;
    replica_timeouts = t.s_replica_timeouts;
    remote_fulls = t.s_remote_fulls;
    lost_primaries = t.s_lost_primaries;
    failovers = t.s_failovers;
    rebuilds = t.s_rebuilds;
    disk_fallbacks = t.s_disk_fallbacks;
    secondary_rebuilds = t.s_secondary_rebuilds;
    lost_shards = t.s_lost_shards;
    degraded_reads = t.s_degraded_reads;
    reconstructions = t.s_reconstructions;
    corrupt_shards = t.s_corrupt_shards;
    migrations = t.s_migrations;
    node_joins = t.s_node_joins;
    node_retires = t.s_node_retires;
    retransmits = t.s_retransmits;
    lost_packets = t.s_lost_packets;
    give_ups = t.s_give_ups;
    quarantines = t.s_quarantines;
    readmissions = t.s_readmissions;
    probes = t.s_probes;
    probe_failures = t.s_probe_failures;
    wipes_applied = t.s_wipes_applied;
    repair_rounds = t.s_repair_rounds }

let health t =
  Array.to_list
    (Array.map
       (fun nd ->
         { nh_name = nd.nd_name;
           nh_member = nd.nd_member;
           nh_used = Remote_node.used_pages nd.nd_remote;
           nh_capacity = Remote_node.capacity nd.nd_remote;
           nh_quarantined = nd.nd_quarantined;
           nh_streak = nd.nd_streak;
           nh_quarantines = nd.nd_quarantines;
           nh_readmissions = nd.nd_readmissions;
           nh_stores = nd.nd_stores;
           nh_serves = nd.nd_serves;
           nh_failovers = nd.nd_failovers })
       t.nodes)

let store_stats { cache; view = v } =
  let c = Cache.counters cache in
  { st_cache_hits = c.Cache.cache_hits;
    st_fleet_hits = c.Cache.hits;
    st_fleet_misses = c.Cache.misses;
    st_promotes = c.Cache.hits;
    st_demotes = c.Cache.demotes;
    st_write_fallbacks = v.sx_write_fallbacks;
    st_clean_skips = v.sx_clean_skips;
    st_lost_slots = c.Cache.lost_slots }

(* Bytes held across the fleet relative to the pages tracked: an
   entry is a whole page (replicated) or 1/k of one (erasure), so
   intact R = 2 measures 2.0x and intact (4, 2) measures 1.5x —
   the storage dividend the erasure experiment asserts. *)
let storage_overhead t =
  let tracked = Hashtbl.length t.pages in
  if tracked = 0 then 0.0
  else
    let entries =
      Array.fold_left
        (fun a nd -> a + Remote_node.used_pages nd.nd_remote)
        0 t.nodes
    in
    let frac =
      match t.ec with
      | None -> 1.0
      | Some c -> 1.0 /. float_of_int (Ec.k c)
    in
    float_of_int entries *. frac /. float_of_int tracked

let books_balanced t =
  t.s_stores = t.s_acks
  && t.s_lost_packets = t.s_retransmits + t.s_give_ups
  &&
  match t.ec with
  | None ->
      t.s_lost_primaries = t.s_failovers + t.s_rebuilds + t.s_disk_fallbacks
  | Some _ ->
      t.s_lost_shards
      = t.s_reconstructions + t.s_rebuilds + t.s_disk_fallbacks

(* --- backing-axis registration --------------------------------------- *)

type fleet_cap = {
  fc_fleet : t;
  fc_clients : Usnet.Link.client array;
  fc_on_store : store -> unit;
}

type Backing.cap += Fleet_tier of fleet_cap

let () =
  Registry.register_exn Backing.axis
    (Registry.manifest ~name:"fleet"
       ~doc:
         "replicated / erasure-coded remote-memory fleet over the disk \
          (Tier.Fleet); a one-node Replicated 1 fleet is plain remote \
          paging"
       ~params:
         [ { Registry.p_name = "cache-pages";
             p_doc = "local RAM cache size, pages";
             p_kind = Registry.Int 32 };
           { Registry.p_name = "label";
             p_doc = "store label for metrics and driver names";
             p_kind = Registry.String (Some "fleet") } ]
       ~default:"fleet:cache-pages=32" ())
    (fun a ->
      match Registry.Syntax.int_param a "cache-pages" ~default:32 with
      | Error e -> Error e
      | Ok cache_pages ->
          let label = Registry.Syntax.string_param a "label" ~default:"fleet" in
          Ok
            (fun ctx swap ->
              match
                List.find_map (function Fleet_tier c -> Some c | _ -> None) ctx
              with
              | None ->
                  Error "fleet backing needs a Tier.Fleet.Fleet_tier capability"
              | Some c ->
                  let s =
                    attach ~cache_pages ~label c.fc_fleet
                      ~clients:c.fc_clients ~swap ()
                  in
                  c.fc_on_store s;
                  Ok (backing s)))
