open Engine

let page_bytes = 8192 (* mirrors the USBS page size; Sfs keeps it internal *)

type mode = Cache.mode = Write_through | Write_back

type stats = {
  cache_hits : int;
  remote_hits : int;
  remote_misses : int;
  promotes : int;
  demotes : int;
  remote_fulls : int;
  drops_seen : int;
  delays_seen : int;
  retransmits : int;
  retx_delays : Time.span list;
  drop_losses : int;
  transfer_fails : int;
  clean_aborts : int;
  disk_fallbacks : int;
  link_lost_slots : int;
  lost_slots : int;
}

type t = {
  cache : Cache.t;
  net : net;
}

(* The single-link lower layer: one remote node behind one link, and
   the drop/delay books of the transfers that reach it. *)
and net = {
  link : Usnet.Link.t;
  client : Usnet.Link.client;
  remote : Remote_node.t;
  owner : string; (* key space at the remote node: the swapfile name *)
  in_remote : bool array;
  link_retries : int;
  retx_timeout : Time.span;
  mutable s_remote_fulls : int;
  mutable s_drops : int;
  mutable s_delays : int;
  mutable s_retransmits : int;
  mutable s_retx_delays : Time.span list; (* reverse chronological *)
  mutable s_drop_losses : int;
  mutable s_transfer_fails : int;
  mutable s_clean_aborts : int;
  mutable s_disk_fallbacks : int;
  mutable s_link_lost_slots : int;
}

let stats { cache; net = t } =
  let c = Cache.counters cache in
  { cache_hits = c.Cache.cache_hits;
    remote_hits = c.Cache.hits;
    remote_misses = c.Cache.misses;
    promotes = c.Cache.hits;
    demotes = c.Cache.demotes;
    remote_fulls = t.s_remote_fulls;
    drops_seen = t.s_drops;
    delays_seen = t.s_delays;
    retransmits = t.s_retransmits;
    retx_delays = List.rev t.s_retx_delays;
    drop_losses = t.s_drop_losses;
    transfer_fails = t.s_transfer_fails;
    clean_aborts = t.s_clean_aborts;
    disk_fallbacks = t.s_disk_fallbacks;
    link_lost_slots = t.s_link_lost_slots;
    lost_slots = c.Cache.lost_slots }

let books_balanced { net = t; _ } =
  t.s_drops = t.s_retransmits + t.s_drop_losses
  && t.s_transfer_fails
     = t.s_clean_aborts + t.s_disk_fallbacks + t.s_link_lost_slots

let metric t name = if !Obs.enabled then Obs.Metrics.inc ~label:t.owner name

(* ------------------------------------------------------------------ *)
(* Link transfers                                                      *)

(* MTU-sized fragments of one page, smallest last. *)
let fragments t =
  let mtu = (Usnet.Link.params t.link).Usnet.Net_params.mtu in
  let n = (page_bytes + mtu - 1) / mtu in
  List.init n (fun i ->
      if i = n - 1 then page_bytes - ((n - 1) * mtu) else mtu)

(* The Sfs retry ladder at network scale: the [n]-th retransmit of a
   packet backs off [base * 2^n], bounded at [8 * base] so a long
   retry budget degenerates to a steady (still deterministic) pulse
   rather than an unbounded stall. With the default 1 ms base the
   ladder is the familiar 1/2/4/8 ms. *)
let backoff ~base ~attempt = base * (1 lsl min attempt 3)

(* One packet on the wire. A dropped packet still burned its slot
   time (it was transmitted, then never acked), so the QoS charge
   lands before the fault plan is consulted. *)
let send_frag t bytes =
  let rec attempt left n =
    match Usnet.Link.transmit t.link t.client ~bytes with
    | Error `Retired -> Error `Link_lost
    | Ok () -> (
        match Inject.link ~name:(Usnet.Link.name t.link) with
        | Inject.Deliver -> Ok ()
        | Inject.Delay d ->
            t.s_delays <- t.s_delays + 1;
            Proc.sleep d;
            Ok ()
        | Inject.Drop ->
            t.s_drops <- t.s_drops + 1;
            if left > 0 then begin
              t.s_retransmits <- t.s_retransmits + 1;
              metric t "tier.retransmit";
              let d = backoff ~base:t.retx_timeout ~attempt:n in
              t.s_retx_delays <- d :: t.s_retx_delays;
              Proc.sleep d;
              attempt (left - 1) (n + 1)
            end
            else begin
              t.s_drop_losses <- t.s_drop_losses + 1;
              metric t "tier.link_lost";
              Error `Link_lost
            end)
  in
  attempt t.link_retries 0

(* A whole page across the wire. Abandons at the first lost
   fragment. *)
let transfer_page t =
  let rec go = function
    | [] -> Ok ()
    | b :: rest -> (
        match send_frag t b with Ok () -> go rest | Error _ as e -> e)
  in
  match go (fragments t) with
  | Ok () -> Ok ()
  | Error `Link_lost ->
      t.s_transfer_fails <- t.s_transfer_fails + 1;
      Error `Link_lost

(* ------------------------------------------------------------------ *)
(* The lower layer                                                     *)

let drop_remote t s =
  if t.in_remote.(s) then begin
    Remote_node.drop t.remote ~owner:t.owner ~slot:s;
    t.in_remote.(s) <- false
  end

(* Push one evicted slot to the remote node. A refusal is booked here;
   the front end then writes a dirty slot to the disk. *)
let demote t s ~dirty =
  if Remote_node.has_room t.remote then begin
    match transfer_page t with
    | Ok () -> (
        Proc.sleep (Remote_node.service_time t.remote);
        match Remote_node.store t.remote ~owner:t.owner ~slot:s with
        | Ok () ->
            t.in_remote.(s) <- true;
            true
        | Error `Remote_full ->
            (* lost the race for the last slot while on the wire *)
            t.s_remote_fulls <- t.s_remote_fulls + 1;
            metric t "tier.remote_full";
            false)
    | Error `Link_lost ->
        if dirty then t.s_disk_fallbacks <- t.s_disk_fallbacks + 1
        else t.s_clean_aborts <- t.s_clean_aborts + 1;
        false
  end
  else begin
    t.s_remote_fulls <- t.s_remote_fulls + 1;
    metric t "tier.remote_full";
    false
  end

(* A lost transfer is answered by the disk copy when [on_disk], else
   by losing the slot. *)
let link_lost t ~on_disk =
  if on_disk then t.s_disk_fallbacks <- t.s_disk_fallbacks + 1
  else t.s_link_lost_slots <- t.s_link_lost_slots + 1;
  false

(* Pull one page back from the remote node: request out, node service,
   page fragments back — all on the owner's own link guarantee. A
   stale hint (node wiped) is not a link failure. *)
let fetch t s ~on_disk =
  if not (Remote_node.holds t.remote ~owner:t.owner ~slot:s) then begin
    t.in_remote.(s) <- false;
    false
  end
  else
    match send_frag t 64 with
    | Error `Link_lost ->
        t.s_transfer_fails <- t.s_transfer_fails + 1;
        link_lost t ~on_disk
    | Ok () -> (
        Proc.sleep (Remote_node.service_time t.remote);
        match transfer_page t with
        | Ok () -> true
        | Error `Link_lost -> link_lost t ~on_disk)

let lower t =
  { Cache.holds = (fun s -> t.in_remote.(s));
    fetch = fetch t;
    demote = demote t;
    forget = drop_remote t;
    note =
      (function
      | Cache.Cache_hit -> metric t "tier.cache_hit"
      | Cache.Promote ->
          metric t "tier.remote_hit";
          metric t "tier.promote"
      | Cache.Miss -> metric t "tier.remote_miss"
      | Cache.Demote -> metric t "tier.demote"
      | Cache.Floor_lost -> Inject.note_killed "tier.demote") }

let create ?(mode = Cache.Write_through) ?(cache_pages = 32)
    ?(link_retries = 3) ?(retx_timeout = Time.ms 1) ?(label = "tier") ~link
    ~client ~remote ~swap () =
  if link_retries < 0 then invalid_arg "Store.create: negative link_retries";
  let net =
    { link;
      client;
      remote;
      owner = Usbs.Sfs.swap_name swap;
      in_remote = Array.make (max 1 (Usbs.Sfs.page_capacity swap)) false;
      link_retries;
      retx_timeout;
      s_remote_fulls = 0;
      s_drops = 0;
      s_delays = 0;
      s_retransmits = 0;
      s_retx_delays = [];
      s_drop_losses = 0;
      s_transfer_fails = 0;
      s_clean_aborts = 0;
      s_disk_fallbacks = 0;
      s_link_lost_slots = 0 }
  in
  { cache = Cache.create ~mode ~cache_pages ~label ~swap (lower net); net }

let backing t = Cache.backing t.cache

(* --- backing-axis registration --------------------------------------- *)

type tiered_cap = {
  tc_link : Usnet.Link.t;
  tc_client : Usnet.Link.client;
  tc_remote : Remote_node.t;
  tc_on_store : t -> unit;
}

type Backing.cap += Tiered of tiered_cap

let () =
  Cache.register ~name:"tiered"
    ~doc:
      "local RAM cache over one remote memory node over the disk \
       (Tier.Store)"
    ~label:"tier" ~cap:"Store.Tiered"
    (function Tiered c -> Some c | _ -> None)
    (fun c ~cache_pages ~label swap ->
      let s =
        create ~cache_pages ~label ~link:c.tc_link ~client:c.tc_client
          ~remote:c.tc_remote ~swap ()
      in
      c.tc_on_store s;
      backing s)
