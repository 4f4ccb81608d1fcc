(** A redundant remote memory tier: N nodes, replicated or
    erasure-coded stripes, no single point of failure.

    This is the one remote data path under the {!Cache} front end. A
    one-node [Replicated 1] fleet is plain remote paging (the [remote]
    experiment): one [Remote_node.wipe] and every tiered domain eats
    the ~130× disk penalty. Several nodes spread the same traffic
    under a per-fleet {!redundancy} policy:

    - [Replicated r]: each demoted page is written whole to [r]
      nodes chosen by a seeded rendezvous hash; reads try the primary
      and fail over to the surviving copies.
    - [Erasure {k; m}]: each demoted page is split by the {!Ec}
      Reed–Solomon coder into [k] data + [m] parity shards placed on
      [k + m] distinct nodes — [1 + m/k] times the page's bytes
      instead of [r] times. Stripe legs travel {e in parallel} (one
      transfer process per node, demotes and reads both), so a stripe
      costs its slowest leg, not the sum of [k + m] serial transfers.
      Reads gather the first [k] positions of the stripe in one
      parallel round (the systematic fast path needs no decode) and,
      per shard lost, widen the round into the parity — a degraded
      read {e reconstructs} from any [k] shards, served from remote
      memory, never the disk floor.

    Only when a page is unrecoverable remotely (every copy gone, or
    more than [m] shards lost) does a fault fall back to the disk
    durability floor.

    {b Health.} Every node is reached over its own {!Usnet.Link};
    packets to a crashed or partitioned node (per
    {!Inject.node_reachable}) or dropped by the link's fault plan are
    never acked, so the sender waits out the ack deadline
    ([retx_timeout]), retransmits on a deterministic backoff ladder
    ([retx_timeout * 2^n], capped at 8×: 1/2/4/8 ms) and eventually
    gives up. [quarantine_after] consecutive timeouts
    quarantine the node: it stops being asked for pages, and a
    background process probes it each [probe_period], re-admitting it
    when a probe is answered (a healed partition) — a crashed node
    just stays quarantined. A served entry that fails its checksum
    ({!Inject.shard_corrupt}) is treated exactly like a lost one.

    {b Repair.} The same background process restores redundancy: each
    [repair_period] it walks the placement book {e hottest page
    first} — ordered by the fleet's own per-page fault counts, so
    the pages domains are actually faulting on regain full redundancy
    before cold ones — and rebuilds up to
    [repair_budget] entries per round over the fleet's own repair
    link clients. A missing replicated copy is refetched from a
    survivor; a missing erasure shard is reconstructed from any [k]
    live shards ([k] fetches + one push, the real price of parity
    repair) unless its old holder still serves it, in which case one
    fetch moves it.

    {b Membership.} Nodes can join and retire at run time:
    {!add_node} admits a standby node (declared at {!create} so its
    link clients exist from the start) into the placement ring, and
    {!retire_node} removes one — both also drivable from the chaos
    plan via {!Inject.node_join_due}/{!Inject.node_retire_due}.
    Rebalancing is rendezvous re-ranking: only pages whose top-[width]
    set involves the changed node move, and the moves are budgeted
    through the same repair loop (a {e migration} — the entry lived,
    it just moved — never enters the loss ledger). A retiring node
    keeps answering reads while it drains.

    {b Books.} Double-entry, mode-aware:
    - both modes: [stores = acks] — every entry the placement book
      records was individually acknowledged by its node;
    - both modes: [lost_packets = retransmits + give_ups] — every
      packet never acked (dropped or unreachable) was either retried
      or abandoned its transfer;
    - replicated:
      [lost_primaries = failovers + rebuilds + disk_fallbacks];
    - erasure:
      [lost_shards = reconstructions + rebuilds + disk_fallbacks] —
      every lost-shard observation is answered exactly once: a
      degraded read reconstructed over it, the repair process rebuilt
      it, or the read fell back to the disk (fallback reads book one
      answer per shard they observed lost).

    {b Charging.} Every fragment a domain sends or receives burns
    that domain's own link-client slice, admitted under a (p,s,x,l)
    guarantee, so a thrashing tiered domain cannot steal network from
    its neighbours any more than it can steal disk. *)

open Engine

type redundancy =
  | Replicated of int  (** [r] whole-page copies on [r] nodes *)
  | Erasure of { k : int; m : int }
      (** [k] data + [m] parity shards on [k + m] nodes; any [m]
          losses survived at [1 + m/k] times the storage *)

type t
(** The fleet: nodes, placement book, health state, repair process. *)

type store
(** One domain's view of the fleet — the {!Cache} front end (LRU RAM
    cache, write modes, disk floor) on top, the redundant node set as
    its lower layer. Obtained from {!attach}, consumed via
    {!backing}. *)

type stats = {
  stores : int;  (** entries recorded in the placement book *)
  acks : int;  (** node acknowledgements backing those entries *)
  replica_skips : int;  (** writes not attempted (node quarantined) *)
  replica_timeouts : int;  (** writes abandoned after the last retry *)
  remote_fulls : int;  (** writes refused by a full node *)
  lost_primaries : int;
      (** replicated: reads/repairs that found the primary gone *)
  failovers : int;  (** ... answered by a surviving copy *)
  rebuilds : int;
      (** ... answered by rebuilding the copy (replicated primaries)
          or the shard (erasure, any position) *)
  disk_fallbacks : int;
      (** ... answered by the disk floor (erasure: one per shard the
          falling-back read observed lost) *)
  secondary_rebuilds : int;
      (** replicated non-primary copies rebuilt (outside the primary
          equation) *)
  lost_shards : int;
      (** erasure: shard-loss observations (reads and repair) *)
  degraded_reads : int;
      (** erasure reads that needed parity and a decode *)
  reconstructions : int;
      (** lost-shard observations answered by a degraded read *)
  corrupt_shards : int;
      (** entries served but failing their checksum (both modes) *)
  migrations : int;
      (** entries moved by rebalancing (membership changes) — the
          entry lived, so no loss ledger entry *)
  node_joins : int;  (** standby nodes admitted into membership *)
  node_retires : int;  (** members retired out of the ring *)
  retransmits : int;  (** fragments retried on the backoff ladder *)
  lost_packets : int;
      (** packets never acked: dropped by the link or sent to an
          unreachable node *)
  give_ups : int;  (** lost packets with no retry left *)
  quarantines : int;  (** nodes quarantined (streak of timeouts) *)
  readmissions : int;  (** quarantined nodes probed back in *)
  probes : int;
  probe_failures : int;
  wipes_applied : int;  (** {!Inject.node_wipe_due} wipes honoured *)
  repair_rounds : int;
}

type node_health = {
  nh_name : string;
  nh_member : bool;  (** in the placement ring right now *)
  nh_used : int;  (** entries held (pages, or shards) *)
  nh_capacity : int;
  nh_quarantined : bool;
  nh_streak : int;  (** consecutive timeouts right now *)
  nh_quarantines : int;
  nh_readmissions : int;
  nh_stores : int;  (** entries this node acked over its lifetime *)
  nh_serves : int;  (** reads this node answered *)
  nh_failovers : int;  (** reads it answered as a replicated failover *)
}

type store_stats = {
  st_cache_hits : int;
  st_fleet_hits : int;  (** reads served by the fleet (incl. degraded) *)
  st_fleet_misses : int;  (** reads of never-placed slots (disk) *)
  st_promotes : int;
  st_demotes : int;  (** evictions placed on enough nodes to recover *)
  st_write_fallbacks : int;
      (** dirty evictions the fleet could not hold, written to disk *)
  st_clean_skips : int;  (** clean evictions the fleet could not hold *)
  st_lost_slots : int;  (** slots dead with no surviving copy anywhere *)
}

val create :
  ?redundancy:redundancy ->
  ?standby:(string * Remote_node.t * Usnet.Link.t) list ->
  ?quarantine_after:int ->
  ?probe_period:Time.span ->
  ?repair_period:Time.span ->
  ?repair_budget:int ->
  ?link_retries:int ->
  ?retx_timeout:Time.span ->
  ?repair_qos:Time.span * Time.span ->
  ?repair:bool ->
  seed:int ->
  nodes:(string * Remote_node.t * Usnet.Link.t) list ->
  Sim.t ->
  t
(** [create ~seed ~nodes sim] builds a fleet over [nodes] — each a
    [(name, node, link)] triple where [name] must be the link's
    {!Usnet.Link.name} (it keys the {!Inject} node-fault sites).
    [standby] nodes are fully wired (repair client, per-store
    clients) but start outside the placement ring, waiting for
    {!add_node} or a planned {!Inject.node_join_due}.

    Defaults: [redundancy = Replicated 2], [quarantine_after = 3]
    consecutive timeouts, [probe_period = 50ms], [repair_period =
    25ms], [repair_budget = 8] entries rebuilt per round,
    [link_retries = 3], [retx_timeout = 1ms] (the ack deadline and
    the backoff ladder's base), [repair_qos = (20ms, 2ms)] — the (p, s) guarantee admitted
    on every node link for the fleet's own probe/repair traffic —
    and [repair = true] (spawn the background repair process; tests
    that want to drive rounds by hand pass [false] and call
    {!repair_round}).

    Raises [Invalid_argument] on an empty node list, a replica count
    [< 1], an invalid [(k, m)] (see {!Ec.make}), [k + m] exceeding
    the member count, or a refused repair-client admission. A
    replica count is clamped to the member count; the stripe width
    is then fixed for the fleet's lifetime (membership changes swap
    nodes in and out, never resize stripes). *)

val admit_clients :
  t ->
  name:string ->
  period:Time.span ->
  slice:Time.span ->
  ?extra:bool ->
  ?queue_depth:int ->
  ?laxity:Time.span ->
  unit ->
  (Usnet.Link.client array, Usnet.Link.admit_error) result
(** Admit one client per node link (members and standby — a later
    join needs no new admission) under the same (p, s, x, l)
    guarantee, in node order — what {!attach} consumes. On a refusal
    the already-admitted clients are retired and the error returned. *)

val attach :
  ?mode:Cache.mode ->
  ?cache_pages:int ->
  ?label:string ->
  t ->
  clients:Usnet.Link.client array ->
  swap:Usbs.Sfs.swapfile ->
  unit ->
  store
(** Attach one domain: [clients] must be one admitted client per node
    in node order (see {!admit_clients}); pages are keyed at the
    nodes by the swapfile's name. Defaults: [mode = Write_through],
    [cache_pages = 32], [label = "fleet"]. *)

val backing : store -> Backing.t
(** The store as a {!Backing.t} — what [Sd_paged.create ?backing] and
    [Workload.Paging_app.start ?backing] take. *)

type fleet_cap = {
  fc_fleet : t;
  fc_clients : Usnet.Link.client array;  (** from {!admit_clients} *)
  fc_on_store : store -> unit;
      (** receives the attached store (for [stats] at teardown) *)
}

type Backing.cap += Fleet_tier of fleet_cap
(** The live capability the registered ["fleet"] backing consumes:
    [Backing.resolve "fleet:cache-pages=24"] yields a factory that,
    given a ctx holding one of these and a swapfile, {!attach}es the
    domain to the fleet and returns the store's {!backing}. *)

val placement : t -> owner:string -> slot:int -> int array
(** The node indices the rendezvous hash assigns this page's stripe,
    primary / shard 0 first — deterministic in [(seed, member names,
    owner, slot)] alone, so tests can assert same seed → same
    placement, and a membership change re-ranks with minimal
    movement. *)

val member_names : t -> string array
(** The nodes currently in the placement ring. *)

val add_node : t -> name:string -> unit
(** Admit a standby node into the placement ring; the repair loop
    migrates entries onto it (rendezvous re-ranking, budgeted).
    Raises [Invalid_argument] on an unknown name or a current
    member. *)

val retire_node : t -> name:string -> unit
(** Remove a member from the placement ring; it keeps answering
    reads while the repair loop drains its entries to the re-ranked
    placement. Raises [Invalid_argument] on an unknown name, a
    non-member, or if the remaining members would not fit a stripe. *)

val repair_round : t -> unit
(** One synchronous fault-poll/probe/repair round — what the
    background process runs each [repair_period]. Exposed for tests
    ([repair = false]). *)

val stats : t -> stats
val health : t -> node_health list
val store_stats : store -> store_stats

val storage_overhead : t -> float
(** Bytes held across the fleet's nodes relative to the pages
    tracked in the placement book: a replicated entry is one page, a
    shard [1/k] of one. Intact [Replicated 2] measures 2.0; intact
    [Erasure {k = 4; m = 2}] measures 1.5. [0.0] when nothing is
    tracked. *)

val books_balanced : t -> bool
(** [stores = acks], [lost_packets = retransmits + give_ups], and
    the mode's loss ledger:
    [lost_primaries = failovers + rebuilds + disk_fallbacks]
    (replicated) or
    [lost_shards = reconstructions + rebuilds + disk_fallbacks]
    (erasure). *)
