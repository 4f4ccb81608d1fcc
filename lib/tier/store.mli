(** The tiered backing store: local RAM cache → remote memory node → disk.

    A store sits between one paged driver and its swapfile. Pages the
    driver writes out land in the {!Cache} front end's local RAM tier;
    evictions demote cold pages over a {!Usnet.Link} to a
    {!Remote_node}; faults promote them back. This module is the
    front end's single-link lower layer: its transfers and their
    drop/delay books. The disk (the swapfile's SFS data path) stays
    the durability floor: journaled commits always write through, and
    when the remote node is full or the link gives up a demotion
    degrades to a plain disk write — tiering changes latency, never
    safety.

    Every byte that crosses the wire is charged to the owning domain's
    own link client, admitted under a (p,s,x,l) guarantee, so a
    thrashing tiered domain cannot steal network from its neighbours
    any more than it can steal disk. Packet drops and delays come from
    the seeded {!Inject.link} fault site for the link's name; drops
    are retransmitted a bounded number of times and then the transfer
    is abandoned ([`Link_lost]), falling back to the disk copy when
    one exists.

    Loss accounting is double-entry, checked by tests and the
    [remote] experiment:
    - [drops_seen = retransmits + drop_losses] — every observed drop
      is either retried or abandons its transfer;
    - [transfer_fails = clean_aborts + disk_fallbacks +
      link_lost_slots] — every abandoned transfer is answered exactly
      once: harmless (a disk copy already existed), served from disk,
      or declared lost (only possible for never-durable write-back
      pages). *)

open Engine

type t

type mode = Cache.mode =
  | Write_through
      (** non-journaled writes hit the disk before returning; the
          cache and remote node only ever hold clean copies *)
  | Write_back
      (** non-journaled writes land in the RAM tier and return
          immediately; dirty pages reach the remote node or the disk
          on eviction. Journaled commits still write through — the
          crash-consistency story is mode-independent. *)

type stats = {
  cache_hits : int;  (** reads served from the local RAM tier *)
  remote_hits : int;  (** reads served from the remote node *)
  remote_misses : int;  (** reads that had to go to disk *)
  promotes : int;  (** pages pulled remote → local cache *)
  demotes : int;  (** pages pushed local cache → remote *)
  remote_fulls : int;  (** demotions refused by a full node *)
  drops_seen : int;  (** packets the fault plan dropped *)
  delays_seen : int;  (** packets the fault plan delayed *)
  retransmits : int;  (** dropped packets that were retried *)
  retx_delays : Time.span list;
      (** the backoff actually slept before each retransmit, in
          chronological order — tests assert the {!backoff} ladder
          (1/2/4/8 ms at the default base) straight off the stats *)
  drop_losses : int;  (** transfers abandoned after the last retry *)
  transfer_fails : int;  (** page transfers that returned [`Link_lost] *)
  clean_aborts : int;  (** failed transfers that needed no answer *)
  disk_fallbacks : int;  (** failed transfers served from disk instead *)
  link_lost_slots : int;  (** slots lost to the link with no disk copy *)
  lost_slots : int;
      (** slots the tier declared dead: a read found no copy left, or
          the disk lost a demotion's fallback write. A write loss marks
          the slot dead without counting it here, because the caller
          answers it. *)
}

val create :
  ?mode:mode ->
  ?cache_pages:int ->
  ?link_retries:int ->
  ?retx_timeout:Time.span ->
  ?label:string ->
  link:Usnet.Link.t ->
  client:Usnet.Link.client ->
  remote:Remote_node.t ->
  swap:Usbs.Sfs.swapfile ->
  unit ->
  t
(** Defaults: [mode = Write_through], [cache_pages = 32] local RAM
    slots, [link_retries = 3] retransmissions per packet,
    [retx_timeout = 1ms], [label = "tier"]. The [client] must have
    been admitted on [link] by the owning domain; pages at the remote
    node are keyed by the swapfile's name. *)

val backoff : base:Time.span -> attempt:int -> Time.span
(** The deterministic retransmit ladder shared with [Sfs] and
    [Fleet]: the [attempt]-th retry (0-based) backs off
    [base * 2^attempt], bounded at [8 * base] — 1/2/4/8 ms at the
    default 1 ms base. *)

val backing : t -> Backing.t
(** The store as a {!Backing.t} — what [Sd_paged.create ?backing]
    takes. Its [label] is the store's label. *)

type tiered_cap = {
  tc_link : Usnet.Link.t;
  tc_client : Usnet.Link.client;
  tc_remote : Remote_node.t;
  tc_on_store : t -> unit;
      (** receives the created store (for [stats] at teardown) *)
}

type Backing.cap += Tiered of tiered_cap
(** The live capability the registered ["tiered"] backing consumes:
    [Backing.resolve "tiered:cache-pages=24"] yields a factory that,
    given a ctx holding one of these and a swapfile, builds a
    {!create}d store and returns its {!backing}. *)

val stats : t -> stats
(** Always-on plain counters (independent of {!Obs.enabled}); the
    same quantities are mirrored as [tier.*] Obs metrics labelled by
    the swapfile name when observability is on. *)

val books_balanced : t -> bool
(** Both double-entry equations above hold. *)
