(** Shared experiment plumbing. *)

open Engine
open Core

val run_in_sim : System.t -> (unit -> 'a) -> 'a
(** Spawn [f] as a process in the system's simulator and drive the
    event loop until it returns. Fails if the simulation quiesces or
    exceeds its event budget first. *)

val fresh_system :
  ?page_table:[ `Linear | `Guarded ] -> ?usd_rollover:bool ->
  ?usd_laxity:bool -> ?main_memory_mb:int -> ?seed:int -> unit -> System.t

val bench_domain :
  System.t -> ?guarantee:int -> ?optimistic:int -> name:string -> unit ->
  System.domain
(** A domain with a generous CPU contract for micro-benchmarks; raises
    on admission failure. *)

val mean_span : Time.span list -> float
(** Mean in microseconds. *)

val pattern : experiment:string -> string -> Workload.Paging_app.pattern
(** Resolve a workload-pattern name through the registry
    ({!Workload.Paging_app.pattern_axis}), aborting the experiment
    with a did-you-mean hint on an unknown name — the one resolution
    route every experiment's pattern table shares. *)

val backing :
  experiment:string -> string -> Tier.Backing.ctx ->
  Usbs.Sfs.swapfile -> Tier.Backing.t
(** Resolve a backing spec (["tiered:cache-pages=24"], ["zram"], ...)
    through {!Tier.Backing.axis} into the [swapfile -> Backing.t]
    shape [Paging_app.start ?backing] takes, aborting the experiment
    on an unknown name or a missing capability. *)

val fail_verdict :
  experiment:string -> ?context:(string * string) list -> string -> 'a
(** Abort an experiment: print the experiment name, the message and
    each [(key, value)] context pair to stderr, then raise
    [Failure msg] — the message text is preserved verbatim, so
    call sites converted from bare [failwith] keep their legacy
    wording. *)

val violations_for : names:string list -> ids:int list -> int
(** QoS-audit violations attributable to a domain, by name (CPU/USD
    feeds label streams ["name"] / ["name.swap"]) or by domain id
    (frame-side feeds). *)

val rerun : (unit -> 'r) -> to_json:('r -> string) -> 'r * bool
(** The same-seed rerun every seeded verdict includes: run twice,
    return the first result and whether both runs' reports matched
    byte-for-byte. *)

(** {1 The tier-experiment scaffold}

    What the remote, failover and erasure experiments share: six
    paging domains over one disk — three disk-only bystanders and
    three tiered, one of each per access pattern — their per-domain
    report rows, and the hotspot benchmark cell split at T/2. *)

type domain_report = {
  dr_name : string;
  dr_pattern : string;  (** ["seq"], ["rand"] or ["hot"] *)
  dr_tiered : bool;
  dr_mbit : float;  (** sustained throughput ([nan] if warming) *)
  dr_accesses : int;
  dr_fault_mean_us : float;  (** mean fault-service latency, [nan] if none *)
  dr_fault_p95_us : float;
  dr_violations : int;  (** QoS violations attributed to the domain *)
}

val patterns : string list
(** The access patterns every tier experiment runs, one domain each:
    ["seq"], ["rand"], ["hot"]. *)

val tier_system : seed:int -> System.t
(** A fresh 2 MB machine with observability on and reset, and no
    fault plan armed. *)

val fault_hist : string -> float * float
(** [(mean, p95)] of a domain's fault-service latency in µs, [nan]s
    when it took no fault. *)

val start_app :
  experiment:string -> System.t -> name:string ->
  pattern:Workload.Paging_app.pattern ->
  ?backing:(Usbs.Sfs.swapfile -> Tier.Backing.t) -> unit ->
  Workload.Paging_app.t
(** One paging-in app under a 35/250 ms disk guarantee (six fit on
    one disk), 1 MB of virtual memory over 8 frames. *)

type mix_app

val start_mix :
  experiment:string -> System.t -> tier_prefix:string ->
  (string -> Usbs.Sfs.swapfile -> Tier.Backing.t) -> mix_app list
(** Start the six-domain mix: [disk_seq], [disk_rand], [disk_hot],
    then the tiered [tier_prefix ^ pattern] domains, each backed by the
    backing the function builds for its name. *)

val run_and_drain : System.t -> duration:Time.span -> unit
(** Run to [duration], disarm the fault plan, then drain 2 s so
    in-flight retransmissions and repair settle before the books are
    read. *)

val domain_reports : mix_app list -> domain_report list

val violations : tiered:bool -> domain_report list -> int
(** Violations summed over the tiered domains, or over the bystanders. *)

val domain_table : tier:string -> domain_report list -> unit
(** The per-domain table; [tier] names the tiered domains' backing. *)

val domains_json : domain_report list -> string
(** The per-domain rows as one JSON array. *)

val fleet_backing :
  experiment:string -> context:(string * string) list -> Tier.Fleet.t ->
  on_store:(Tier.Fleet.store -> unit) -> string -> Usbs.Sfs.swapfile ->
  Tier.Backing.t
(** Attach the named domain to [fleet] through ["fleet:cache-pages=24"],
    admitting its clients [name ^ ".tier"] on every node link under
    the tiered domains' (5 ms / 20 ms, extra, 2 ms lax) guarantee. *)

val store_totals : Tier.Fleet.store list -> Tier.Fleet.store_stats
(** Per-domain store counters summed. *)

(** One hotspot run against one backend, its fault latency split at
    T/2. *)
type hot_run = {
  h_accesses : int;
  h_mean_us : float;  (** whole-run mean fault latency *)
  h_half2_mean_us : float;  (** second-half window *)
  h_fleet_hits : int;
  h_fleet : Tier.Fleet.stats;  (** all zero for the disk cell *)
  h_overhead : float;  (** [nan] for the disk cell *)
  h_health : Tier.Fleet.node_health list;
}

val hot_run :
  experiment:string -> cell:string -> seed:int -> duration:Time.span ->
  fleet:(System.t -> Tier.Fleet.t * Tier.Remote_node.t) option ->
  wipe:bool -> hot_run
(** [fleet = None] pages on the disk alone; otherwise the function
    builds the fleet and names the node [wipe] empties at exactly
    T/2. *)
