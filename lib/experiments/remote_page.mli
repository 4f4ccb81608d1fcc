(** Remote paging: a disaggregated memory tier under QoS and link chaos.

    A mixed fleet pages over the same disk: three disk-only domains
    and three tiered domains (local RAM cache → remote memory node →
    disk), one of each per access pattern (sequential, random,
    hotspot). The remote node is a one-node [Replicated 1]
    {!Tier.Fleet}; the tiered domains' page transfers ride its shared
    {!Usnet.Link} under per-domain [(p, s, x, l)] guarantees. Halfway
    through, a seeded fault plan starts dropping and delaying packets
    on that link.

    The experiment passes when the chaos stays bought-and-paid-for:
    the disk-only bystanders see zero QoS violations, the fleet's
    double-entry books balance (its packet ledger included), every
    packet the fleet lost is a drop the fault plan dealt, the tiered
    domains survive on the disk fallback, and a second same-seed run
    reproduces the report byte-for-byte. *)

open Engine

type result = {
  seed : int;
  duration : Time.span;
  domains : Harness.domain_report list;
  fleet : Tier.Fleet.stats;  (** the one-node fleet's books *)
  stores : Tier.Fleet.store_stats;  (** summed over the three tiered stores *)
  books_balanced : bool;
  remote_used : int;
  remote_capacity : int;
  link_drops : int;
  link_delays : int;
  link_utilisation : float;
  bystander_violations : int;  (** disk-only domains; must be 0 *)
  tiered_violations : int;
  deterministic : bool;  (** second same-seed run matched byte-for-byte *)
  audit : Obs.Qos_audit.summary;
}

val run : ?seed:int -> ?duration:Time.span -> unit -> result
val ok : result -> bool
val print : result -> unit
val to_json : result -> string

type bench_result

val bench : ?seed:int -> ?duration:Time.span -> unit -> bench_result
(** Fault-free measurement: each pattern runs twice in its own fresh
    system — disk-only, then tiered — and reports throughput and
    fault-service latency side by side, with the hotspot speedup
    (disk-only mean fault latency over tiered). *)

val bench_print : bench_result -> unit
val bench_to_json : bench_result -> string
