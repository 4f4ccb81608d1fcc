(** Shared experiment plumbing. *)

open Engine
open Core

(** {1 Setup failures}

    An experiment that cannot build its world has no verdict to
    report: every setup error ends in {!fail_verdict}. *)

val fail_verdict :
  experiment:string -> ?context:(string * string) list -> string -> 'a
(** Abort an experiment: print the experiment name, the message and
    each [(key, value)] context pair to stderr, then raise
    [Failure msg] with the message text unchanged. *)

val expect :
  experiment:string -> ?context:(string * string) list -> ('e -> string) ->
  ('a, 'e) result -> 'a
(** [expect ~experiment msg r]: the [Ok] value, or {!fail_verdict}
    with [msg e] for [Error e]. *)

val run_in_sim : System.t -> (unit -> 'a) -> 'a
(** Spawn [f] as a process in the system's simulator and drive the
    event loop until it returns. Fails if the simulation quiesces or
    exceeds its event budget first. *)

val fresh_system :
  ?page_table:[ `Linear | `Guarded ] -> ?usd_rollover:bool ->
  ?usd_laxity:bool -> ?main_memory_mb:int -> ?seed:int -> unit -> System.t

val observed_system : System.config -> System.t
(** The prologue of every seeded verdict: observability on and reset,
    no fault plan armed, then a fresh system. *)

val memory_mb : guaranteed:int -> extra:int -> int
(** Main memory for [guaranteed] frames plus 25 % headroom and [extra]
    optimistic frames, in whole megabytes (at least 2). *)

val flat_contracts : int -> Time.span * Usbs.Qos.t
(** [(cpu_slice, disk_qos)] for each of [n] domains sharing one
    machine: about 0.77 of the CPU and 0.8 of the disk booked in all,
    with the disk period growing with [n] so every slice spans whole
    transactions. *)

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
(** Resolve a backing spec (["fleet:cache-pages=24"], ["zram"], ...)
    through {!Tier.Backing.axis} into the [swapfile -> Backing.t]
    shape [Paging_app.start ?backing] takes, aborting the experiment
    on an unknown name or a missing capability. *)

val app_violations : string -> Workload.Paging_app.t -> int
(** QoS-audit violations attributable to a paging app, by name (CPU/USD
    feeds label streams ["name"] / ["name.swap"]) or by domain id
    (frame-side feeds). *)

(** The frame books at the end of a run. *)
type frame_books = {
  fb_total : int;
  fb_free : int;
  fb_held : int;  (** Σ held over live domains, plus the services' *)
  fb_owned : int;  (** RamTab frames with an owner *)
  fb_balanced : bool;  (** free + held = total, and owned = held *)
}

val frame_books : System.t -> extra_held:int -> frame_books
(** [extra_held]: frames held by service clients that are not domains. *)

val print_frame_books : frame_books -> unit
(** One line: free + held = total, RamTab owners, balanced or not. *)

val ratio : float -> float -> float
(** [ratio a b] = [a /. b], or [nan] when either is [nan] or [b <= 0]. *)

val rerun : (unit -> 'r) -> to_json:('r -> string) -> 'r * bool
(** The same-seed rerun every seeded verdict includes: run twice,
    return the first result and whether both runs' reports matched
    byte-for-byte. *)

(** {1 Paging apps and their report rows}

    What the seeded verdicts share: the paging-in app, its per-domain
    report row, and — for remote, failover and erasure — six paging
    domains over one disk (three disk-only bystanders and three
    tiered, one of each per access pattern) and the hotspot benchmark
    cell split at T/2. *)

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
(** {!observed_system} on a 2 MB machine. *)

val pooled_faults : string list -> int * float * float
(** Fault-service latency pooled over the labelled domains: the fault
    count, the mean and the worst p95 in µs, [nan]s when none took a
    fault. *)

val start_app :
  experiment:string -> System.t -> slice:Time.span -> name:string ->
  ?pattern:Workload.Paging_app.pattern -> ?policy:Policy.Spec.t ->
  ?spare_pages:int -> ?optimistic:int ->
  ?backing:(Usbs.Sfs.swapfile -> Tier.Backing.t) -> unit ->
  Workload.Paging_app.t
(** One paging-in app under a [slice]/250 ms disk guarantee, 1 MB of
    virtual memory over 8 frames and 4 MB of swap; the optional
    arguments pass through to {!Workload.Paging_app.start}. *)

val domain_report :
  pattern:string -> tiered:bool -> string -> Workload.Paging_app.t ->
  domain_report
(** The named app's report row. *)

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

val domains_json : domain_report list -> Report.Json.t
(** The per-domain rows as one inline JSON list. *)

val fleet_backing :
  experiment:string -> context:(string * string) list -> Tier.Fleet.t ->
  on_store:(Tier.Fleet.store -> unit) -> string -> Usbs.Sfs.swapfile ->
  Tier.Backing.t
(** Attach the named domain to [fleet] through ["fleet:cache-pages=24"],
    admitting its clients [name ^ ".tier"] on every node link under
    the tiered domains' (5 ms / 20 ms, extra, 2 ms lax) guarantee. *)

val store_totals : Tier.Fleet.store list -> Tier.Fleet.store_stats
(** Per-domain store counters summed. *)

val stores_json : Tier.Fleet.store_stats -> Report.Json.t
(** Summed store counters as the ["stores"] JSON object. *)

(** One hotspot run against one backend, its fault latency split at
    T/2: a cell of the failover and erasure benchmarks. *)
type hot_run = {
  h_cell : string;  (** the cell's name *)
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
