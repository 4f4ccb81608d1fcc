(** Process-wide registry of named, per-domain metrics.

    A metric is identified by a [name] (dot-separated, e.g.
    ["fault.latency_us"]) and a [label] naming the domain, stream or
    address-space it belongs to ([""] for system-wide metrics). Three
    kinds exist:

    - {b counters}: monotonically increasing integers;
    - {b gauges}: last-written floats;
    - {b histograms}: fixed-bucket latency/size distributions with a
      running count, mean, min and max.

    Instrumentation writes through typed handles. A handle names one
    metric and is built once, where the object that emits it is
    built (a domain, a driver, a scheduler client); the hot path then
    updates a cell the handle already holds, with no string built,
    no key hashed and no word allocated.

    A handle registers its metric lazily, on its first write, so a
    handle that is never written leaves the registry as it was.
    {!reset} starts a new generation: a handle made before it
    re-resolves once, on its next write, and from then on writes
    into the new registry. Handles to the same name and label share
    one metric. A write raises [Invalid_argument] when its name and
    label are registered as another kind of metric. Callers still
    guard writes with {!Switch.enabled}, so the disabled path costs a
    single flag read. *)

type counter
type gauge
type histogram

val counter : ?label:string -> string -> counter
(** A handle on counter [name] under [label] ([""] by default). *)

val gauge : ?label:string -> string -> gauge

val histogram : ?label:string -> ?bounds:float array -> string -> histogram
(** [bounds] (strictly increasing bucket upper limits; default
    roughly log-spaced 1 µs .. 1 s) is only consulted when the
    histogram is first registered. *)

val tick : counter -> unit
(** Increment by one. *)

val bump : counter -> int -> unit
(** Increment by [n]. *)

val set : gauge -> float -> unit
(** Overwrite the gauge's value. *)

val record : histogram -> float -> unit
(** Add a sample. *)

val counter_value : ?label:string -> string -> int
(** 0 when the counter does not exist. *)

val sum_labels : string -> int
(** Sum of a counter over every label it is registered under —
    per-domain attribution rolled up into a total (e.g. all tenants'
    ["share.hit"] counters). 0 when no label has the counter. *)

val gauge_value : ?label:string -> string -> float option

(** An immutable view of a histogram, for reports and tests. *)
type hist_view = {
  hv_count : int;
  hv_mean : float;
  hv_min : float;  (** [nan] when empty *)
  hv_max : float;  (** [nan] when empty *)
  hv_buckets : (float * int) array;
      (** (upper bound, samples <= bound); the final bucket has bound
          [infinity] and holds the overflow. *)
}

val hist_view : ?label:string -> string -> hist_view option

val hist_quantile : hist_view -> float -> float
(** [hist_quantile v q] with [q] in [0,1]: the upper bound of the
    bucket holding the [q]-th sample — an upper estimate of the true
    quantile, [nan] when empty. *)

type value = Counter of int | Gauge of float | Histogram of hist_view

val labels_of : string -> string list
(** The labels under which [name] is registered, sorted. *)

val reset : unit -> unit
(** Drop every registered metric and start a new handle generation. *)

val to_json : unit -> string
(** The whole registry as a JSON array (no trailing newline). *)
