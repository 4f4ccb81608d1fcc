(** Plain-text report helpers shared by the experiment printers. *)

val heading : string -> unit

val table : header:string list -> string list list -> unit
(** Column-aligned table with a header row. *)

val fopt : float option -> string
(** "n/a" for [None], two decimals otherwise. *)

val f2 : float -> string
val f1 : float -> string

(** {1 NaN-aware cells}

    A [nan] measurement means "nothing measured yet": a throughput
    still warming up, a latency with no samples. *)

val mbit_s : float -> string
(** Table cell: ["warming"] for [nan], else two decimals. *)

val us : float -> string
(** Table cell: ["-"] for [nan], else whole microseconds. *)

val jf : float -> string
(** JSON number: [null] for [nan], else one decimal. *)

val jf3 : float -> string
(** JSON number: [null] for [nan], else three decimals. *)

val chart :
  ?height:int -> ?width:int -> unit_label:string ->
  (string * (float * float) list) list -> unit
(** Multi-series ASCII chart: each series is (label, [(x, y); ...]).
    Series are drawn with distinct marks ('*', 'o', '+', 'x', ...); the
    y-axis is scaled to the data, the x-axis to the common range. *)

val hist_table : ?unit_:string -> (string * Obs.Metrics.hist_view) list -> unit
(** One row per (label, histogram): count, mean, p50, p95, max. *)

val audit_section : string -> Obs.Qos_audit.summary option -> unit
(** Print a QoS-audit verdict section; prints nothing for [None] (the
    run was not instrumented). *)
