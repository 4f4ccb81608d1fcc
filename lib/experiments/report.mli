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


val chart :
  ?height:int -> ?width:int -> unit_label:string ->
  (string * (float * float) list) list -> unit
(** Multi-series ASCII chart: each series is (label, [(x, y); ...]).
    Series are drawn with distinct marks ('*', 'o', '+', 'x', ...); the
    y-axis is scaled to the data, the x-axis to the common range. *)

val hist_table : ?unit_:string -> (string * Obs.Metrics.hist_view) list -> unit
(** One row per (label, histogram): count, mean, p50, p95, max. *)

val verdict : bool -> string -> unit
(** The closing line of a verdict-checked experiment:
    ["VERDICT: ok — claim"], or ["VERDICT: FAILED"]. *)

val audit_section : string -> Obs.Qos_audit.summary option -> unit
(** Print a QoS-audit verdict section; prints nothing for [None] (the
    run was not instrumented). *)

(** The one writer behind every experiment's JSON record.

    A record is a list of line groups: each group goes on its own line,
    indented two spaces, its pairs joined by [", "]. Values are written
    inline unless they say where their lines break ({!obj_lines},
    {!column}, {!rows}). *)
module Json : sig
  type t

  val int : int -> t
  val bool : bool -> t
  val null : t

  val str : string -> t
  (** Double quotes, backslashes and every byte below 0x20 are escaped
      (newline and tab by their short forms). *)

  val num : int -> float -> t
  (** [num digits f]: [digits] decimals, [null] for [nan]. *)

  val jf : float -> t
  val jf3 : float -> t
  (** [num 1] and [num 3]. *)

  val secs : Engine.Time.span -> t
  (** Whole seconds. *)

  val obj : (string * t) list -> t
  val list : t list -> t

  val obj_lines : indent:int -> (string * t) list list -> t
  (** An object whose line groups after the first start new lines
      indented [indent] spaces. *)

  val column : indent:int -> t list -> t
  (** A list whose items after the first start new lines indented
      [indent] spaces. *)

  val rows : indent:int -> t list -> t
  (** A record field's list with every item on its own line, indented
      [indent] spaces, and the closing bracket on its own line at the
      record's indentation. *)

  val embed : string -> t
  (** A {!record}, nested as written. *)

  val to_string : t -> string

  val record : (string * t) list list -> string
  (** No trailing newline. *)
end
