(** User-safe receive demultiplexing.

    The Nemesis network work the paper cites demultiplexes incoming
    packets at the lowest level into {e per-flow} receive rings
    provided by the applications themselves (the rbufs scheme). The
    user-safe property: buffering for a flow is accounted to the flow's
    owner, so a slow or flooded receiver loses {e its own} packets when
    its ring fills — it cannot consume shared buffering or another
    flow's.

    [deliver] is the driver side (called per incoming frame); [recv]
    is the application side. *)

open Engine

type t

type flow

val create : Sim.t -> t

val open_flow : t -> name:string -> ?ring:int -> unit -> (flow, string) result
(** [ring] (default 32) slots, owned by the flow. Duplicate names are
    refused. *)

val close_flow : t -> flow -> unit

val deliver : t -> name:string -> bytes:int -> [ `Queued | `Dropped | `No_flow ]
(** Demultiplex one incoming frame to the named flow. *)

val recv : flow -> int
(** Next frame's size; blocks while the ring is empty. *)

val try_recv : flow -> int option

val received : flow -> int
(** Frames successfully queued. *)

val dropped : flow -> int
(** Frames dropped because this flow's ring was full. *)
