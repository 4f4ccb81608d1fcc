(** Discrete-event simulation core.

    A [Sim.t] owns the simulated clock and a priority queue of pending
    callbacks. Events scheduled for the same instant fire in the order
    they were scheduled, which makes every run deterministic. An event
    scheduled for the current instant (such as [after sim 0]) costs one
    handle and no heap operation. *)

type t

type handle
(** A scheduled event; may be cancelled before it fires. *)

val create : ?seed:int -> unit -> t
(** Fresh simulator with clock at {!Time.zero}. [seed] (default 42)
    initialises the root random stream. *)

val now : t -> Time.t

val rng : t -> Rng.t
(** The simulator's root random stream. Subsystems should {!Rng.split}
    it rather than share it. *)

val at : t -> Time.t -> (unit -> unit) -> handle
(** [at sim t f] schedules [f] to run at absolute time [t]. Scheduling
    in the past raises [Invalid_argument]. *)

val after : t -> Time.span -> (unit -> unit) -> handle
(** [after sim d f] = [at sim (now + d) f]. *)

val cancel : handle -> unit
(** Prevent a pending event from firing; idempotent. *)

val run : ?until:Time.t -> t -> unit
(** Run the event loop until the queue drains, or until the clock would
    pass [until] (the clock is left at [until] in that case). The clock
    never moves backwards: an [until] earlier than now runs nothing. *)

val step : t -> bool
(** Execute the single next event. Returns [false] if the queue was
    empty. *)

val pending : t -> int
(** Number of scheduled (uncancelled) events. *)
