(** Green processes on top of {!Sim}, implemented with OCaml effects.

    A process is a cooperative coroutine whose blocking operations
    ({!sleep}, {!suspend} and everything in {!Sync}) advance simulated
    time instead of real time. Processes must only perform blocking
    operations while running inside the simulator's event loop. *)

type t

exception Killed
(** Raised inside a process when it is resumed after {!kill}. *)

val spawn : ?name:string -> Sim.t -> (unit -> unit) -> t
(** [spawn sim body] creates a process that starts executing [body] at
    the current simulated instant (as a freshly scheduled event).
    Uncaught exceptions other than {!Killed} escape the event loop and
    abort the run — deliberate, so tests fail loudly. *)

val self : unit -> t
(** The currently running process. Raises [Failure] outside one. *)

val sim : t -> Sim.t

val current_sim : unit -> Sim.t
(** Simulator of the currently running process. *)

val sleep : Time.span -> unit
(** Block the current process for a simulated duration (>= 0). *)

val sleep_until : Time.t -> unit

val yield : unit -> unit
(** Reschedule the current process at the same instant, letting other
    events due now run first. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] blocks the current process; [register] receives
    a one-shot [wake] function that, when called (now or later),
    schedules the process to resume with the given value. Extra calls
    to [wake] are ignored. *)

val kill : t -> unit
(** Mark the process dead. If it is blocked, it is woken immediately
    and {!Killed} is raised at its suspension point. Killing a
    finished process is a no-op. *)

val is_alive : t -> bool

val on_terminate : t -> (unit -> unit) -> unit
(** Register a callback to run when the process finishes, is killed,
    or dies with an exception. Runs immediately if already dead. *)

val join : t -> unit
(** Block until the given process terminates. *)
