(** Binary min-heap keyed by integer priority.

    Used as the simulator's pending-event queue: keys are
    [(time, sequence-number)] pairs encoded by the caller so that ties
    break in insertion order. The implementation is a classic array
    heap with amortised O(log n) push/pop. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> key:int -> sub:int -> 'a -> unit
(** [push h ~key ~sub v] inserts [v] with primary priority [key];
    equal keys are ordered by the secondary priority [sub]. *)

val pop : 'a t -> (int * int * 'a) option
(** Remove and return the minimum element as [(key, sub, value)]. *)

val min_key : 'a t -> int
(** Primary key of the minimum element, without allocating. Raises
    [Invalid_argument] on an empty heap. *)

val take : 'a t -> 'a
(** Remove the minimum element and return its value, without
    allocating. Raises [Invalid_argument] on an empty heap. *)
