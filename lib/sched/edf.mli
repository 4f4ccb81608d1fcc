(** Atropos-style EDF accounting core.

    Shared by the CPU scheduler and the USD disk scheduler. Each client
    holds a QoS contract [(p, s, x)]: it may consume at most [s] of the
    resource in every period [p]; [x] marks eligibility for slack time.
    Deadlines are implicit (the end of the current period); allocation
    is replenished at each period boundary with {b roll-over
    accounting}: a client that ends a period with negative remaining
    time (it was allowed to complete an overrunning transaction) has
    the deficit deducted from its next allocation, so it cannot
    deterministically exceed its guarantee. *)

open Engine

type client = {
  id : int;
  cname : string;
  mutable period : Time.span;
  mutable slice : Time.span;
  mutable extra : bool;  (** x flag: eligible for slack *)
  mutable deadline : Time.t;  (** end of current period *)
  mutable remaining : Time.span;  (** may be negative (roll-over) *)
  mutable used_total : Time.span;  (** lifetime consumption *)
  mutable slack_total : Time.span;  (** lifetime slack consumption *)
}

type t

val create : ?rollover:bool -> unit -> t
(** [rollover] (default true) enables negative-remaining carry; the
    A-rollover ablation disables it. *)

val admit :
  t -> name:string -> period:Time.span -> slice:Time.span -> ?extra:bool ->
  now:Time.t -> unit -> (client, string) result
(** Admission control: refused when total utilisation Σ s/p would
    exceed 1. The first deadline is [now + period]. *)

val remove : t -> client -> unit

val clients : t -> client list
(** Live clients in admission order. Ids are handed out 0, 1, 2, ...
    in admission order, so callers may index their own per-client
    state by [id]. *)

val utilisation : t -> float

val set_boundary_hook :
  t ->
  (client -> unused:Time.span -> boundary:Time.t -> grants:int -> unit) ->
  unit
(** Observe period boundaries: the hook fires from {!replenish}
    whenever at least one boundary was crossed, with the first crossed
    deadline and the allocation left unspent at it ([unused], clamped
    at 0 — a roll-over deficit reports as 0). Used by the
    observability layer's QoS auditor; at most one hook per
    scheduler. *)

val replenish : t -> now:Time.t -> client -> int
(** Apply every period boundary at or before [now]; returns the number
    of new allocations granted (0 if the deadline is still ahead). A
    client idle across many periods is fast-forwarded without stacking
    allocations. *)

val replenish_due : t -> now:Time.t -> unit
(** Replenish exactly the clients whose deadline is at or before
    [now], in (deadline, id) order — the order the boundary hook sees
    them. Each is re-sited in the deadline order by an int memmove:
    O(k · n) word moves for k due clients, no scan of the others and
    no allocation. *)

val charge : client -> Time.span -> unit

val charge_slack : client -> Time.span -> unit
(** Account resource use that was granted as slack: lifetime totals
    only, the period allocation is not debited. *)

val has_budget : client -> bool
(** remaining > 0. *)

val select : ?only:(client -> bool) -> t -> now:Time.t -> client option
(** Earliest-deadline client with budget satisfying [only]. Callers
    must replenish first ({!replenish_due} or {!replenish}). Walks the
    live clients in place in (deadline, id) order, so ties on the
    deadline go to the earliest-admitted client — the same winner the
    seed's member-list fold produced. Cost: O(k) predicate calls, k
    the rank of the winner, and no allocation beyond the result. *)

val select_slack : ?only:(client -> bool) -> t -> now:Time.t -> client option
(** Earliest-deadline slack-eligible ([extra]) client satisfying
    [only], regardless of budget — used to hand out idle resource
    time. Same walk and cost as {!select}. *)

val earliest : ?only:(client -> bool) -> t -> client option
(** Earliest-deadline client satisfying [only], regardless of budget
    and slack eligibility. Same walk and cost as {!select}. *)

val next_deadline : t -> Time.t option
(** Earliest pending period boundary over all clients, O(1). *)

val pp_client : Format.formatter -> client -> unit
