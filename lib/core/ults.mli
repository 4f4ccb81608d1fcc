(** User-level thread scheduler (ULTS).

    "Following this the user-level thread scheduler is entered which
    will select a thread to run." Threads inside a domain are
    scheduled entirely at user level: forking, yielding, blocking and
    unblocking are operations of this module, not of the kernel, and
    each scheduling decision costs the domain its own CPU time (the
    [ults_schedule] entry of the cost model).

    Threads are cooperative: control transfers at {!yield}, {!block}
    and the blocking operations of the runtime. The MMEntry's
    block-the-faulter / unblock-a-worker choreography (Figure 5) is
    exactly this interface. *)

type t

type thread

val create : Domains.t -> t
(** One scheduler per domain. *)

val fork : t -> name:string -> (unit -> unit) -> thread
(** Start a thread (costs one scheduling decision). *)

val yield : t -> unit
(** Re-enter the scheduler, letting other runnable work (of this and
    other domains) proceed; charges [ults_schedule]. *)

val block : t -> unit
(** Park the calling thread until somebody {!unblock}s it. *)

val unblock : t -> thread -> unit
(** Make a parked thread runnable again (idempotent for a thread that
    is not parked — the wake-up is remembered so a block/unblock race
    cannot lose a notification). *)

val join : t -> thread -> unit
val threads : t -> int
(** Live threads. *)
