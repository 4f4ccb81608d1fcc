(** Inter-domain communication: typed, same-machine RPC.

    Nemesis modules "export one or more strongly-typed interfaces" and
    invoke non-local ones through marshalled procedure calls. This
    module provides that shape: a server domain {!offer}s a handler; a
    client {!call}s through a proxy. The call costs the client one IDC
    round trip from its own CPU contract, runs the handler on the
    server's {!Entry} (so the server's notification handler / worker
    split and the server's own CPU contract apply), and blocks the
    caller until the reply.

    Calling from inside an activation handler is forbidden and
    enforced, exactly as the paper requires. *)

type ('req, 'rep) t

val offer :
  Domains.t -> name:string -> ?workers:int -> ('req -> 'rep) -> ('req, 'rep) t
(** Export a service: the handler runs on worker threads of the
    offering domain ([workers] defaults to 1, serialising requests —
    more workers give concurrent service). *)

val call : Domains.t -> ('req, 'rep) t -> 'req -> 'rep
(** Invoke from a (worker) thread of the calling domain. Raises
    [Failure] inside an activation handler, or if the server domain
    has died. *)

val calls_served : ('req, 'rep) t -> int
