(** Plan-9-style name-space contexts.

    "A name-space scheme (based on Plan-9 contexts) allows
    implementations of interfaces to be published and applications to
    pick and choose between them. This may be termed plug and play
    extensibility; we note that it is implemented above the protection
    boundary." (§5.)

    A context maps names either to nested contexts or to published
    {!entry} values; [entry] is an extensible variant so each subsystem
    declares its own interface types (e.g. {!System.Driver_factory}).
    Paths are ['/']-separated; [bind] creates intermediate contexts on
    demand. *)

type t

type entry = ..

val create : unit -> t

val bind : t -> path:string -> entry -> (unit, string) result
(** Fails when a path component is empty, or when the path traverses a
    published value, or when the final name is already bound. *)

val lookup : t -> path:string -> entry option

val list : t -> path:string -> string list option
(** Names bound in a context (sorted); [None] if the path does not
    name a context. [""] lists the root. *)
