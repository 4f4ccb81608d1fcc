(** The tier front end: a local RAM cache over a lower layer over the
    disk durability floor.

    Every tiered backing ({!Store}: one remote node over one link;
    {!Fleet}: a replicated or erasure-coded node set) pages through
    this one front end. It owns:
    - the local RAM tier, an LRU over slot indices: evictions demote
      cold slots to the lower layer, reads promote them back;
    - run-coalesced disk-floor reads: consecutive slots the lower layer
      cannot serve become one SFS transaction;
    - the write modes ({!mode}); journaled commits always write through,
      so the disk is the durability floor in both;
    - the slot books: which slots the disk holds a valid copy of, and
      which slots are dead (no surviving copy anywhere).

    The lower layer is a record of closures ({!lower}) built once per
    store; each closure does the lower layer's own accounting, so the
    front end never sees links, nodes or stripes. *)

type mode =
  | Write_through
      (** non-journaled writes hit the disk before returning; the cache
          and the lower layer only ever hold clean copies *)
  | Write_back
      (** non-journaled writes land in the RAM tier and return
          immediately; dirty pages reach the lower layer or the disk on
          eviction. Journaled commits still write through — the
          crash-consistency story is mode-independent. *)

(** Front-end events, reported to the lower layer so it can mirror
    them as its own Obs metrics. *)
type event =
  | Cache_hit  (** a read served from the RAM tier *)
  | Promote  (** a read served by the lower layer, now cached *)
  | Miss  (** a read of a slot the lower layer never held (disk) *)
  | Demote  (** an eviction the lower layer accepted *)
  | Floor_lost
      (** a dirty eviction the lower layer refused and the disk then
          lost too: the slot is dead *)

type lower = {
  holds : int -> bool;
      (** the lower layer believes it holds this slot (a hint: {!fetch}
          may still find it gone) *)
  fetch : int -> on_disk:bool -> bool;
      (** pull a held slot back; [false] means the lower layer could not
          serve it and the front end falls back to the disk when
          [on_disk], else declares the slot dead *)
  demote : int -> dirty:bool -> bool;
      (** push an evicted slot the lower layer does not hold yet;
          [false] means refused, and a [dirty] slot then goes to the
          disk *)
  forget : int -> unit;
      (** the slot has fresh contents: drop every copy below the cache *)
  note : event -> unit;
}

type t

type counters = {
  cache_hits : int;  (** reads served from the RAM tier *)
  hits : int;  (** reads served by the lower layer (each one a promote) *)
  misses : int;  (** reads of slots the lower layer never held *)
  demotes : int;  (** evictions the lower layer accepted *)
  lost_slots : int;
      (** slots declared dead by a read that found no copy, or by a
          demotion the disk then lost. A write loss marks the slot dead
          without counting it here: the caller answers it. *)
}

val create :
  mode:mode ->
  cache_pages:int ->
  label:string ->
  swap:Usbs.Sfs.swapfile ->
  lower ->
  t
(** A front end over [swap] with room for [cache_pages] slots. Raises
    [Invalid_argument] when [cache_pages < 1]. *)

val counters : t -> counters

val backing : t -> Backing.t
(** The front end as a {!Backing.t}; its [label] is the store's label. *)

val register :
  name:string ->
  doc:string ->
  label:string ->
  cap:string ->
  (Backing.cap -> 'c option) ->
  ('c -> cache_pages:int -> label:string -> Usbs.Sfs.swapfile -> Backing.t) ->
  unit
(** Register a tiered backing on {!Backing.axis} under [name], with the
    shared parameters [cache-pages] (default 32) and [label] (default
    [label]). The factory finds its live capability in the ctx with the
    given selector — [cap] names it in the error when it is missing —
    and builds the store from it. *)
