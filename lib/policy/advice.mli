(** Application advice (madvise-style) to a paging policy.

    The paper's argument for self-paging is that a domain servicing its
    own faults is "free to choose its own paging policy"; advice is the
    channel by which the application half of a domain steers the policy
    half without a kernel in between. Hints are exactly that — a policy
    may ignore them — but the stock engines react as documented in
    {!Prefetch} and the paged stretch driver. *)

type t =
  | Sequential
      (** Accesses will sweep forward: open the read-ahead window wide. *)
  | Random
      (** No useful spatial locality: disable read-ahead (prefetched
          pages would mostly be waste). *)
  | Willneed of { page : int; npages : int }
      (** The range will be needed soon: schedule it for read-ahead at
          the next opportunity. *)
  | Dontneed of { page : int; npages : int }
      (** The range will not be needed again soon: the driver may evict
          it (cleaning dirty pages first) and reuse the frames. *)
