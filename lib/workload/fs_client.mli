(** The file-system client of Figure 9.

    Reads data sequentially from the file-system partition (a different
    part of the same disk as the swap files), pipelining a significant
    number of transaction requests — trading buffer space against disk
    latency — each the size of a page for homogeneity with the paging
    clients. *)

open Engine

type t

val start :
  Core.System.t -> name:string -> qos:Usbs.Qos.t -> ?depth:int ->
  ?sample_period:Time.span -> unit -> (t, string) result
(** [depth] (default 16) outstanding transactions. *)

val sampler : t -> Sampler.t
