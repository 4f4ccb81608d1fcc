(** The scale experiment: many self-paging domains at once.

    Boots one machine and admits (by default) 128 paging applications,
    each with its own CPU contract, USD channel, swap extent and frame
    guarantee, cycling through sequential / random / hot-spot access
    patterns. Contracts are scaled so the fleet books ≈ 77 % of the
    CPU and ≈ 80 % of the disk regardless of the domain count, and
    physical memory is sized so every guarantee fits with only ~25 %
    headroom — admission is tight but honest.

    The run then asserts the self-paging story at scale:

    - a late-comer asking for more guaranteed frames than remain is
      refused with the typed [Frames.Admission_overcommit] error
      carrying the exact shortfall;
    - the QoS auditor attributes {e zero} violations to anybody —
      every admitted contract was honoured;
    - the frame books balance: free + Σ held = total, and the RamTab
      agrees frame-for-frame.

    This experiment is the acceptance harness for the O(1)/O(log n)
    hot-path work: member-list folds that were fine with five domains
    would make this run quadratic. *)

open Engine

type pattern_report = {
  pr_pattern : string;  (** ["seq"], ["rand"] or ["hot"] *)
  pr_domains : int;
  pr_measured : int;  (** domains that reached their measured loop *)
  pr_accesses : int;  (** page accesses in measured loops *)
  pr_mbit : float;  (** aggregate Mbit/s ([nan] if none measured) *)
}

type result = {
  seed : int;
  domains : int;
  duration : Time.span;
  patterns : pattern_report list;
  total_accesses : int;
  measured_domains : int;
  aggregate_mbit : float;
  refusal_requested : int;  (** guaranteed frames the late-comer asked for *)
  refusal_available : int;  (** what admission said remained *)
  refusal_message : string;  (** rendered [System.error_message] *)
  violations : int;  (** QoS-audit total — must be 0 *)
  audit : Obs.Qos_audit.summary;
  frames : Harness.frame_books;
  guaranteed_total : int;
  usd_utilisation : float;
  revocations : int;
}

val run : ?seed:int -> ?domains:int -> ?duration:Time.span -> unit -> result
(** Defaults: seed 42, 128 domains, 60 simulated seconds. Enables
    {!Obs} and resets collectors. Same seed ⇒ byte-identical
    {!to_json}. *)

val ok : result -> bool
(** Zero violations, balanced books, work actually done, and the
    late-comer refusal carried the exact shortfall. *)

val print : result -> unit
val to_json : result -> string
