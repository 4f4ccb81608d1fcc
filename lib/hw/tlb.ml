type slot = { mutable asn : int; mutable vpn : int; mutable pte : Pte.t }

(* Obs hit/miss counters for one address space. *)
type asn_obs = { hit_c : Obs.Metrics.counter; miss_c : Obs.Metrics.counter }

type t = {
  slots : slot array;
  mutable next : int; (* FIFO replacement pointer *)
  mutable hits : int;
  mutable misses : int;
  (* Indexed by asn and grown on demand. Domains interleave on the one
     TLB, so each address space keeps its own handles. *)
  mutable by_asn : asn_obs option array;
}

let empty_vpn = -1

let create ?(entries = 64) () =
  { slots = Array.init entries (fun _ -> { asn = 0; vpn = empty_vpn; pte = Pte.absent });
    next = 0; hits = 0; misses = 0; by_asn = [||] }

(* Observability: per-address-space hit/miss counters; label "asn<N>"
   because the TLB knows domains only by their address-space number.
   The label is built the first time an asn is looked up with Obs on. *)
let asn_obs t asn =
  if asn >= Array.length t.by_asn then begin
    let bigger = Array.make (max (asn + 1) (2 * Array.length t.by_asn)) None in
    Array.blit t.by_asn 0 bigger 0 (Array.length t.by_asn);
    t.by_asn <- bigger
  end;
  match t.by_asn.(asn) with
  | Some o -> o
  | None ->
    let label = Printf.sprintf "asn%d" asn in
    let o =
      { hit_c = Obs.Metrics.counter ~label "tlb.hits";
        miss_c = Obs.Metrics.counter ~label "tlb.misses" }
    in
    t.by_asn.(asn) <- Some o;
    o

let count_lookup t ~asn ~hit =
  if !Obs.enabled then begin
    let o = asn_obs t asn in
    Obs.Metrics.tick (if hit then o.hit_c else o.miss_c)
  end

(* A loop rather than a local recursive scan, which would allocate its
   closure on every lookup: a miss allocates nothing. *)
let lookup t ~asn ~vpn =
  let slots = t.slots in
  let n = Array.length slots in
  let i = ref 0 in
  while
    !i < n
    &&
    let s = slots.(!i) in
    not (s.vpn = vpn && s.asn = asn)
  do
    incr i
  done;
  if !i >= n then begin
    t.misses <- t.misses + 1;
    count_lookup t ~asn ~hit:false;
    None
  end
  else begin
    t.hits <- t.hits + 1;
    count_lookup t ~asn ~hit:true;
    Some slots.(!i).pte
  end

let insert t ~asn ~vpn pte =
  (* Overwrite an existing entry for the same page if present,
     otherwise take the FIFO victim. *)
  let n = Array.length t.slots in
  let rec find i = if i >= n then None else
      let s = t.slots.(i) in
      if s.vpn = vpn && s.asn = asn then Some s else find (i + 1)
  in
  let s =
    match find 0 with
    | Some s -> s
    | None ->
      let s = t.slots.(t.next) in
      t.next <- (t.next + 1) mod n;
      s
  in
  s.asn <- asn;
  s.vpn <- vpn;
  s.pte <- pte

let invalidate t ~vpn =
  Array.iter
    (fun s -> if s.vpn = vpn then begin s.vpn <- empty_vpn; s.pte <- Pte.absent end)
    t.slots

let hits t = t.hits
let misses t = t.misses
