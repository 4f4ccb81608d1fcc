open Engine

type client = {
  id : int;
  cname : string;
  mutable period : Time.span;
  mutable slice : Time.span;
  mutable extra : bool;
  mutable deadline : Time.t;
  mutable remaining : Time.span;
  mutable used_total : Time.span;
  mutable slack_total : Time.span;
}

(* Ids are handed out 0, 1, 2, ... by [admit], so [table] is a dense
   client table indexed by id, and [alive] says which of its first
   [admitted] slots are still members. Walking it in id order is
   walking the members in admission order (observable through traces
   and the boundary hook, so it must match the seed's append-only
   list).

   The pick-next paths read [order]: the ids of the live clients,
   sorted by (deadline, id), in its first [live] slots. The order
   reproduces the seed fold's tie-break exactly: ids follow admission
   order and the fold kept the first-admitted client on equal
   deadlines. It holds ints, so re-siting a client after a deadline
   change is a plain memmove, and a scan in place allocates
   nothing. *)
type t = {
  mutable table : client array;
  mutable alive : bool array;
  mutable admitted : int;
  mutable order : int array;
  mutable live : int;
  rollover : bool;
  mutable on_boundary :
    (client -> unused:Time.span -> boundary:Time.t -> grants:int -> unit)
    option;
}

let create ?(rollover = true) () =
  {
    table = [||];
    alive = [||];
    admitted = 0;
    order = [||];
    live = 0;
    rollover;
    on_boundary = None;
  }

let set_boundary_hook t f = t.on_boundary <- Some f

let clients t =
  let l = ref [] in
  for id = t.admitted - 1 downto 0 do
    if t.alive.(id) then l := t.table.(id) :: !l
  done;
  !l

let utilisation t =
  let u = ref 0.0 in
  for id = 0 to t.admitted - 1 do
    if t.alive.(id) then begin
      let c = t.table.(id) in
      u := !u +. (float_of_int c.slice /. float_of_int c.period)
    end
  done;
  !u

let client_at t i = t.table.(t.order.(i))

(* First slot in [lo, hi) whose client sorts at or after
   (deadline, id). *)
let rec lower_bound t ~lo ~hi ~deadline ~id =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    let c = client_at t mid in
    if c.deadline < deadline || (c.deadline = deadline && c.id < id) then
      lower_bound t ~lo:(mid + 1) ~hi ~deadline ~id
    else lower_bound t ~lo ~hi:mid ~deadline ~id

(* Slot of a live client, found under its current deadline. *)
let slot_of t c =
  lower_bound t ~lo:0 ~hi:t.live ~deadline:c.deadline ~id:c.id

let grow a len fill =
  if len < Array.length a then a
  else begin
    let b = Array.make (max 16 (2 * len)) fill in
    Array.blit a 0 b 0 len;
    b
  end

let admit t ~name ~period ~slice ?(extra = false) ~now () =
  if period <= 0 || slice <= 0 then Error "period and slice must be positive"
  else if slice > period then Error "slice exceeds period"
  else begin
    let u = utilisation t +. (float_of_int slice /. float_of_int period) in
    if u > 1.0 +. 1e-9 then
      Error (Printf.sprintf "admission refused: utilisation %.3f > 1" u)
    else begin
      let c =
        { id = t.admitted; cname = name; period; slice; extra;
          deadline = Time.add now period; remaining = slice;
          used_total = 0; slack_total = 0 }
      in
      t.table <- grow t.table t.admitted c;
      t.alive <- grow t.alive t.admitted false;
      t.table.(c.id) <- c;
      t.alive.(c.id) <- true;
      t.admitted <- t.admitted + 1;
      t.order <- grow t.order t.live 0;
      let s = slot_of t c in
      Array.blit t.order s t.order (s + 1) (t.live - s);
      t.order.(s) <- c.id;
      t.live <- t.live + 1;
      Ok c
    end
  end

let remove t c =
  if t.alive.(c.id) then begin
    t.alive.(c.id) <- false;
    let s = slot_of t c in
    Array.blit t.order (s + 1) t.order s (t.live - s - 1);
    t.live <- t.live - 1
  end

let replenish t ~now c =
  if c.deadline > now then 0
  else begin
    let first_boundary = c.deadline in
    let unused = max 0 c.remaining in
    let slot = if t.alive.(c.id) then slot_of t c else -1 in
    let grants = ref 0 in
    while c.deadline <= now do
      incr grants;
      let carry = if t.rollover && c.remaining < 0 then c.remaining else 0 in
      c.remaining <- c.slice + carry;
      c.deadline <- Time.add c.deadline c.period
    done;
    (* A client that slept across several periods does not stack
       allocations: each boundary above reset [remaining] to at most
       one slice, and the deadline caught up one period at a time.
       The deadline only moved later, so the client's new slot lies
       among those after its old one: shift them down by one. *)
    if slot >= 0 then begin
      let s =
        lower_bound t ~lo:(slot + 1) ~hi:t.live ~deadline:c.deadline ~id:c.id
      in
      Array.blit t.order (slot + 1) t.order slot (s - slot - 1);
      t.order.(s - 1) <- c.id
    end;
    (match t.on_boundary with
    | Some f -> f c ~unused ~boundary:first_boundary ~grants:!grants
    | None -> ());
    !grants
  end

(* [replenish] re-sites the front client past [now], so each due
   client is visited exactly once, in (deadline, id) order. *)
let rec replenish_due t ~now =
  if t.live > 0 then begin
    let c = client_at t 0 in
    if c.deadline <= now then begin
      ignore (replenish t ~now c);
      replenish_due t ~now
    end
  end

let charge c span =
  c.remaining <- c.remaining - span;
  c.used_total <- c.used_total + span

let charge_slack c span =
  c.used_total <- c.used_total + span;
  c.slack_total <- c.slack_total + span

let has_budget c = c.remaining > 0

type want = Budget | Slack | Any

(* Walk the live clients in (deadline, id) order from slot [i] for
   the first one [want] admits that also satisfies [only]. *)
let rec scan t want only i =
  if i >= t.live then None
  else
    let c = client_at t i in
    let eligible =
      match want with
      | Budget -> has_budget c
      | Slack -> c.extra
      | Any -> true
    in
    if eligible && only c then Some c else scan t want only (i + 1)

let select ?(only = fun _ -> true) t ~now:_ = scan t Budget only 0
let select_slack ?(only = fun _ -> true) t ~now:_ = scan t Slack only 0
let earliest ?(only = fun _ -> true) t = scan t Any only 0

let next_deadline t =
  if t.live = 0 then None else Some (client_at t 0).deadline
