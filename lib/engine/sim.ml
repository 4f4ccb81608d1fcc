type handle = { mutable cancelled : bool; fn : unit -> unit; live : int ref }

(* Events due at the instant they were scheduled ([after 0], or [at]
   with the current time) go to a FIFO ring of handles; every other
   event goes to the heap, keyed by (time, seq). A heap entry due now
   was pushed before the clock reached now, so its sequence number is
   below that of every ring entry: running heap entries due now first,
   then the ring, then advancing the clock is exactly (time, seq)
   order. The clock only advances when the ring is empty, so every
   ring entry is due now. *)
type t = {
  mutable clock : Time.t;
  queue : handle Heap.t;
  mutable seq : int;
  mutable ring : handle array; (* capacity is a power of two *)
  mutable ring_head : int;
  mutable ring_len : int;
  live : int ref; (* scheduled and not cancelled *)
}

(* Fills empty ring slots, so fired closures are not retained, and
   stands for "no event" in [next]. Never scheduled or cancelled. *)
let none = { cancelled = false; fn = ignore; live = ref 0 }

let create () =
  { clock = Time.zero; queue = Heap.create (); seq = 0;
    ring = Array.make 16 none; ring_head = 0; ring_len = 0; live = ref 0 }

let now t = t.clock

let ring_push t h =
  let cap = Array.length t.ring in
  if t.ring_len = cap then begin
    let bigger = Array.make (2 * cap) none in
    for i = 0 to cap - 1 do
      bigger.(i) <- t.ring.((t.ring_head + i) land (cap - 1))
    done;
    t.ring <- bigger;
    t.ring_head <- 0
  end;
  t.ring.((t.ring_head + t.ring_len) land (Array.length t.ring - 1)) <- h;
  t.ring_len <- t.ring_len + 1

let ring_pop t =
  let h = t.ring.(t.ring_head) in
  t.ring.(t.ring_head) <- none;
  t.ring_head <- (t.ring_head + 1) land (Array.length t.ring - 1);
  t.ring_len <- t.ring_len - 1;
  h

let at t time fn =
  if time < t.clock then
    invalid_arg
      (Format.asprintf "Sim.at: %a is in the past (now %a)" Time.pp time
         Time.pp t.clock);
  let h = { cancelled = false; fn; live = t.live } in
  if time = t.clock then ring_push t h
  else Heap.push t.queue ~key:time ~sub:t.seq h;
  t.seq <- t.seq + 1;
  incr t.live;
  h

let after t d fn = at t (Time.add t.clock d) fn

(* [live] is decremented exactly once per handle: either at [cancel]
   time, or when a non-cancelled handle is popped and executed. Firing
   marks the handle cancelled, so cancelling it afterwards is a no-op. *)
let cancel h =
  if not h.cancelled then begin
    h.cancelled <- true;
    decr h.live
  end

(* Remove the next event due at or before [limit] and make it current:
   cancelled entries are dropped on the way, and the clock moves to the
   event's time only once a live one is found. The ring runs once no
   heap entry is due now. Returns [none] when no event is due by
   [limit]. *)
let rec next t limit =
  let q = t.queue in
  if t.clock > limit then none
  else if t.ring_len > 0 && (Heap.is_empty q || Heap.min_key q > t.clock)
  then begin
    let h = ring_pop t in
    if h.cancelled then next t limit else h
  end
  else if (not (Heap.is_empty q)) && Heap.min_key q <= limit then begin
    let time = Heap.min_key q in
    let h = Heap.take q in
    if h.cancelled then next t limit
    else begin
      t.clock <- time;
      h
    end
  end
  else none

let fire t h =
  h.cancelled <- true;
  decr t.live;
  h.fn ()

let step t =
  let h = next t max_int in
  if h == none then false
  else begin
    fire t h;
    true
  end

let run ?until t =
  let limit = Option.value until ~default:max_int in
  let rec loop () =
    let h = next t limit in
    if h != none then begin
      fire t h;
      loop ()
    end
  in
  loop ();
  match until with
  | Some limit when t.clock < limit -> t.clock <- limit
  | _ -> ()

let pending t = !(t.live)
