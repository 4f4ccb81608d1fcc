open Engine

type 'a t = {
  depth : int;
  items : 'a Queue.t;
  senders : (unit -> unit) Queue.t;
  receivers : ('a -> unit) Queue.t;
}

let create ~depth =
  if depth <= 0 then invalid_arg "Io_channel.create: depth must be positive";
  { depth; items = Queue.create (); senders = Queue.create ();
    receivers = Queue.create () }

let is_empty t = Queue.is_empty t.items

let enqueue t v =
  match Queue.take_opt t.receivers with
  | Some wake -> wake v
  | None -> Queue.add v t.items

let try_send t v =
  if Queue.length t.items >= t.depth && Queue.is_empty t.receivers then false
  else begin
    enqueue t v;
    true
  end

let send t v =
  if not (try_send t v) then begin
    Proc.suspend (fun wake -> Queue.add wake t.senders);
    enqueue t v
  end

let try_recv t =
  match Queue.take_opt t.items with
  | Some v ->
    (match Queue.take_opt t.senders with Some wake -> wake () | None -> ());
    Some v
  | None -> None

let recv t =
  match try_recv t with
  | Some v -> v
  | None -> Proc.suspend (fun wake -> Queue.add wake t.receivers)
