open Engine

type flow = {
  fname : string;
  ring : int Queue.t;
  ring_size : int;
  receivers : (int -> unit) Queue.t;
  mutable received : int;
  mutable dropped : int;
  mutable open_ : bool;
}

type t = { flows : (string, flow) Hashtbl.t }

let create _sim = { flows = Hashtbl.create 8 }

let open_flow t ~name ?(ring = 32) () =
  if ring <= 0 then Error "ring size must be positive"
  else if Hashtbl.mem t.flows name then
    Error (Printf.sprintf "flow %S already open" name)
  else begin
    let f =
      { fname = name; ring = Queue.create (); ring_size = ring;
        receivers = Queue.create (); received = 0; dropped = 0; open_ = true }
    in
    Hashtbl.replace t.flows name f;
    Ok f
  end

let close_flow t f =
  if f.open_ then begin
    f.open_ <- false;
    Hashtbl.remove t.flows f.fname
  end

let deliver t ~name ~bytes =
  match Hashtbl.find_opt t.flows name with
  | None -> `No_flow
  | Some f ->
    (match Queue.take_opt f.receivers with
    | Some wake ->
      f.received <- f.received + 1;
      wake bytes;
      `Queued
    | None ->
      if Queue.length f.ring >= f.ring_size then begin
        (* User-safe: the flow's own ring is full; the loss is the
           flow owner's, nobody else's. *)
        f.dropped <- f.dropped + 1;
        `Dropped
      end
      else begin
        Queue.add bytes f.ring;
        f.received <- f.received + 1;
        `Queued
      end)

let try_recv f = Queue.take_opt f.ring

let recv f =
  match Queue.take_opt f.ring with
  | Some bytes -> bytes
  | None -> Proc.suspend (fun wake -> Queue.add wake f.receivers)

let received f = f.received
let dropped f = f.dropped
