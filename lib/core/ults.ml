open Engine

type thread = {
  mutable proc : Proc.t option;
  (* Parking protocol: a blocked thread stores its waker here; an
     unblock before the block is remembered as a pending wake so the
     notification cannot be lost. *)
  mutable waker : (unit -> unit) option;
  mutable pending_wake : bool;
}

type t = {
  dom : Domains.t;
  mutable live : (Proc.t * thread) list;
}

let create dom = { dom; live = [] }

let charge t =
  Domains.consume_cpu t.dom (Domains.cost t.dom).Hw.Cost.ults_schedule

let threads t = List.length t.live

let find_self t =
  let me = Proc.self () in
  match List.find_opt (fun (p, _) -> p == me) t.live with
  | Some (_, th) -> th
  (* API misuse: calling scheduler operations from a process this
     ULTS instance does not own. *)
  | None -> failwith "Ults.self: not inside a ULTS thread"

let fork t ~name body =
  charge t;
  let th = { proc = None; waker = None; pending_wake = false } in
  let p =
    Domains.spawn_thread t.dom ~name (fun () ->
        Fun.protect
          ~finally:(fun () ->
            t.live <- List.filter (fun (_, th') -> th' != th) t.live)
          body)
  in
  th.proc <- Some p;
  t.live <- (p, th) :: t.live;
  th

let yield t =
  charge t;
  Proc.yield ()

let block t =
  let th = find_self t in
  if th.pending_wake then th.pending_wake <- false
  else begin
    charge t;
    Proc.suspend (fun wake -> th.waker <- Some wake);
    th.waker <- None
  end

let unblock t th =
  charge t;
  match th.waker with
  | Some wake ->
    th.waker <- None;
    wake ()
  | None -> th.pending_wake <- true

let join _t th =
  match th.proc with Some p -> Proc.join p | None -> ()
