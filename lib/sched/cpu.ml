open Engine

type request = { mutable left : Time.span; wake : unit -> unit }

type client = {
  edf : Edf.client;
  pending : request Queue.t;
  mutable live : bool;
  (* Instant the pending queue last went non-empty; None while empty.
     The QoS auditor treats a client as backlogged over a period only
     when this predates the period's start. *)
  mutable backlogged_since : Time.t option;
  audit : Obs.Qos_audit.stream;
}

type t = {
  sim : Sim.t;
  edf : Edf.t;
  (* Clients indexed by EDF id, which [Edf.admit] hands out 0, 1, 2,
     ... (None once removed): the scheduler looks members up on every
     pick-next predicate call, so this must be O(1) and
     allocation-free. *)
  mutable members : client option array;
  kick : Sync.Waitq.t;
  mutable running : bool;
  (* Upper bound on one uninterrupted slack grant, so that budgeted
     clients never wait long behind a slack hog. *)
  slack_quantum : Time.span;
}

let find_member t e = t.members.(e.Edf.id)

(* Feed the QoS auditor at every period boundary: contracted slice vs
   what was actually consumed, and whether the client spent the whole
   period with work queued. *)
let audit_boundary t e ~unused ~boundary ~grants:_ =
  if !Obs.enabled then begin
    match find_member t e with
    | None -> ()
    | Some c ->
      let period_start = Time.add boundary (-e.Edf.period) in
      let backlogged =
        match c.backlogged_since with
        | Some since -> since <= period_start
        | None -> false
      in
      Obs.Qos_audit.boundary c.audit ~now:boundary ~entitled:e.Edf.slice
        ~got:(e.Edf.slice - unused) ~backlogged
  end

let create sim =
  let t =
    { sim; edf = Edf.create (); members = [||];
      kick = Sync.Waitq.create (); running = false; slack_quantum = Time.ms 1 }
  in
  Edf.set_boundary_hook t.edf (audit_boundary t);
  t

let used (c : client) = c.edf.Edf.used_total

let has_pending (c : client) = not (Queue.is_empty c.pending)

let rec scheduler_loop t =
  let now = Sim.now t.sim in
  Edf.replenish_due t.edf ~now;
  let runnable e =
    match find_member t e with Some c -> c.live && has_pending c | None -> false
  in
  (* The earliest client with work queued settles the common cases in
     one walk: nobody has work, or it has budget and wins the EDF
     pick outright. *)
  match Edf.earliest t.edf ~only:runnable with
  | None ->
    Sync.Waitq.wait t.kick;
    scheduler_loop t
  | Some first when Edf.has_budget first -> run_chunk t first ~slack:false
  | Some first -> (
    match Edf.select t.edf ~only:runnable ~now with
    | Some e -> run_chunk t e ~slack:false
    | None -> (
      match Edf.select_slack t.edf ~only:runnable ~now with
      | Some e -> run_chunk t e ~slack:true
      | None ->
        (* Wait for work, but never past the next period boundary of
           a client that still has queued work (its budget may return
           then). *)
        let span = max 0 (Time.diff first.Edf.deadline now) in
        ignore (Sync.Waitq.wait_timeout t.kick span);
        scheduler_loop t))

and run_chunk t e ~slack =
  match find_member t e with
  | None -> scheduler_loop t
  | Some c ->
    let req = Queue.peek c.pending in
    let budget_cap =
      if slack then t.slack_quantum else max 0 e.Edf.remaining
    in
    let chunk = min req.left budget_cap in
    let chunk = max chunk 1 in
    Proc.sleep chunk;
    if slack then Edf.charge_slack e chunk else Edf.charge e chunk;
    req.left <- req.left - chunk;
    if req.left <= 0 then begin
      ignore (Queue.pop c.pending);
      if Queue.is_empty c.pending then c.backlogged_since <- None;
      req.wake ()
    end;
    scheduler_loop t

let ensure_running t =
  if not t.running then begin
    t.running <- true;
    ignore (Proc.spawn ~name:"cpu-sched" t.sim (fun () -> scheduler_loop t))
  end

let admit t ~name ~period ~slice ?(extra = true) () =
  match Edf.admit t.edf ~name ~period ~slice ~extra ~now:(Sim.now t.sim) () with
  | Error _ as e -> e
  | Ok e ->
    let c =
      { edf = e; pending = Queue.create (); live = true;
        backlogged_since = None;
        audit = Obs.Qos_audit.cpu_stream ~dom:name }
    in
    if e.Edf.id = Array.length t.members then
      t.members <- Array.append t.members (Array.make (e.Edf.id + 1) None);
    t.members.(e.Edf.id) <- Some c;
    ensure_running t;
    Ok c

let remove t (c : client) =
  c.live <- false;
  Edf.remove t.edf c.edf;
  t.members.(c.edf.Edf.id) <- None;
  Sync.Waitq.broadcast t.kick

let consume t (c : client) span =
  if span < 0 then invalid_arg "Cpu.consume: negative span";
  if span = 0 then Ok ()
  else if not c.live then Error `Removed
  else begin
    Proc.suspend (fun wake ->
        if Queue.is_empty c.pending then
          c.backlogged_since <- Some (Sim.now t.sim);
        Queue.add { left = span; wake = (fun () -> wake ()) } c.pending;
        Sync.Waitq.broadcast t.kick);
    Ok ()
  end
