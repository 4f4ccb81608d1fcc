open Engine
open Sched
open Disk

type op = Read | Write

type media = { bad_lba : int; persistent : bool }
type txn_error = Media of media | Cancelled
type status = (unit, txn_error) result

type event =
  | Txn of { client : string; op : op; lba : int; nblocks : int;
             dur : Time.span }
  | Txn_error of { client : string; op : op; lba : int; nblocks : int;
                   dur : Time.span; media : media }
  | Alloc of { client : string }
  | Lax of { client : string; dur : Time.span }
  | Slack of { client : string; op : op; dur : Time.span }

type request = {
  op : op;
  lba : int;
  nblocks : int;
  completion : status Sync.Ivar.t;
}

type client = {
  edf : Edf.client;
  cqos : Qos.t;
  channel : request Io_channel.t;
  (* Lax allowance left in the current runnable stint; reset by each
     transaction and by each new allocation. *)
  mutable lax_left : Time.span;
  mutable idled : bool; (* lax expired: off the runnable queue until
                           the next allocation *)
  mutable live : bool;
  mutable txns : int;
  mutable lax_used : Time.span;
  (* Instant the channel last went non-empty; None while empty. Used
     by the QoS auditor's backlogged-for-a-whole-period test. *)
  mutable backlogged_since : Time.t option;
  obs : client_obs;
}

(* Obs handles, built at admission under the client's name. *)
and client_obs = {
  bytes : Obs.Metrics.counter;
  budget_txns : Obs.Metrics.counter;
  slack_txns : Obs.Metrics.counter;
  txn_errors : Obs.Metrics.counter;
  txn_us : Obs.Metrics.histogram;
  lax_ns : Obs.Metrics.counter;
  audit : Obs.Qos_audit.stream;
}

type t = {
  sim : Sim.t;
  dm : Disk_model.t;
  edf : Edf.t;
  (* Streams indexed by EDF id, which [Edf.admit] hands out in
     admission order (None once retired): replenish walks it in that
     order (the trace it records is compared bit-for-bit by tests),
     and the scheduler's per-decision member lookups are O(1) and
     allocation-free. *)
  mutable members : client option array;
  kick : Sync.Waitq.t;
  events : event Trace.t;
  laxity_enabled : bool;
  mutable running : bool;
}

let find_member t e = t.members.(e.Edf.id)

(* Feed the QoS auditor at stream period boundaries (cf. Cpu). *)
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
      Obs.Qos_audit.boundary c.obs.audit ~now:boundary ~entitled:e.Edf.slice
        ~got:(e.Edf.slice - unused) ~backlogged
  end

let create ?(rollover = true) ?(laxity_enabled = true) sim dm =
  let t =
    { sim; dm; edf = Edf.create ~rollover (); members = [||];
      kick = Sync.Waitq.create ();
      events = Trace.create (); laxity_enabled; running = false }
  in
  Edf.set_boundary_hook t.edf (audit_boundary t);
  t

let client_name (c : client) = c.edf.Edf.cname
let txn_count (c : client) = c.txns
let used_time (c : client) = c.edf.Edf.used_total
let lax_time (c : client) = c.lax_used

let trace t = t.events
let disk t = t.dm
let utilisation t = Edf.utilisation t.edf

let has_pending (c : client) = not (Io_channel.is_empty c.channel)

(* Grant period-boundary allocations; a new allocation puts an idled
   client back on the runnable queue with a fresh lax allowance. The
   walk is a no-op unless some boundary is due, so skip it then. *)
let replenish t ~now =
  match Edf.next_deadline t.edf with
  | Some d when d <= now ->
    Array.iter
      (function
        | Some c when c.live ->
          if Edf.replenish t.edf ~now c.edf > 0 then begin
            c.idled <- false;
            c.lax_left <- c.cqos.Qos.laxity;
            Trace.record t.events now (Alloc { client = client_name c })
          end
        | _ -> ())
      t.members
  | _ -> ()

let execute_txn t (c : client) ~slack =
  let req = Io_channel.recv c.channel in
  if Io_channel.is_empty c.channel then c.backlogged_since <- None;
  (* Injected client stall: the client's driver domain is wedged (e.g.
     a user-level pager not responding). The disk head is not held —
     the stall burns the client's own CPU-side time and is charged to
     its disk budget, so other clients' EDF schedules are untouched. *)
  (if !Inject.enabled then
     match Inject.stall ~site:(client_name c) with
     | None -> ()
     | Some d ->
       Proc.sleep d;
       if slack then Edf.charge_slack c.edf d else Edf.charge c.edf d);
  let now = Sim.now t.sim in
  let result =
    Disk_model.service_result t.dm ~now
      ~op:(match req.op with Read -> Disk_model.Read | Write -> Disk_model.Write)
      ~lba:req.lba ~nblocks:req.nblocks
  in
  let dur = match result with Ok d -> d | Error (d, _) -> d in
  Proc.sleep dur;
  if slack then Edf.charge_slack c.edf dur else Edf.charge c.edf dur;
  c.txns <- c.txns + 1;
  c.lax_left <- c.cqos.Qos.laxity;
  let ev =
    match result with
    | Error (_, { Disk_model.bad_lba; persistent }) ->
      Txn_error { client = client_name c; op = req.op; lba = req.lba;
                  nblocks = req.nblocks; dur;
                  media = { bad_lba; persistent } }
    | Ok _ when slack -> Slack { client = client_name c; op = req.op; dur }
    | Ok _ ->
      Txn { client = client_name c; op = req.op; lba = req.lba;
            nblocks = req.nblocks; dur }
  in
  Trace.record t.events (Sim.now t.sim) ev;
  if !Obs.enabled then begin
    let m = c.obs in
    let nbytes =
      req.nblocks * (Disk_model.params t.dm).Disk_params.block_size
    in
    Obs.Metrics.bump m.bytes nbytes;
    Obs.Metrics.tick (if slack then m.slack_txns else m.budget_txns);
    (match result with
    | Error _ -> Obs.Metrics.tick m.txn_errors
    | Ok _ -> ());
    Obs.Metrics.record m.txn_us (float_of_int dur /. 1e3)
  end;
  match result with
  | Ok _ -> Sync.Ivar.fill req.completion (Ok ())
  | Error (_, { Disk_model.bad_lba; persistent }) ->
    Sync.Ivar.fill req.completion (Error (Media { bad_lba; persistent }))

(* The earliest-deadline runnable client has no transaction pending:
   it holds the disk for up to its remaining lax allowance (bounded by
   its budget and by the next period boundary, after which the EDF
   decision must be re-taken). The wait is charged as if it were
   transaction time. *)
let lax_wait t (c : client) =
  let now = Sim.now t.sim in
  let bound = min c.lax_left c.edf.Edf.remaining in
  let bound =
    match Edf.next_deadline t.edf with
    | Some d -> min bound (max 1 (Time.diff d now))
    | None -> bound
  in
  if bound <= 0 then c.idled <- true
  else begin
    ignore (Sync.Waitq.wait_timeout t.kick bound);
    let elapsed = Time.diff (Sim.now t.sim) now in
    if elapsed > 0 then begin
      Edf.charge c.edf elapsed;
      c.lax_left <- c.lax_left - elapsed;
      c.lax_used <- c.lax_used + elapsed;
      Trace.record t.events (Sim.now t.sim)
        (Lax { client = client_name c; dur = elapsed });
      if !Obs.enabled then
        Obs.Metrics.bump c.obs.lax_ns elapsed;
      if c.lax_left <= 0 then c.idled <- true
    end
  end

let rec scheduler_loop t =
  let now = Sim.now t.sim in
  replenish t ~now;
  let runnable e =
    match find_member t e with
    | Some c -> c.live && not c.idled
    | None -> false
  in
  (match Edf.select t.edf ~only:runnable ~now with
  | Some e ->
    let c = Option.get (find_member t e) in
    if has_pending c then execute_txn t c ~slack:false
    else if t.laxity_enabled then lax_wait t c
    else begin
      (* No laxity (ablation): plain EDF marks the client idle until
         its next periodic allocation — the short-block problem. *)
      c.idled <- true
    end
  | None ->
    (* Nobody runnable with budget: optionally give slack time to an
       x-flagged client with queued work, else sleep to the next
       period boundary or new submission. *)
    let slack_ok e =
      match find_member t e with
      | Some c -> c.live && has_pending c
      | None -> false
    in
    (match Edf.select_slack t.edf ~only:slack_ok ~now with
    | Some e -> execute_txn t (Option.get (find_member t e)) ~slack:true
    | None ->
      (match Edf.next_deadline t.edf with
      | Some d ->
        let span = max 1 (Time.diff d now) in
        ignore (Sync.Waitq.wait_timeout t.kick span)
      | None -> Sync.Waitq.wait t.kick)));
  scheduler_loop t

let ensure_running t =
  if not t.running then begin
    t.running <- true;
    ignore (Proc.spawn ~name:"usd-sched" t.sim (fun () -> scheduler_loop t))
  end

let admit t ~name ~qos ?(channel_depth = 64) () =
  match
    Edf.admit t.edf ~name ~period:qos.Qos.period ~slice:qos.Qos.slice
      ~extra:qos.Qos.extra ~now:(Sim.now t.sim) ()
  with
  | Error _ as e -> e
  | Ok e ->
    let c =
      { edf = e; cqos = qos; channel = Io_channel.create ~depth:channel_depth;
        lax_left = qos.Qos.laxity; idled = false; live = true; txns = 0;
        lax_used = 0; backlogged_since = None;
        obs =
          (let counter = Obs.Metrics.counter ~label:name in
           { bytes = counter "usd.bytes"; budget_txns = counter "usd.txns";
             slack_txns = counter "usd.slack_txns";
             txn_errors = counter "usd.txn_errors";
             txn_us = Obs.Metrics.histogram ~label:name "usd.txn_us";
             lax_ns = counter "usd.lax_ns";
             audit = Obs.Qos_audit.usd_stream ~stream:name }) }
    in
    if e.Edf.id = Array.length t.members then
      t.members <- Array.append t.members (Array.make (e.Edf.id + 1) None);
    t.members.(e.Edf.id) <- Some c;
    ensure_running t;
    Sync.Waitq.broadcast t.kick;
    Ok c

(* Fill every request still queued on a dead client's channel with a
   retired status. Runs from [retire], and again from [submit] when a
   sender that was blocked on a full channel wakes up to find the
   client retired under it — either way, each queued ivar is filled
   exactly once (each request is received exactly once). *)
let drain_cancelled (c : client) =
  while not (Io_channel.is_empty c.channel) do
    let req = Io_channel.recv c.channel in
    Sync.Ivar.fill req.completion (Error Cancelled)
  done

let retire t (c : client) =
  c.live <- false;
  Edf.remove t.edf c.edf;
  t.members.(c.edf.Edf.id) <- None;
  (* Unblock waiters: requests still queued will never be scheduled. *)
  drain_cancelled c;
  c.backlogged_since <- None;
  Sync.Waitq.broadcast t.kick

let submit t (c : client) op ~lba ~nblocks =
  if not c.live then Error `Retired
  else begin
    let completion = Sync.Ivar.create () in
    if Io_channel.is_empty c.channel then
      c.backlogged_since <- Some (Sim.now t.sim);
    Io_channel.send c.channel { op; lba; nblocks; completion };
    (* [send] may have blocked on a full channel; if the client was
       retired while we slept, the retire-time drain ran before our
       request landed and nothing will ever service it. Cancel it (and
       anything queued behind us) so no waiter blocks forever. *)
    if not c.live then drain_cancelled c;
    Sync.Waitq.broadcast t.kick;
    Ok completion
  end

let transact t c op ~lba ~nblocks =
  match submit t c op ~lba ~nblocks with
  | Error `Retired -> Error `Retired
  | Ok completion -> (
    match Sync.Ivar.read completion with
    | Ok () -> Ok ()
    | Error (Media m) -> Error (`Media m)
    | Error Cancelled -> Error `Cancelled)

(* The [_exn] variant is for callers that have already ruled out
   media errors and retirement (pristine disks, bound clients);
   hardened callers use [transact] and match on the typed errors. *)
let transact_exn t c op ~lba ~nblocks =
  match transact t c op ~lba ~nblocks with
  | Ok () -> ()
  | Error `Retired -> failwith "Usd.transact_exn: client retired"
  | Error `Cancelled -> failwith "Usd.transact_exn: cancelled"
  | Error (`Media m) ->
    failwith
      (Printf.sprintf "Usd.transact_exn: media error at lba %d" m.bad_lba)
