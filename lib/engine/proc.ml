exception Killed

type state = Running | Dead

(* The continuation of a suspended process that has not been woken
   yet, for [kill] to discontinue. *)
type suspension =
  | Not_suspended
  | Suspended : ('a, unit) Effect.Deep.continuation -> suspension

type t = {
  sim : Sim.t;
  name : string;
  some : t option; (* [Some] of this record, installed in [current] *)
  mutable state : state;
  mutable kill_requested : bool;
  (* Counts resumes: a suspension's wake fires only while the count is
     the one it was registered under, which makes wakes one-shot. *)
  mutable resumes : int;
  mutable suspension : suspension;
  mutable terminate_hooks : (unit -> unit) list;
}

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let current : t option ref = ref None

let self () =
  match !current with
  | Some p -> p
  (* API misuse, not a runtime condition: [self] outside a spawned
     process has no sensible value to return. *)
  | None -> failwith "Proc.self: not inside a process"

let sim p = p.sim
let name p = p.name

let current_sim () = sim (self ())

let is_alive p = p.state <> Dead

let finish p =
  if p.state <> Dead then begin
    p.state <- Dead;
    p.suspension <- Not_suspended;
    let hooks = List.rev p.terminate_hooks in
    p.terminate_hooks <- [];
    List.iter (fun f -> f ()) hooks
  end

let on_terminate p f =
  if p.state = Dead then f () else p.terminate_hooks <- f :: p.terminate_hooks

(* Run [f a b] with [p] installed as the current process, restoring
   the previous one afterwards (processes can wake each other, so
   resumes nest). Taking [f]'s arguments spares each resume a thunk. *)
let with_current p f a b =
  let saved = !current in
  current := p.some;
  match f a b with
  | () -> current := saved
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    current := saved;
    Printexc.raise_with_backtrace e bt

(* Schedule [resume k v] ([continue] or [discontinue]) for the
   suspension registered at resume count [n], unless it has already
   been woken. *)
let resume_with p n resume k v =
  if p.resumes = n && p.state <> Dead then begin
    p.resumes <- n + 1;
    p.suspension <- Not_suspended;
    ignore (Sim.after p.sim 0 (fun () -> with_current p resume k v))
  end

(* Wake a suspended process with [Killed]. *)
let interrupt p =
  match p.suspension with
  | Suspended k -> resume_with p p.resumes Effect.Deep.discontinue k Killed
  | Not_suspended -> ()

let handler p : (unit, unit) Effect.Deep.handler =
  { retc = (fun () -> finish p);
    exnc =
      (fun e ->
        finish p;
        match e with Killed -> () | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend register ->
          Some
            (fun (k : (a, unit) Effect.Deep.continuation) ->
              if p.kill_requested then Effect.Deep.discontinue k Killed
              else begin
                let n = p.resumes in
                p.suspension <- Suspended k;
                (* Once [kill_requested] is set no later suspension
                   registers, so [interrupt] finds this one or none. *)
                register (fun v ->
                    if p.kill_requested then interrupt p
                    else resume_with p n Effect.Deep.continue k v)
              end)
        | _ -> None) }

let start p body = Effect.Deep.match_with body () (handler p)

let spawn ?(name = "proc") simulator body =
  let rec p =
    { sim = simulator; name; some = Some p; state = Running;
      kill_requested = false; resumes = 0; suspension = Not_suspended;
      terminate_hooks = [] }
  in
  ignore
    (Sim.after simulator 0 (fun () ->
         if p.kill_requested then finish p else with_current p start p body));
  p

let suspend register = Effect.perform (Suspend register)

(* If the process is killed mid-sleep, [Killed] is raised at the
   suspension point; cancel the pending timer so it does not keep the
   simulation clock advancing. *)
let sleep_at schedule =
  let h = ref None in
  try suspend (fun wake -> h := Some (schedule wake))
  with Killed as e ->
    (match !h with Some h -> Sim.cancel h | None -> ());
    raise e

let sleep d =
  if d < 0 then invalid_arg "Proc.sleep: negative duration";
  let s = current_sim () in
  sleep_at (fun fire -> Sim.after s d fire)

let sleep_until t =
  let s = current_sim () in
  let t = Time.max t (Sim.now s) in
  sleep_at (fun fire -> Sim.at s t fire)

let yield () = sleep 0

let kill p =
  if p.state <> Dead then begin
    p.kill_requested <- true;
    (* If running right now, or not yet started, there is no
       suspension: the flag is observed at the next suspension point
       (or at the start event). *)
    interrupt p
  end

let join p =
  if p.state = Dead then ()
  else suspend (fun wake -> on_terminate p wake)
