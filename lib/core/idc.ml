open Engine

type ('req, 'rep) invocation = {
  arg : 'req;
  reply : ('rep, string) result Sync.Ivar.t;
}

type ('req, 'rep) t = {
  iname : string;
  sdom : Domains.t;
  entry : ('req, 'rep) invocation Entry.t;
}

let calls_served t = Entry.slow_handled t.entry

let offer sdom ~name ?workers handler =
  let entry =
    Entry.create sdom ~name:("idc-" ^ name) ?workers
      ~fast:(fun _ -> `Defer) (* handlers may block: always worker-side *)
      ~slow:(fun inv ->
        let result =
          match handler inv.arg with
          | rep -> Ok rep
          | exception Failure m -> Error m
        in
        ignore (Sync.Ivar.try_fill inv.reply result))
      ()
  in
  { iname = name; sdom; entry }

(* IDC failures take the caller down: a synchronous call into a dead
   or erroring server has no partial result to hand back, and in the
   simulation such a call is a bug in the experiment's domain
   choreography, not a recoverable condition. *)
let call cdom t arg =
  Domains.assert_idc_allowed cdom ("IDC call to " ^ t.iname);
  if not (Domains.alive t.sdom) then
    failwith (Printf.sprintf "Idc.call %s: server domain is dead" t.iname);
  (* Marshalling and the kernel hop are charged to the caller. *)
  Domains.consume_cpu cdom (Domains.cost cdom).Hw.Cost.idc_call;
  let reply = Sync.Ivar.create () in
  Entry.notify t.entry { arg; reply };
  match Sync.Ivar.read reply with
  | Ok rep -> rep
  | Error m -> failwith (Printf.sprintf "Idc.call %s: %s" t.iname m)
