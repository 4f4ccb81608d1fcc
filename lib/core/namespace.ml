type entry = ..

type node = Context of t | Value of entry
and t = { bindings : (string, node) Hashtbl.t }

let create () = { bindings = Hashtbl.create 8 }

let split path = String.split_on_char '/' path

(* Walk to the context holding the final component, optionally creating
   intermediate contexts. *)
let rec walk t components ~create_missing =
  match components with
  | [] -> Error "empty path"
  | [ last ] -> if last = "" then Error "empty name" else Ok (t, last)
  | "" :: _ -> Error "empty path component"
  | ctx_name :: rest ->
    (match Hashtbl.find_opt t.bindings ctx_name with
    | Some (Context sub) -> walk sub rest ~create_missing
    | Some (Value _) ->
      Error (Printf.sprintf "%S is a value, not a context" ctx_name)
    | None ->
      if create_missing then begin
        let sub = create () in
        Hashtbl.replace t.bindings ctx_name (Context sub);
        walk sub rest ~create_missing
      end
      else Error (Printf.sprintf "no context %S" ctx_name))

let bind t ~path entry =
  match walk t (split path) ~create_missing:true with
  | Error _ as e -> e
  | Ok (ctx, name) ->
    if Hashtbl.mem ctx.bindings name then
      Error (Printf.sprintf "%S already bound" path)
    else begin
      Hashtbl.replace ctx.bindings name (Value entry);
      Ok ()
    end

let lookup t ~path =
  match walk t (split path) ~create_missing:false with
  | Error _ -> None
  | Ok (ctx, name) ->
    (match Hashtbl.find_opt ctx.bindings name with
    | Some (Value v) -> Some v
    | Some (Context _) | None -> None)

let rec context_at t components =
  match components with
  | [] | [ "" ] -> Some t
  | "" :: _ -> None
  | name :: rest ->
    (match Hashtbl.find_opt t.bindings name with
    | Some (Context sub) -> context_at sub rest
    | Some (Value _) | None -> None)

let list t ~path =
  let components = if path = "" then [] else split path in
  match context_at t components with
  | None -> None
  | Some ctx ->
    Some (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) ctx.bindings []))
