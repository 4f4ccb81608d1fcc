type 'a t = {
  buf : (Engine.Time.t * 'a) option array;
  cap : int;
  mutable next : int; (* slot the next record goes into *)
  mutable len : int;
  mutable dropped : int;
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { buf = Array.make capacity None; cap = capacity; next = 0; len = 0;
    dropped = 0 }

let record t time v =
  if t.len = t.cap then t.dropped <- t.dropped + 1 else t.len <- t.len + 1;
  t.buf.(t.next) <- Some (time, v);
  t.next <- (t.next + 1) mod t.cap

let length t = t.len
let dropped t = t.dropped
let total t = t.len + t.dropped

let iter f t =
  let first = (t.next - t.len + t.cap * 2) mod t.cap in
  for i = 0 to t.len - 1 do
    match t.buf.((first + i) mod t.cap) with
    | Some (time, v) -> f time v
    | None -> assert false
  done

let to_list t =
  let acc = ref [] in
  iter (fun time v -> acc := (time, v) :: !acc) t;
  List.rev !acc

let clear t =
  Array.fill t.buf 0 t.cap None;
  t.next <- 0;
  t.len <- 0;
  t.dropped <- 0
