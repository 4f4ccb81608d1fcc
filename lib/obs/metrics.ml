(* The running moments of a histogram, updated as {!Engine.Stats}
   updates its own. An all-float record stores its fields unboxed, so
   a sample allocates nothing. *)
type moments = { mutable mean : float; mutable minv : float; mutable maxv : float }

type hist = {
  bounds : float array;
  counts : int array; (* length bounds + 1; last = overflow *)
  mutable n : int;
  m : moments;
}

(* A gauge cell is a one-float record, so writing it stores the float
   unboxed instead of allocating a box. *)
type fcell = { mutable v : float }

type metric =
  | MCounter of int ref
  | MGauge of fcell
  | MHist of hist

let registry : (string * string, metric) Hashtbl.t = Hashtbl.create 64

(* Bumped by [reset]: a handle whose [gen] differs points into a
   dropped registry and re-resolves before its next write. *)
let generation = ref 0

let latency_bounds_us =
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1_000.; 2_000.; 5_000.;
     10_000.; 20_000.; 50_000.; 100_000.; 200_000.; 500_000.; 1_000_000. |]

let kind_name = function
  | MCounter _ -> "counter"
  | MGauge _ -> "gauge"
  | MHist _ -> "histogram"

let wrong_kind name label m want =
  invalid_arg
    (Printf.sprintf "Metrics: %S (label %S) is a %s, not a %s" name label
       (kind_name m) want)

let find_or ~name ~label make =
  match Hashtbl.find_opt registry (name, label) with
  | Some m -> m
  | None ->
    let m = make () in
    Hashtbl.add registry (name, label) m;
    m

let make_hist bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Metrics: empty histogram bounds";
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics: histogram bounds must be strictly increasing"
  done;
  { bounds; counts = Array.make (n + 1) 0; n = 0;
    m = { mean = 0.0; minv = nan; maxv = nan } }

(* --- handles ------------------------------------------------------ *)

(* What a handle points at, and what it registers on first use. *)
type _ kind =
  | Counter_k : int ref kind
  | Gauge_k : fcell kind
  | Hist_k : float array -> hist kind

(* [gen = -1] until first use: a handle registers nothing until it is
   written through. *)
type 'cell handle = {
  name : string;
  label : string;
  kind : 'cell kind;
  mutable gen : int;
  mutable cell : 'cell;
}

type counter = int ref handle
type gauge = fcell handle
type histogram = hist handle

(* Placeholders shared by every unresolved handle; never written. *)
let unbound_count = ref 0
let unbound_gauge = { v = 0.0 }
let unbound_hist =
  { bounds = [||]; counts = [||]; n = 0;
    m = { mean = 0.0; minv = nan; maxv = nan } }

let counter ?(label = "") name =
  { name; label; kind = Counter_k; gen = -1; cell = unbound_count }

let gauge ?(label = "") name =
  { name; label; kind = Gauge_k; gen = -1; cell = unbound_gauge }

let histogram ?(label = "") ?(bounds = latency_bounds_us) name =
  { name; label; kind = Hist_k bounds; gen = -1; cell = unbound_hist }

let resolve (type c) (h : c handle) =
  let fresh () =
    match h.kind with
    | Counter_k -> MCounter (ref 0)
    | Gauge_k -> MGauge { v = 0.0 }
    | Hist_k bounds -> MHist (make_hist bounds)
  in
  let m = find_or ~name:h.name ~label:h.label fresh in
  let cell : c =
    match (h.kind, m) with
    | Counter_k, MCounter r -> r
    | Gauge_k, MGauge g -> g
    | Hist_k _, MHist x -> x
    | Counter_k, _ -> wrong_kind h.name h.label m "counter"
    | Gauge_k, _ -> wrong_kind h.name h.label m "gauge"
    | Hist_k _, _ -> wrong_kind h.name h.label m "histogram"
  in
  h.cell <- cell;
  h.gen <- !generation

let bump c n =
  if c.gen <> !generation then resolve c;
  c.cell := !(c.cell) + n

let tick c = bump c 1

let set g v =
  if g.gen <> !generation then resolve g;
  g.cell.v <- v

let bucket_of h x =
  (* First bound >= x, by binary search; n = overflow. *)
  let n = Array.length h.bounds in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if x <= h.bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let record h x =
  if h.gen <> !generation then resolve h;
  let cell = h.cell in
  let i = bucket_of cell x in
  cell.counts.(i) <- cell.counts.(i) + 1;
  cell.n <- cell.n + 1;
  let m = cell.m in
  m.mean <- m.mean +. ((x -. m.mean) /. float_of_int cell.n);
  if cell.n = 1 then begin
    m.minv <- x;
    m.maxv <- x
  end
  else begin
    if x < m.minv then m.minv <- x;
    if x > m.maxv then m.maxv <- x
  end

let counter_value ?(label = "") name =
  match Hashtbl.find_opt registry (name, label) with
  | Some (MCounter r) -> !r
  | _ -> 0

let gauge_value ?(label = "") name =
  match Hashtbl.find_opt registry (name, label) with
  | Some (MGauge cell) -> Some cell.v
  | _ -> None

type hist_view = {
  hv_count : int;
  hv_mean : float;
  hv_min : float;
  hv_max : float;
  hv_buckets : (float * int) array;
}

let view_of h =
  let n = Array.length h.bounds in
  { hv_count = h.n;
    hv_mean = (if h.n = 0 then 0.0 else h.m.mean);
    hv_min = h.m.minv;
    hv_max = h.m.maxv;
    hv_buckets =
      Array.init (n + 1) (fun i ->
          ((if i = n then infinity else h.bounds.(i)), h.counts.(i))) }

let sum_labels name =
  Hashtbl.fold
    (fun (n, _) m acc ->
      match m with MCounter r when n = name -> acc + !r | _ -> acc)
    registry 0

let hist_view ?(label = "") name =
  match Hashtbl.find_opt registry (name, label) with
  | Some (MHist h) -> Some (view_of h)
  | _ -> None

let hist_quantile v q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.hist_quantile: q not in [0,1]";
  if v.hv_count = 0 then nan
  else begin
    let target = q *. float_of_int v.hv_count in
    let seen = ref 0 and result = ref nan in
    Array.iter
      (fun (bound, c) ->
        if Float.is_nan !result then begin
          seen := !seen + c;
          if float_of_int !seen >= target && c > 0 then
            result := if Float.is_finite bound then bound else v.hv_max
        end)
      v.hv_buckets;
    if Float.is_nan !result then result := v.hv_max;
    !result
  end

type value = Counter of int | Gauge of float | Histogram of hist_view

let snapshot () =
  Hashtbl.fold
    (fun (name, label) m acc ->
      let v =
        match m with
        | MCounter r -> Counter !r
        | MGauge cell -> Gauge cell.v
        | MHist h -> Histogram (view_of h)
      in
      (name, label, v) :: acc)
    registry []
  |> List.sort compare

let labels_of name =
  Hashtbl.fold
    (fun (n, label) _ acc -> if n = name then label :: acc else acc)
    registry []
  |> List.sort compare

let reset () =
  Hashtbl.reset registry;
  incr generation

(* --- export ------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float v =
  if Float.is_nan v then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let to_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  let first = ref true in
  List.iter
    (fun (name, label, v) ->
      if not !first then Buffer.add_string b ",\n";
      first := false;
      Buffer.add_string b
        (Printf.sprintf "  {\"name\": \"%s\", \"label\": \"%s\", "
           (json_escape name) (json_escape label));
      (match v with
      | Counter n ->
        Buffer.add_string b
          (Printf.sprintf "\"type\": \"counter\", \"value\": %d}" n)
      | Gauge g ->
        Buffer.add_string b
          (Printf.sprintf "\"type\": \"gauge\", \"value\": %s}" (json_float g))
      | Histogram h ->
        Buffer.add_string b
          (Printf.sprintf
             "\"type\": \"histogram\", \"count\": %d, \"mean\": %s, \
              \"min\": %s, \"max\": %s, \"buckets\": ["
             h.hv_count (json_float h.hv_mean) (json_float h.hv_min)
             (json_float h.hv_max));
        Array.iteri
          (fun i (bound, c) ->
            if i > 0 then Buffer.add_string b ", ";
            let le =
              if Float.is_finite bound then json_float bound else "\"inf\""
            in
            Buffer.add_string b
              (Printf.sprintf "{\"le\": %s, \"count\": %d}" le c))
          h.hv_buckets;
        Buffer.add_string b "]}"))
    (snapshot ());
  Buffer.add_string b "\n]";
  Buffer.contents b
