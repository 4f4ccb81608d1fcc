let rule () = print_endline (String.make 72 '-')

let heading s =
  print_newline ();
  rule ();
  Printf.printf "%s\n" s;
  rule ()

let table ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    all;
  let print_row row =
    List.iteri
      (fun i cell -> Printf.printf "%-*s  " widths.(i) cell)
      row;
    print_newline ()
  in
  print_row header;
  Array.iter (fun w -> Printf.printf "%s  " (String.make w '-')) widths;
  print_newline ();
  List.iter print_row rows

let marks = [| '*'; 'o'; '+'; 'x'; '#'; '@' |]

let chart ?(height = 12) ?(width = 72) ~unit_label series =
  let all_points = List.concat_map snd series in
  if all_points = [] then print_endline "(no data)"
  else begin
    let xs = List.map fst all_points and ys = List.map snd all_points in
    let fmin = List.fold_left min infinity and fmax = List.fold_left max neg_infinity in
    let x0 = fmin xs and x1 = fmax xs in
    let y0 = 0.0 and y1 = Float.max 1e-9 (fmax ys) in
    let grid = Array.make_matrix height width ' ' in
    let put x y ch =
      let cx =
        if x1 <= x0 then 0
        else int_of_float ((x -. x0) /. (x1 -. x0) *. float_of_int (width - 1))
      in
      let cy =
        int_of_float ((y -. y0) /. (y1 -. y0) *. float_of_int (height - 1))
      in
      let cy = height - 1 - max 0 (min (height - 1) cy) in
      let cx = max 0 (min (width - 1) cx) in
      if grid.(cy).(cx) = ' ' then grid.(cy).(cx) <- ch
    in
    List.iteri
      (fun i (_, points) ->
        let mark = marks.(i mod Array.length marks) in
        List.iter (fun (x, y) -> put x y mark) points)
      series;
    for row = 0 to height - 1 do
      let label =
        if row = 0 then Printf.sprintf "%8.1f |" y1
        else if row = height - 1 then Printf.sprintf "%8.1f |" y0
        else Printf.sprintf "%8s |" ""
      in
      Printf.printf "%s%s\n" label (String.init width (fun c -> grid.(row).(c)))
    done;
    Printf.printf "%8s +%s\n" "" (String.make width '-');
    Printf.printf "%8s  %-10.0f%*s%.0f   (%s)\n" "" x0 (width - 14) "" x1
      unit_label;
    List.iteri
      (fun i (label, _) ->
        Printf.printf "%8s  %c = %s\n" "" (marks.(i mod Array.length marks)) label)
      series
  end

let fopt = function None -> "n/a" | Some v -> Printf.sprintf "%.2f" v

let f2 v = if Float.is_nan v then "nan" else Printf.sprintf "%.2f" v
let f1 v = if Float.is_nan v then "nan" else Printf.sprintf "%.1f" v
let mbit_s f = if Float.is_nan f then "warming" else f2 f
let us f = if Float.is_nan f then "-" else Printf.sprintf "%.0f" f

let hist_table ?(unit_ = "us") rows =
  if rows = [] then print_endline "(no histogram data)"
  else
    table
      ~header:
        [ "label"; "count"; "mean " ^ unit_; "p50 " ^ unit_; "p95 " ^ unit_;
          "max " ^ unit_ ]
      (List.map
         (fun (label, v) ->
           [ label;
             string_of_int v.Obs.Metrics.hv_count;
             f1 v.Obs.Metrics.hv_mean;
             f1 (Obs.Metrics.hist_quantile v 0.5);
             f1 (Obs.Metrics.hist_quantile v 0.95);
             f1 v.Obs.Metrics.hv_max ])
         rows)

let verdict ok claim =
  print_endline (if ok then "VERDICT: ok — " ^ claim else "VERDICT: FAILED")

let audit_section title = function
  | None -> ()
  | Some (s : Obs.Qos_audit.summary) ->
    heading title;
    Printf.printf "period boundaries audited: %d\n" s.audited_boundaries;
    if s.violations = 0 then
      print_endline "verdict: OK — no QoS contract violations detected"
    else begin
      Printf.printf "verdict: FLAGGED — %d violation(s)\n\n" s.violations;
      table
        ~header:[ "class"; "count" ]
        (List.map (fun (c, n) -> [ c; string_of_int n ]) s.classes);
      print_newline ();
      print_endline "most recent:";
      List.iter
        (fun (t, v) ->
          Format.printf "  [%a] %a@." Engine.Time.pp t
            Obs.Qos_audit.pp_violation v)
        s.recent
    end

module Json = struct
  type t = string

  let str s =
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b

  let int = string_of_int
  let bool = string_of_bool
  let null = "null"

  let num digits f =
    if Float.is_nan f then null else Printf.sprintf "%.*f" digits f

  let jf = num 1
  let jf3 = num 3
  let secs span = num 0 (Engine.Time.to_sec span)
  let embed record = record
  let to_string v = v
  let pair (k, v) = str k ^ ": " ^ v
  let pairs ps = String.concat ", " (List.map pair ps)
  let break indent = ",\n" ^ String.make indent ' '
  let obj ps = "{" ^ pairs ps ^ "}"
  let list vs = "[" ^ String.concat ", " vs ^ "]"

  let obj_lines ~indent groups =
    "{" ^ String.concat (break indent) (List.map pairs groups) ^ "}"

  let column ~indent vs = "[" ^ String.concat (break indent) vs ^ "]"

  let rows ~indent vs =
    let pad = "\n" ^ String.make indent ' ' in
    "[" ^ String.concat "," (List.map (( ^ ) pad) vs) ^ "\n  ]"

  let record groups =
    "{\n  " ^ String.concat (break 2) (List.map pairs groups) ^ "\n}"
end
