type t = {
  mutable n : int;
  mutable mean : float;
  mutable maxv : float;
  samples : float Dynarray.t option;
}

let create ?(keep_samples = false) () =
  { n = 0; mean = 0.0; maxv = nan;
    samples = (if keep_samples then Some (Dynarray.create ()) else None) }

let add t x =
  t.n <- t.n + 1;
  t.mean <- t.mean +. ((x -. t.mean) /. float_of_int t.n);
  if t.n = 1 || x > t.maxv then t.maxv <- x;
  match t.samples with Some d -> Dynarray.add_last d x | None -> ()

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.mean

let max_value t = t.maxv

let percentile t p =
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile: p outside [0, 100]";
  match t.samples with
  | None -> invalid_arg "Stats.percentile: samples not kept"
  | Some d ->
    let n = Dynarray.length d in
    if n = 0 then nan
    else begin
      let a = Dynarray.to_array d in
      Array.sort compare a;
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = int_of_float (ceil rank) in
      if lo = hi then a.(lo)
      else begin
        let frac = rank -. float_of_int lo in
        (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
      end
    end

module Series = struct
  type t = { times : Time.t Dynarray.t; vals : float Dynarray.t }

  let create () = { times = Dynarray.create (); vals = Dynarray.create () }

  let add t time v =
    Dynarray.add_last t.times time;
    Dynarray.add_last t.vals v

  let length t = Dynarray.length t.times

  let to_list t =
    List.init (length t) (fun i ->
        (Dynarray.get t.times i, Dynarray.get t.vals i))

  let mean_after t cutoff =
    let sum = ref 0.0 and n = ref 0 in
    for i = 0 to length t - 1 do
      if Dynarray.get t.times i >= cutoff then begin
        sum := !sum +. Dynarray.get t.vals i;
        incr n
      end
    done;
    if !n = 0 then nan else !sum /. float_of_int !n
end
