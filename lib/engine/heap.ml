type 'a entry = { key : int; sub : int; value : 'a }

type 'a t = { mutable arr : 'a entry array; mutable len : int }

let create () = { arr = [||]; len = 0 }

let length h = h.len

let is_empty h = h.len = 0

let less a b = a.key < b.key || (a.key = b.key && a.sub < b.sub)

let grow h e =
  let cap = Array.length h.arr in
  if h.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let narr = Array.make ncap e in
    Array.blit h.arr 0 narr 0 h.len;
    h.arr <- narr
  end

(* Both sifts move entries into a hole and write [e] once, where it
   belongs, rather than swapping at every level. *)
let rec sift_up h i e =
  let parent = (i - 1) / 2 in
  if i > 0 && less e h.arr.(parent) then begin
    h.arr.(i) <- h.arr.(parent);
    sift_up h parent e
  end
  else h.arr.(i) <- e

let rec sift_down h i e =
  let l = (2 * i) + 1 in
  if l >= h.len then h.arr.(i) <- e
  else begin
    let c =
      if l + 1 < h.len && less h.arr.(l + 1) h.arr.(l) then l + 1 else l
    in
    if less h.arr.(c) e then begin
      h.arr.(i) <- h.arr.(c);
      sift_down h c e
    end
    else h.arr.(i) <- e
  end

let push h ~key ~sub value =
  let e = { key; sub; value } in
  grow h e;
  h.len <- h.len + 1;
  sift_up h (h.len - 1) e

(* Remove and return the minimum entry; the heap must not be empty. *)
let remove_top h =
  let top = h.arr.(0) in
  h.len <- h.len - 1;
  if h.len > 0 then sift_down h 0 h.arr.(h.len);
  top

let pop h =
  if h.len = 0 then None
  else
    let top = remove_top h in
    Some (top.key, top.sub, top.value)

let min_key h =
  if h.len = 0 then invalid_arg "Heap.min_key: empty heap";
  h.arr.(0).key

let take h =
  if h.len = 0 then invalid_arg "Heap.take: empty heap";
  (remove_top h).value
