open Engine

(* The compressed tier as a backing store: a Zpool in front of any
   Tier.Backing.t. Write-through — every write goes below as well, so
   the zpool never holds the only copy and shedding is always safe.
   Reads that hit the pool cost a decompress sleep instead of a disk
   transaction; misses coalesce into contiguous below-reads exactly
   like the tiered store does. *)

type t = {
  zpool : Zpool.t;
  below : Tier.Backing.t;
  label : string;
  (* per-slot write version: makes each overwrite's synthesized
     contents distinguishable while keeping the entropy class (and so
     the compressed size) a pure function of the slot *)
  versions : (int, int) Hashtbl.t;
  compress_us : Time.span;
  decompress_us : Time.span;
  mutable hits : int;
  mutable misses : int;
  mutable below_writes : int;
  mutable dropped_on_error : int;
}

let create ?(label = "zram") ?(compress_us = Time.us 3)
    ?(decompress_us = Time.us 2) ~zpool ~below () =
  { zpool; below; label; versions = Hashtbl.create 256; compress_us;
    decompress_us; hits = 0; misses = 0; below_writes = 0;
    dropped_on_error = 0 }

let key_of t slot = t.label ^ ":" ^ string_of_int slot

let metric t name =
  if !Obs.enabled then Obs.Metrics.inc ~label:t.label ("zram." ^ name)

(* ------------------------------------------------------------------ *)
(* Writes: compress into the pool first, then ALWAYS write below —
   the durability floor. If the below write fails we drop the fresh
   pool entries for the failed slots: the pool must never answer a
   read with contents the floor cannot back. *)

let put_slot t slot =
  let v = 1 + (try Hashtbl.find t.versions slot with Not_found -> 0) in
  Hashtbl.replace t.versions slot v;
  let key = key_of t slot in
  let data = Zpool.synth ~key ~version:v in
  match Zpool.put t.zpool ~key ~data with
  | `Stored ->
    Proc.sleep t.compress_us;
    metric t "stored"
  | `Incompressible -> metric t "incompressible"
  | `No_space -> metric t "overflow"

let drop_range t ~page_index ~npages =
  for s = page_index to page_index + npages - 1 do
    if Zpool.mem t.zpool ~key:(key_of t s) then begin
      Zpool.drop t.zpool ~key:(key_of t s);
      t.dropped_on_error <- t.dropped_on_error + 1
    end
  done

let write_page t ~page_index =
  put_slot t page_index;
  t.below_writes <- t.below_writes + 1;
  match t.below.Tier.Backing.write_page ~page_index with
  | Ok () -> Ok ()
  | Error e ->
    drop_range t ~page_index ~npages:1;
    Error e

let write_pages t ~page_index ~npages =
  for s = page_index to page_index + npages - 1 do
    put_slot t s
  done;
  t.below_writes <- t.below_writes + 1;
  match t.below.Tier.Backing.write_pages ~page_index ~npages with
  | Ok () -> Ok ()
  | Error e ->
    drop_range t ~page_index ~npages;
    Error e

let write_pages_commit t ~page_index ~npages ~pages ~retire =
  for s = page_index to page_index + npages - 1 do
    put_slot t s
  done;
  (* retired slots are superseded — their cached copies are stale *)
  List.iter
    (fun (_, old_slot) ->
      if Zpool.mem t.zpool ~key:(key_of t old_slot) then
        Zpool.drop t.zpool ~key:(key_of t old_slot))
    retire;
  t.below_writes <- t.below_writes + 1;
  match
    t.below.Tier.Backing.write_pages_commit ~page_index ~npages ~pages ~retire
  with
  | Ok () -> Ok ()
  | Error e ->
    drop_range t ~page_index ~npages;
    Error e

(* ------------------------------------------------------------------ *)
(* Reads: pool hits decompress in place; misses coalesce into
   contiguous below transactions (same degradation contract as the
   tiered store: partial losses merge, fatal errors short-circuit). *)

let read_pages t ~page_index ~npages =
  let lost = ref [] in
  let fatal = ref None in
  let run_start = ref 0 and run_len = ref 0 in
  let flush_run () =
    if !run_len > 0 then begin
      let t0 = Sim.now (Proc.current_sim ()) in
      (match
         t.below.Tier.Backing.read_pages ~page_index:!run_start
           ~npages:!run_len
       with
      | Ok () -> ()
      | Error (`Lost_pages l) -> lost := l @ !lost
      | Error ((`Retired | `Crashed) as e) -> fatal := Some e);
      if !Obs.enabled then begin
        (* per-page cost of the disk-served run, for the hit-vs-miss
           latency comparison the tenancy bench reports *)
        let per_page =
          Time.to_us (Time.diff (Sim.now (Proc.current_sim ())) t0)
          /. float_of_int !run_len
        in
        for _ = 1 to !run_len do
          Obs.Metrics.observe "zram.miss_us" per_page
        done
      end;
      run_len := 0
    end
  in
  let s = ref page_index in
  while !fatal = None && !s < page_index + npages do
    (match Zpool.get t.zpool ~key:(key_of t !s) with
    | Some data ->
      flush_run ();
      (* exercise the exact-inverse pair so a broken codec faults loud *)
      if String.length data <> Zpool.page_bytes then
        invalid_arg "Sd_zram: decompressed page has wrong size";
      t.hits <- t.hits + 1;
      metric t "hit";
      Proc.sleep t.decompress_us;
      if !Obs.enabled then
        Obs.Metrics.observe "zram.hit_us" (Time.to_us t.decompress_us)
    | None ->
      t.misses <- t.misses + 1;
      metric t "miss";
      if !run_len = 0 then begin
        run_start := !s;
        run_len := 1
      end
      else run_len := !run_len + 1);
    incr s
  done;
  flush_run ();
  match !fatal with
  | Some e -> Error (e :> Tier.Backing.io_error)
  | None ->
    if !lost = [] then Ok ()
    else Error (`Lost_pages (List.sort_uniq compare !lost))

(* ------------------------------------------------------------------ *)

type stats = {
  s_hits : int;
  s_misses : int;
  s_below_writes : int;
  s_dropped_on_error : int;
}

let stats t =
  { s_hits = t.hits; s_misses = t.misses; s_below_writes = t.below_writes;
    s_dropped_on_error = t.dropped_on_error }

let zpool t = t.zpool

let backing t =
  { Tier.Backing.label = t.label;
    page_capacity = t.below.Tier.Backing.page_capacity;
    journaled = t.below.Tier.Backing.journaled;
    read_pages = (fun ~page_index ~npages -> read_pages t ~page_index ~npages);
    write_page = (fun ~page_index -> write_page t ~page_index);
    write_pages =
      (fun ~page_index ~npages -> write_pages t ~page_index ~npages);
    write_pages_commit =
      (fun ~page_index ~npages ~pages ~retire ->
        write_pages_commit t ~page_index ~npages ~pages ~retire);
    slot_committed = t.below.Tier.Backing.slot_committed;
    extent = t.below.Tier.Backing.extent }

(* --- backing-axis registration --------------------------------------- *)

type zram_cap = {
  zc_zpool : Zpool.t;
  zc_label : string;
}

type Tier.Backing.cap += Zram of zram_cap

let () =
  Registry.register_exn Tier.Backing.axis
    (Registry.manifest ~name:"zram"
       ~doc:
         "compressed-RAM tier over the swapfile's own data path \
          (Share.Sd_zram over a shared Zpool)"
       ())
    (fun a ->
      if a.Registry.Spec.args <> [] || a.Registry.Spec.params <> [] then
        Error "zram takes no parameter (pool and label come from the ctx)"
      else
        Ok
          (fun ctx swap ->
            match
              List.find_map (function Zram c -> Some c | _ -> None) ctx
            with
            | None -> Error "zram backing needs a Share.Sd_zram.Zram capability"
            | Some c ->
                Ok
                  (backing
                     (create ~label:c.zc_label ~zpool:c.zc_zpool
                        ~below:(Tier.Backing.of_sfs swap) ()))))
