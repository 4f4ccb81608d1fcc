open Engine

type mode = Write_through | Write_back
type event = Cache_hit | Promote | Miss | Demote | Floor_lost

type lower = {
  holds : int -> bool;
  fetch : int -> on_disk:bool -> bool;
  demote : int -> dirty:bool -> bool;
  forget : int -> unit;
  note : event -> unit;
}

type counters = {
  cache_hits : int;
  hits : int;
  misses : int;
  demotes : int;
  lost_slots : int;
}

type t = {
  mode : mode;
  label : string;
  swap : Usbs.Sfs.swapfile;
  lower : lower;
  cache_cap : int;
  lru : int Ilist.t; (* front = least recently used *)
  nodes : (int, int Ilist.node) Hashtbl.t;
  evicting : (int, unit) Hashtbl.t;
  disk_valid : bool array;
  dead : bool array;
  mutable c_cache_hits : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_demotes : int;
  mutable c_lost_slots : int;
}

let create ~mode ~cache_pages ~label ~swap lower =
  if cache_pages < 1 then invalid_arg "Cache.create: cache_pages must be >= 1";
  let cap = max 1 (Usbs.Sfs.page_capacity swap) in
  { mode;
    label;
    swap;
    lower;
    cache_cap = cache_pages;
    lru = Ilist.create ();
    nodes = Hashtbl.create 64;
    evicting = Hashtbl.create 8;
    (* the disk is the authority for slots the tier has never seen —
       this is what makes restore-from-journal work unchanged *)
    disk_valid = Array.make cap true;
    dead = Array.make cap false;
    c_cache_hits = 0;
    c_hits = 0;
    c_misses = 0;
    c_demotes = 0;
    c_lost_slots = 0 }

let counters t =
  { cache_hits = t.c_cache_hits;
    hits = t.c_hits;
    misses = t.c_misses;
    demotes = t.c_demotes;
    lost_slots = t.c_lost_slots }

(* ------------------------------------------------------------------ *)
(* Local RAM tier (LRU over slot indices)                              *)

let cached t s = Hashtbl.mem t.nodes s

let touch t s =
  match Hashtbl.find_opt t.nodes s with
  | Some n -> Ilist.move_back t.lru n
  | None -> ()

let drop_cache t s =
  match Hashtbl.find_opt t.nodes s with
  | Some n ->
      Ilist.remove t.lru n;
      Hashtbl.remove t.nodes s
  | None -> ()

(* Answer a demotion whose only copy was dirty and which the lower
   layer refused: the disk takes it. If the disk eats the write too,
   the tier held the last copy — answer the write-loss duty itself
   and declare the slot dead. *)
let disk_write_slot t s =
  match Usbs.Sfs.write_page t.swap ~page_index:s with
  | Ok () -> t.disk_valid.(s) <- true
  | Error (`Lost_pages _) ->
      t.lower.note Floor_lost;
      t.dead.(s) <- true;
      t.c_lost_slots <- t.c_lost_slots + 1
  | Error (`Retired | `Crashed) ->
      (* teardown / crash latched elsewhere; nothing left to account *)
      ()

(* Push one evicted slot down a tier. Inclusive with the lower layer:
   a slot it already holds just leaves the cache. *)
let demote t s =
  if (not (t.lower.holds s)) && not t.dead.(s) then begin
    let dirty = not t.disk_valid.(s) in
    if t.lower.demote s ~dirty then begin
      t.c_demotes <- t.c_demotes + 1;
      t.lower.note Demote
    end
    else if dirty then disk_write_slot t s
  end

(* Evict LRU victims until the cache fits. The victim stays visible
   as cached while its transfer sleeps (the RAM copy exists until the
   copy-out finishes); the [evicting] set keeps a concurrent insert
   from picking the same victim twice. *)
let rec shrink t =
  if Hashtbl.length t.nodes > t.cache_cap then begin
    let victim =
      Ilist.fold
        (fun acc s ->
          match acc with
          | Some _ -> acc
          | None -> if Hashtbl.mem t.evicting s then None else Some s)
        None t.lru
    in
    match victim with
    | None -> () (* everything in flight; transiently over capacity *)
    | Some s ->
        Hashtbl.replace t.evicting s ();
        demote t s;
        Hashtbl.remove t.evicting s;
        drop_cache t s;
        shrink t
  end

let insert_cache t s =
  if not t.dead.(s) then begin
    if cached t s then touch t s
    else begin
      let n = Ilist.make_node s in
      Hashtbl.replace t.nodes s n;
      Ilist.push_back t.lru n;
      shrink t
    end
  end

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)

let read_pages t ~page_index ~npages =
  let lost = ref [] in
  let fatal = ref None in
  let run_start = ref 0 and run_len = ref 0 in
  (* coalesce consecutive disk-served slots into one SFS transaction *)
  let flush_run () =
    if !run_len > 0 then begin
      (match
         Usbs.Sfs.read_pages t.swap ~page_index:!run_start ~npages:!run_len
       with
      | Ok () ->
          for s = !run_start to !run_start + !run_len - 1 do
            insert_cache t s
          done
      | Error (`Lost_pages l) ->
          for s = !run_start to !run_start + !run_len - 1 do
            if List.mem s l then lost := s :: !lost else insert_cache t s
          done
      | Error ((`Retired | `Crashed) as e) -> fatal := Some e);
      run_len := 0
    end
  in
  let from_disk s =
    if !run_len = 0 then begin
      run_start := s;
      run_len := 1
    end
    else run_len := !run_len + 1
  in
  let i = ref page_index in
  while !fatal = None && !i < page_index + npages do
    let s = !i in
    if t.dead.(s) then begin
      flush_run ();
      lost := s :: !lost
    end
    else if cached t s then begin
      flush_run ();
      touch t s;
      t.c_cache_hits <- t.c_cache_hits + 1;
      t.lower.note Cache_hit
    end
    else if t.lower.holds s then begin
      flush_run ();
      if t.lower.fetch s ~on_disk:t.disk_valid.(s) then begin
        t.c_hits <- t.c_hits + 1;
        t.lower.note Promote;
        (* inclusive: the lower layer keeps its copy, so a clean
           re-eviction costs nothing *)
        insert_cache t s
      end
      else if t.disk_valid.(s) then begin
        from_disk s;
        flush_run ()
      end
      else begin
        t.c_lost_slots <- t.c_lost_slots + 1;
        t.dead.(s) <- true;
        lost := s :: !lost
      end
    end
    else begin
      t.c_misses <- t.c_misses + 1;
      t.lower.note Miss;
      from_disk s
    end;
    incr i
  done;
  flush_run ();
  match !fatal with
  | Some (`Retired | `Crashed) as e -> Error (Option.get e)
  | None ->
      if !lost = [] then Ok () else Error (`Lost_pages (List.rev !lost))

(* ------------------------------------------------------------------ *)
(* Writes                                                              *)

(* Fresh contents for a slot: stale copies anywhere below the cache
   die, and a previously dead slot is live again. *)
let overwrite t s ~disk =
  t.dead.(s) <- false;
  t.lower.forget s;
  t.disk_valid.(s) <- disk;
  insert_cache t s

(* Book the outcome of a write that reached the disk. *)
let wrote_through t ~page_index ~npages = function
  | Ok () ->
      for s = page_index to page_index + npages - 1 do
        overwrite t s ~disk:true
      done;
      Ok ()
  | Error (`Lost_pages l) as e ->
      for s = page_index to page_index + npages - 1 do
        if List.mem s l then begin
          (* the caller answers the write loss; the tier just stops
             claiming copies it no longer has *)
          drop_cache t s;
          t.lower.forget s;
          t.dead.(s) <- true
        end
        else overwrite t s ~disk:true
      done;
      e
  | Error (`Retired | `Crashed) as e -> e

let write_range_through t ~page_index ~npages =
  wrote_through t ~page_index ~npages
    (Usbs.Sfs.write_pages t.swap ~page_index ~npages)

let write_pages t ~page_index ~npages =
  match t.mode with
  | Write_through -> write_range_through t ~page_index ~npages
  | Write_back ->
      for s = page_index to page_index + npages - 1 do
        overwrite t s ~disk:false
      done;
      Ok ()

(* Journaled commits always write through — the disk is the
   durability floor in both modes, so journal replay over committed
   slots is untouched by tiering. *)
let write_pages_commit t ~page_index ~npages ~pages ~retire =
  wrote_through t ~page_index ~npages
    (Usbs.Sfs.write_pages_commit t.swap ~page_index ~npages ~pages ~retire)

let backing t =
  { Backing.label = t.label;
    page_capacity = (fun () -> Usbs.Sfs.page_capacity t.swap);
    journaled = (fun () -> Usbs.Sfs.swap_journaled t.swap);
    read_pages = (fun ~page_index ~npages -> read_pages t ~page_index ~npages);
    write_page = (fun ~page_index -> write_pages t ~page_index ~npages:1);
    write_pages =
      (fun ~page_index ~npages -> write_pages t ~page_index ~npages);
    write_pages_commit =
      (fun ~page_index ~npages ~pages ~retire ->
        write_pages_commit t ~page_index ~npages ~pages ~retire);
    slot_committed = (fun slot -> Usbs.Sfs.slot_committed t.swap slot);
    extent =
      (fun () ->
        (Usbs.Sfs.extent_start t.swap, Usbs.Sfs.extent_blocks t.swap)) }

(* --- backing-axis registration --------------------------------------- *)

let register ~name ~doc ~label ~cap find build =
  Registry.register_exn Backing.axis
    (Registry.manifest ~name ~doc
       ~params:
         [ { Registry.p_name = "cache-pages";
             p_doc = "local RAM cache size, pages";
             p_kind = Registry.Int 32 };
           { Registry.p_name = "label";
             p_doc = "store label for metrics and driver names";
             p_kind = Registry.String (Some label) } ]
       ~default:(name ^ ":cache-pages=32") ())
    (fun a ->
      match Registry.Spec.int_param a "cache-pages" ~default:32 with
      | Error e -> Error e
      | Ok cache_pages ->
          let label = Registry.Spec.string_param a "label" ~default:label in
          Ok
            (fun ctx swap ->
              match List.find_map find ctx with
              | None ->
                  Error
                    (Printf.sprintf "%s backing needs a Tier.%s capability"
                       name cap)
              | Some c -> Ok (build c ~cache_pages ~label swap)))
