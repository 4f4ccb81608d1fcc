open Engine
open Hw
open Core

(* Multi-tenancy over stacked pagers: one template domain's paged
   stretch is frozen and CoW-forked into N tenants, every tenant also
   maps a shared read-only "text" segment, and tenant swap traffic
   goes through the compressed-RAM tier (Sd_zram over one Zpool)
   before the disk. Half the tenants are killed mid-run. The claims
   checked at the end:

   - exactly-one-copy sharing: the frames backing all tenants'
     template + segment pages are counted once, in the share registry,
     and the double-entry reference books balance — including across
     the kills (allocs = breaks + detaches + live refs, no frame
     leaked, no ref on a non-registry frame);
   - self-paging isolation holds: two bystander paging domains see
     zero QoS violations whatever the tenant fleet does;
   - the run is deterministic: same seed, byte-identical report.

   [~share:false] is the control arm for the bench: the template is
   frozen untouched (no shared frames), so every tenant faults its
   whole working set privately — same workload, no sharing, and with
   [~zram:false] no compressed tier either. *)

type result = {
  seed : int;
  tenants : int;
  killed : int;
  duration : Time.span;
  share : bool;
  zram : bool;
  (* sharing *)
  template_pages : int;
  template_frozen : int;  (** frames the freeze moved to the registry *)
  cow_shared_faults : int;
  cow_breaks : int;
  break_mean_us : float;
  break_p95_us : float;
  seg_fills : int;
  seg_hits : int;
  seg_resident : int;
  reg_books : Share.Shared_frames.books;
  reg_balanced : bool;
  refs_leaked : int;
  (* residency *)
  resident_pages : int;  (** pages resident across live tenants *)
  tenant_frames : int;  (** frames live tenants hold *)
  shared_frames : int;  (** registry frames backing the shared pages *)
  frames_per_content : float;  (** resident pages per frame consumed *)
  (* compressed tier *)
  zram_hits : int;
  zram_misses : int;
  zram_hit_mean_us : float;  (** page-in cost when the pool hits *)
  zram_miss_mean_us : float;  (** page-in cost when the disk serves *)
  zpool_stats : Share.Zpool.stats option;
  zpool_frames : int;
  zpool_bursts : int;
  (* fault service *)
  fault_count : int;
  fault_mean_us : float;
  fault_p95_us : float;
  (* system books *)
  frames : Harness.frame_books;
  bystander_violations : int;
  violations : int;
  inject_accounted : bool;
  audit : Obs.Qos_audit.summary;
}

let experiment = "tenancy"

(* Geometry. The template owns [tpl_pages]; tenants read the low
   [tpl_pages - wspan] pages shared and write a rotating window over
   the top [wspan] — bigger than a tenant's frame capacity
   (guarantee + optimistic), so the inner pagers must evict and the
   compressed tier sees real traffic. *)
let tpl_pages = 24
let wspan = 12
let seg_pages = 8
let tpl_guarantee = 26
let tenant_guarantee = 6
let tenant_optimistic = 2
let reg_guarantee = tpl_pages + seg_pages + 4
let zpool_optimistic = 16
let zpool_budget = 12

(* The per-tenant fault-latency histograms (labels [t...]) pooled. *)
let tenant_fault_stats () =
  Harness.pooled_faults
    (List.filter
       (fun label -> String.length label > 0 && label.[0] = 't')
       (Obs.Metrics.labels_of "fault.latency_us"))

type tenant_rec = {
  tr_dom : System.domain;
  tr_cow : Share.Cow.tenant;
  tr_seg : Share.Seg.attachment;
  mutable tr_live : bool;
}

let run ?(seed = 42) ?(tenants = 32) ?(duration = Time.sec 40)
    ?(share = true) ?(zram = true) () =
  if tenants < 2 then invalid_arg "Tenancy.run: need at least 2 tenants";
  (* Memory: every guarantee fits, plus headroom for the optimistic
     holdings (tenant windows, the zpool's budget). *)
  let guaranteed =
    tpl_guarantee + (tenants * tenant_guarantee) + reg_guarantee
    + (2 * tenant_guarantee) (* bystanders *)
    + tenant_guarantee (* proto *)
  in
  let sys =
    Harness.observed_system
      { System.default_config with
        seed;
        main_memory_mb =
          Harness.memory_mb ~guaranteed
            ~extra:(zpool_optimistic + (tenants * tenant_optimistic)) }
  in
  if zram then
    Inject.arm
      { Inject.default_plan with
        seed;
        zpool_pressure =
          Some
            { Inject.zp_period = Time.sec 8; zp_hold = Time.sec 2;
              zp_shrink = zpool_budget } };
  let sim = System.sim sys in
  let cpu_slice, qos = Harness.flat_contracts (tenants + 3) in
  let admit what r =
    Harness.expect ~experiment
      (fun e -> Printf.sprintf "tenancy: %s: %s" what (System.error_message e))
      r
  in
  let reg =
    Share.Shared_frames.create sys ~guarantee:reg_guarantee |> admit "registry"
  in
  let seg = Share.Seg.create ~reg ~name:"text" ~npages:seg_pages () in
  let zpool =
    if not zram then None
    else
      let _, client =
        System.admit_service sys ~guarantee:0 ~optimistic:zpool_optimistic
        |> admit "zpool admit"
      in
      Some
        (Share.Zpool.create ~sim ~frames:(System.frames sys) ~client
           ~ramtab:(System.ramtab sys) ~budget:zpool_budget ())
  in
  (* Bystanders: ordinary self-paging applications whose QoS must be
     untouched by anything the tenant fleet does. *)
  let bystanders =
    List.map
      (fun (name, pattern) ->
        ( name,
          Workload.Paging_app.start sys ~name
            ~mode:Workload.Paging_app.Paging_in ~qos
            ~vm_bytes:(16 * Addr.page_size) ~phys_frames:tenant_guarantee
            ~optimistic:0 ~swap_bytes:(32 * Addr.page_size) ~cpu_slice
            ~pattern:(Harness.pattern ~experiment pattern) ()
          |> Harness.expect ~experiment (Printf.sprintf "tenancy: %s: %s" name)
        ))
      [ ("bystander0", "seq"); ("bystander1", "hot") ]
  in
  (* The template: a domain big enough to keep the whole image
     resident for the freeze. *)
  let template =
    System.add_domain sys ~name:"template" ~cpu_slice ~guarantee:tpl_guarantee
      ~optimistic:0 ()
    |> admit "template"
  in
  let tpl_stretch =
    System.alloc_stretch template ~bytes:(tpl_pages * Addr.page_size) ()
    |> Harness.expect ~experiment (( ^ ) "tenancy: template stretch: ")
  in
  let _, tpl_handle =
    System.bind_paged template ~initial_frames:tpl_pages
      ~swap_bytes:(2 * tpl_pages * Addr.page_size) ~qos tpl_stretch ()
    |> admit "template pager"
  in
  (* The envelope donor: tenants are admitted under this spec. *)
  let proto =
    System.add_domain sys ~name:"proto" ~cpu_slice ~guarantee:tenant_guarantee
      ~optimistic:tenant_optimistic ()
    |> admit "proto"
  in
  let frozen : Share.Cow.template Sync.Ivar.t = Sync.Ivar.create () in
  (* Template thread: warm the image (unless this is the no-share
     control arm), then freeze — surrender every resident page to the
     registry. *)
  ignore
    (Domains.spawn_thread template.System.dom ~name:"template.warm" (fun () ->
         if share then
           for p = 0 to tpl_pages - 1 do
             Domains.access template.System.dom
               (Stretch.page_base tpl_stretch p) `Write
           done;
         let tpl =
           Share.Cow.freeze ~reg ~name:"image" template tpl_handle
             ~npages:tpl_pages
         in
         Sync.Ivar.fill frozen tpl));
  let recs : tenant_rec list ref = ref [] in
  let killed = ref 0 in
  let template_frozen = ref 0 in
  let backing =
    match zpool with
    | None -> None
    | Some zp ->
      Some
        (fun label ->
          Harness.backing ~experiment:"tenancy" "zram"
            [ Share.Sd_zram.Zram { zc_zpool = zp; zc_label = label } ])
  in
  (* Tenant behaviour: read the segment and the shared low pages, then
     write the top [wspan] pages once (the CoW breaks) and settle into
     a read-mostly loop over that private window — wider than the
     tenant's frame capacity, so the inner pager pages against the
     compressed tier for the life of the run, and mostly with clean
     page-ins (one write per round keeps fresh versions flowing into
     the pool). *)
  let tenant_thread (d : System.domain) stretch seg_stretch =
    for p = 0 to seg_pages - 1 do
      Domains.access d.System.dom (Stretch.page_base seg_stretch p) `Read
    done;
    for p = 0 to tpl_pages - 1 do
      Domains.access d.System.dom (Stretch.page_base stretch p) `Read
    done;
    for p = tpl_pages - wspan to tpl_pages - 1 do
      Domains.access d.System.dom (Stretch.page_base stretch p) `Write
    done;
    let r = ref 0 in
    while true do
      let wp = tpl_pages - wspan + (!r mod wspan) in
      Domains.access d.System.dom (Stretch.page_base stretch wp) `Write;
      for k = 0 to 5 do
        let p = tpl_pages - wspan + (((!r * 3) + (k * 2)) mod wspan) in
        Domains.access d.System.dom (Stretch.page_base stretch p) `Read
      done;
      for k = 0 to 1 do
        let p = (!r + k) mod (tpl_pages - wspan) in
        Domains.access d.System.dom (Stretch.page_base stretch p) `Read
      done;
      Domains.access d.System.dom
        (Stretch.page_base seg_stretch (!r mod seg_pages))
        `Read;
      incr r;
      Proc.sleep (Time.ms 5)
    done
  in
  (* Orchestrator: wait for the freeze, retire the template domain
     (the shared frames must survive its death), fork the fleet, then
     kill half of it at T/2. *)
  ignore
    (Proc.spawn ~name:"tenancy.orchestrator" sim (fun () ->
         let tpl = Sync.Ivar.read frozen in
         template_frozen := Share.Cow.shared_frames tpl;
         System.kill_domain sys template;
         for i = 0 to tenants - 1 do
           let name = Printf.sprintf "t%02d" i in
           let d, (cow, stretch) =
             Share.Cow.spawn sys ~template:tpl ~tpl_domain:proto ~name
               ?backing:
                 (Option.map (fun mk -> mk ("zram." ^ name)) backing)
               ~initial_frames:2 ~npages:tpl_pages
               ~swap_bytes:(2 * tpl_pages * Addr.page_size) ~qos ()
             |> admit name
           in
           let att, seg_stretch =
             Share.Seg.attach seg d |> admit (name ^ " seg")
           in
           recs :=
             { tr_dom = d; tr_cow = cow; tr_seg = att;
               tr_live = true }
             :: !recs;
           ignore
             (Domains.spawn_thread d.System.dom ~name:(name ^ ".work")
                (fun () -> tenant_thread d stretch seg_stretch))
         done;
         recs := List.rev !recs;
         Proc.sleep_until (Time.add Time.zero (Time.to_ns duration / 2));
         (* kill the top half of the fleet mid-share *)
         List.iteri
           (fun i tr ->
             if i >= tenants / 2 then begin
               System.kill_domain sys tr.tr_dom;
               tr.tr_live <- false;
               incr killed
             end)
           !recs));
  System.run ~until:duration sys;
  (* ---- books ---------------------------------------------------- *)
  let rt = System.ramtab sys in
  let live = List.filter (fun tr -> tr.tr_live) !recs in
  let tenant_frames =
    List.fold_left
      (fun a tr -> a + Frames.held tr.tr_dom.System.frames_client)
      0 live
  in
  (* Content residency: shared mappings cost no tenant frame; private
     pages cost exactly the frames the tenant holds (counting pool
     slack as content is the conservative direction for the ratio). *)
  let resident_pages =
    List.fold_left
      (fun a tr ->
        let s = Share.Cow.stats tr.tr_cow in
        a + s.Share.Cow.c_stat_shared_now + Share.Seg.mapped tr.tr_seg)
      0 live
    + tenant_frames
  in
  let reg_books = Share.Shared_frames.books reg in
  let shared_frames = reg_books.Share.Shared_frames.b_live_frames in
  let frames_per_content =
    if tenant_frames + shared_frames = 0 then Float.nan
    else
      float_of_int resident_pages /. float_of_int (tenant_frames + shared_frames)
  in
  (* every RamTab reference must be on a registry frame *)
  let total_refs = ref 0 in
  for pfn = 0 to Ramtab.nframes rt - 1 do
    total_refs := !total_refs + Ramtab.refs rt ~pfn
  done;
  let refs_leaked = !total_refs - reg_books.Share.Shared_frames.b_live_refs in
  let zpool_frames =
    match zpool with Some z -> Share.Zpool.frames_held z | None -> 0
  in
  let break_mean_us, break_p95_us =
    match Obs.Metrics.hist_view "share.break_us" with
    | Some v -> (v.Obs.Metrics.hv_mean, Obs.Metrics.hist_quantile v 0.95)
    | None -> (Float.nan, Float.nan)
  in
  let fault_count, fault_mean_us, fault_p95_us = tenant_fault_stats () in
  let audit = Obs.Qos_audit.summarize () in
  let bystander_violations =
    List.fold_left
      (fun n (name, app) -> n + Harness.app_violations name app)
      0 bystanders
  in
  { seed;
    tenants;
    killed = !killed;
    duration;
    share;
    zram;
    template_pages = tpl_pages;
    template_frozen = !template_frozen;
    cow_shared_faults = Obs.Metrics.sum_labels "share.cow_shared";
    cow_breaks = Obs.Metrics.sum_labels "share.cow_break";
    break_mean_us;
    break_p95_us;
    seg_fills = Share.Seg.fills seg;
    seg_hits = Obs.Metrics.sum_labels "seg.hit";
    seg_resident = Share.Seg.resident seg;
    reg_books;
    reg_balanced = Share.Shared_frames.books_balanced reg;
    refs_leaked;
    resident_pages;
    tenant_frames;
    shared_frames;
    frames_per_content;
    zram_hits = Obs.Metrics.sum_labels "zram.hit";
    zram_misses = Obs.Metrics.sum_labels "zram.miss";
    zram_hit_mean_us =
      (match Obs.Metrics.hist_view "zram.hit_us" with
      | Some v -> v.Obs.Metrics.hv_mean
      | None -> Float.nan);
    zram_miss_mean_us =
      (match Obs.Metrics.hist_view "zram.miss_us" with
      | Some v -> v.Obs.Metrics.hv_mean
      | None -> Float.nan);
    zpool_stats = (match zpool with Some z -> Some (Share.Zpool.stats z) | None -> None);
    zpool_frames;
    zpool_bursts = (Inject.tally ()).Inject.zpool_bursts;
    fault_count;
    fault_mean_us;
    fault_p95_us;
    frames =
      Harness.frame_books sys
        ~extra_held:
          (Frames.held (Share.Shared_frames.client reg) + zpool_frames);
    bystander_violations;
    violations = audit.Obs.Qos_audit.violations;
    inject_accounted = Inject.accounted ();
    audit }


let ok r =
  r.bystander_violations = 0 && r.reg_balanced && r.frames.fb_balanced
  && r.refs_leaked = 0
  && r.killed = r.tenants / 2
  && r.inject_accounted
  && (not r.share
     || (r.template_frozen > 0 && r.cow_shared_faults > 0 && r.cow_breaks > 0
        (* killing tenants can free a segment frame's last reference;
           a later fault refills it — so fills may exceed resident, but
           never the other way round, and residency never exceeds the
           segment *)
        && r.seg_resident > 0
        && r.seg_resident <= seg_pages
        && r.seg_fills >= r.seg_resident
        && r.frames_per_content >= 1.5))
  && (not r.zram || (r.zram_hits > 0 && r.zpool_bursts >= 1))

let fnum f = if Float.is_nan f then "n/a" else Report.f1 f

let print r =
  Report.heading "Multi-tenancy: CoW fleet over stacked pagers";
  Printf.printf "seed %d, %d tenants (%d killed at T/2), %.0f s, %s%s\n\n"
    r.seed r.tenants r.killed (Time.to_sec r.duration)
    (if r.share then "CoW sharing" else "no sharing (control)")
    (if r.zram then " + zram tier" else "");
  Printf.printf
    "template: %d pages, %d frozen into the registry; segment \"text\": %d \
     fills for %d resident pages, %d shared hits\n"
    r.template_pages r.template_frozen r.seg_fills r.seg_resident r.seg_hits;
  Printf.printf
    "CoW: %d shared-map faults, %d breaks (mean %s us, p95 <= %s us)\n"
    r.cow_shared_faults r.cow_breaks (fnum r.break_mean_us)
    (fnum r.break_p95_us);
  let b = r.reg_books in
  Printf.printf
    "registry: %d installs - %d frees = %d live frames; %d grants - %d \
     breaks - %d detaches = %d live refs (%s)\n"
    b.Share.Shared_frames.b_installs b.Share.Shared_frames.b_frees
    b.Share.Shared_frames.b_live_frames b.Share.Shared_frames.b_grants
    b.Share.Shared_frames.b_breaks b.Share.Shared_frames.b_detaches
    b.Share.Shared_frames.b_live_refs
    (if r.reg_balanced then "books balance" else "BOOKS OFF");
  Printf.printf
    "residency: %d resident pages on %d tenant + %d shared frames = %s \
     pages/frame; %d refs leaked\n"
    r.resident_pages r.tenant_frames r.shared_frames
    (fnum r.frames_per_content) r.refs_leaked;
  (match r.zpool_stats with
  | None -> ()
  | Some z ->
    Printf.printf
      "zram: %d hits / %d misses; pool %d frames, %d stored, %d \
       incompressible, %d overflow, %d shed over %d pressure bursts\n"
      r.zram_hits r.zram_misses r.zpool_frames z.Share.Zpool.z_stored
      z.Share.Zpool.z_incompressible z.Share.Zpool.z_overflow
      z.Share.Zpool.z_shed_frames r.zpool_bursts;
    Printf.printf "zram page-in: hit mean %s us vs disk mean %s us\n"
      (fnum r.zram_hit_mean_us) (fnum r.zram_miss_mean_us));
  Printf.printf
    "tenant faults: %d, mean %s us, p95 <= %s us\n"
    r.fault_count (fnum r.fault_mean_us) (fnum r.fault_p95_us);
  Harness.print_frame_books r.frames;
  print_newline ();
  Report.audit_section "Tenancy QoS audit" (Some r.audit);
  Printf.printf "bystander violations: %d\n" r.bystander_violations;
  Report.verdict (ok r)
    "one copy per shared page, balanced books through the kills, bystanders \
     untouched"


let to_json r =
  let open Report.Json in
  let bk = r.reg_books in
  record
    [ [ ("seed", int r.seed) ];
      [ ("tenants", int r.tenants) ];
      [ ("killed", int r.killed) ];
      [ ("duration_s", secs r.duration) ];
      [ ("share", bool r.share) ];
      [ ("zram", bool r.zram) ];
      [ ( "template",
          obj
            [ ("pages", int r.template_pages);
              ("frozen", int r.template_frozen) ]
        ) ];
      [ ( "cow",
          obj
            [ ("shared_faults", int r.cow_shared_faults);
              ("breaks", int r.cow_breaks);
              ("break_mean_us", jf3 r.break_mean_us);
              ("break_p95_us", jf3 r.break_p95_us) ] ) ];
      [ ( "seg",
          obj
            [ ("fills", int r.seg_fills); ("hits", int r.seg_hits);
              ("resident", int r.seg_resident) ] ) ];
      [ ( "registry",
          obj
            [ ("installs", int bk.b_installs); ("frees", int bk.b_frees);
              ("grants", int bk.b_grants); ("breaks", int bk.b_breaks);
              ("detaches", int bk.b_detaches);
              ("live_frames", int bk.b_live_frames);
              ("live_refs", int bk.b_live_refs);
              ("balanced", bool r.reg_balanced);
              ("refs_leaked", int r.refs_leaked) ] ) ];
      [ ( "residency",
          obj
            [ ("resident_pages", int r.resident_pages);
              ("tenant_frames", int r.tenant_frames);
              ("shared_frames", int r.shared_frames);
              ("pages_per_frame", jf3 r.frames_per_content) ] ) ];
      [ ( "zram_tier",
          match r.zpool_stats with
          | None -> null
          | Some z ->
            obj
              [ ("hits", int r.zram_hits); ("misses", int r.zram_misses);
                ("pool_frames", int r.zpool_frames); ("stored", int z.z_stored);
                ("incompressible", int z.z_incompressible);
                ("overflow", int z.z_overflow);
                ("shed_frames", int z.z_shed_frames);
                ("bursts", int r.zpool_bursts);
                ("hit_mean_us", jf3 r.zram_hit_mean_us);
                ("miss_mean_us", jf3 r.zram_miss_mean_us) ] ) ];
      [ ( "faults",
          obj
            [ ("count", int r.fault_count); ("mean_us", jf3 r.fault_mean_us);
              ("p95_us", jf3 r.fault_p95_us) ] ) ];
      [ ( "frames",
          obj
            [ ("total", int r.frames.fb_total); ("free", int r.frames.fb_free);
              ("held", int r.frames.fb_held); ("owned", int r.frames.fb_owned);
              ("books_balanced", bool r.frames.fb_balanced) ] ) ];
      [ ("bystander_violations", int r.bystander_violations) ];
      [ ("violations", int r.violations) ];
      [ ("inject_accounted", bool r.inject_accounted) ];
      [ ("ok", bool (ok r)) ] ]
