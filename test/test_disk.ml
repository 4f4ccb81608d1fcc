(* Tests for the disk model. *)

open Engine
open Disk

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

let p = Disk_params.vp3221

let geometry () =
  check "block size" 512 p.Disk_params.block_size;
  check "capacity blocks" 4_304_536 p.Disk_params.nblocks;
  checkb "cylinders plausible" true
    (Disk_params.cylinders p > 2000 && Disk_params.cylinders p < 4000);
  check "rotation ~11.1ms (5400rpm)" (Time.of_us_float 11_111.1)
    p.Disk_params.rotation

let seek_curve () =
  check "zero distance" 0 (Disk_params.seek_time p 0);
  checkb "single cylinder >= min" true
    (Disk_params.seek_time p 1 >= p.Disk_params.seek_min);
  check "full stroke" p.Disk_params.seek_max
    (Disk_params.seek_time p (Disk_params.cylinders p - 1))

let seek_monotonic =
  QCheck.Test.make ~name:"seek time is monotonic in distance" ~count:200
    QCheck.(pair (int_range 0 2800) (int_range 0 2800))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Disk_params.seek_time p lo <= Disk_params.seek_time p hi)

let sequential_reads_hit_cache () =
  let d = Disk_model.create () in
  (* First read is mechanical; subsequent sequential ones hit the
     read-ahead segment and take about a millisecond. *)
  let t = ref Time.zero in
  let dur0 = Disk_model.service d ~now:!t ~op:Disk_model.Read ~lba:1000 ~nblocks:16 in
  t := Time.add !t (dur0 + Time.ms 1);
  let hits = ref [] in
  for i = 1 to 20 do
    let lba = 1000 + (i * 16) in
    let dur = Disk_model.service d ~now:!t ~op:Disk_model.Read ~lba ~nblocks:16 in
    hits := dur :: !hits;
    t := Time.add !t (dur + Time.ms 1)
  done;
  check "20 cache hits" 20 (Disk_model.cache_hits d);
  List.iter
    (fun dur ->
      checkb "hit under 2ms" true (dur < Time.ms 2);
      checkb "hit over 0.5ms" true (dur > Time.us 500))
    !hits

let writes_always_mechanical () =
  let d = Disk_model.create () in
  let t = ref Time.zero in
  let durs = ref [] in
  for i = 0 to 19 do
    let dur =
      Disk_model.service d ~now:!t ~op:Disk_model.Write ~lba:(5000 + (i * 16))
        ~nblocks:16
    in
    durs := dur :: !durs;
    t := Time.add !t (dur + Time.us 300)
  done;
  check "no cache hits for writes" 0 (Disk_model.cache_hits d);
  check "all mechanical" 20 (Disk_model.mechanical_ops d);
  (* Sequential writes separated by a gap miss their rotational
     position: most take the better part of a revolution. *)
  let mean =
    List.fold_left ( + ) 0 !durs / List.length !durs
  in
  checkb "writes ~10ms mean" true (mean > Time.ms 7 && mean < Time.ms 15)

let rotational_wait_bounded =
  QCheck.Test.make ~name:"service time bounded by seek+rotation+transfer"
    ~count:200
    QCheck.(pair (int_range 0 4_000_000) (int_range 0 1_000_000_000))
    (fun (lba, now) ->
      let d = Disk_model.create () in
      let dur = Disk_model.service d ~now ~op:Disk_model.Write ~lba ~nblocks:16 in
      let upper =
        p.Disk_params.controller_overhead + p.Disk_params.seek_max
        + p.Disk_params.rotation
        + (16 * p.Disk_params.rotation / Disk_params.blocks_per_track p)
      in
      dur > 0 && dur <= upper)

let out_of_range () =
  let d = Disk_model.create () in
  Alcotest.check_raises "beyond end"
    (Invalid_argument
       (Printf.sprintf "Disk_model.service: range [%d,%d) out of bounds"
          p.Disk_params.nblocks (p.Disk_params.nblocks + 16)))
    (fun () ->
      ignore
        (Disk_model.service d ~now:Time.zero ~op:Disk_model.Read
           ~lba:p.Disk_params.nblocks ~nblocks:16))

let interleaved_streams_keep_segments () =
  let d = Disk_model.create () in
  let t = ref Time.zero in
  let advance dur = t := Time.add !t (dur + Time.us 500) in
  (* Two interleaved sequential streams in different disk regions:
     after both prime their segments, each keeps hitting. *)
  advance (Disk_model.service d ~now:!t ~op:Disk_model.Read ~lba:0 ~nblocks:16);
  advance
    (Disk_model.service d ~now:!t ~op:Disk_model.Read ~lba:2_000_000 ~nblocks:16);
  let h0 = Disk_model.cache_hits d in
  for i = 1 to 10 do
    advance
      (Disk_model.service d ~now:!t ~op:Disk_model.Read ~lba:(i * 16) ~nblocks:16);
    advance
      (Disk_model.service d ~now:!t ~op:Disk_model.Read
         ~lba:(2_000_000 + (i * 16)) ~nblocks:16)
  done;
  check "both streams keep hitting" (h0 + 20) (Disk_model.cache_hits d)

let suite =
  [ ( "disk.params",
      [ Alcotest.test_case "vp3221 geometry" `Quick geometry;
        Alcotest.test_case "seek curve endpoints" `Quick seek_curve;
        qtest seek_monotonic ] );
    ( "disk.model",
      [ Alcotest.test_case "sequential reads hit cache" `Quick
          sequential_reads_hit_cache;
        Alcotest.test_case "writes are mechanical (~10ms)" `Quick
          writes_always_mechanical;
        qtest rotational_wait_bounded;
        Alcotest.test_case "bounds check" `Quick out_of_range;
        Alcotest.test_case "interleaved streams keep segments" `Quick
          interleaved_streams_keep_segments ] ) ]
