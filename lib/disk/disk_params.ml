open Engine

type t = {
  nblocks : int;
  block_size : int;
  heads : int;
  sectors_per_track : int;
  rotation : Time.span;
  seek_min : Time.span;
  seek_max : Time.span;
  head_switch : Time.span;
  controller_overhead : Time.span;
  bus_rate : float;
  cache_segments : int;
  write_cache : bool;
}

let vp3221 =
  { nblocks = 4_304_536;
    block_size = 512;
    heads = 6;
    sectors_per_track = 256;
    rotation = Time.of_us_float 11_111.1; (* 5400 rpm *)
    seek_min = Time.of_ms_float 2.5;
    seek_max = Time.of_ms_float 22.0;
    head_switch = Time.of_ms_float 1.0;
    controller_overhead = Time.of_us_float 300.0;
    bus_rate = 10.0e6; (* Fast SCSI-2 *)
    cache_segments = 4;
    write_cache = false }

let blocks_per_track t = t.sectors_per_track

let blocks_per_cylinder t = t.heads * t.sectors_per_track

let cylinders t = (t.nblocks + blocks_per_cylinder t - 1) / blocks_per_cylinder t

let cylinder_of_lba t lba = lba / blocks_per_cylinder t

let sector_in_track t lba = lba mod t.sectors_per_track

let seek_time t distance =
  if distance <= 0 then 0
  else begin
    let frac =
      sqrt (float_of_int distance /. float_of_int (max 1 (cylinders t - 1)))
    in
    let min_ns = float_of_int t.seek_min and max_ns = float_of_int t.seek_max in
    int_of_float (min_ns +. ((max_ns -. min_ns) *. frac))
  end
