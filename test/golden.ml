(* Byte-for-byte pins on experiment reports. Each file under
   test/golden/ is the [to_json] of a seeded smoke run recorded before
   the code it covers was last refactored; a diff means a virtual-time
   number, a counter or the JSON layout moved. *)

let check ~file actual =
  let expected =
    In_channel.with_open_bin (Filename.concat "golden" file)
      In_channel.input_all
  in
  Alcotest.(check string) ("golden " ^ file) expected actual
