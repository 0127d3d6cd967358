(* The socket wire codec: round-trip identity, rejection of truncated
   and corrupted frames, and byte-for-byte agreement with the worked
   example in WIRE.md. *)

open Smr

(* --- equality over Wire.t (structural, via the public types) ---------- *)

let reply_equal (a : Wire.reply) (b : Wire.reply) =
  match (a, b) with
  | Wire.R_stored, Wire.R_stored -> true
  | Wire.R_value x, Wire.R_value y -> Option.equal String.equal x y
  | Wire.R_cas x, Wire.R_cas y ->
      x.ok = y.ok && Option.equal String.equal x.actual y.actual
  | Wire.R_redirect x, Wire.R_redirect y -> x.leader = y.leader
  | Wire.R_error x, Wire.R_error y -> String.equal x y
  | ( ( Wire.R_stored | Wire.R_value _ | Wire.R_cas _ | Wire.R_redirect _
      | Wire.R_error _ ),
      _ ) ->
      false

let ivote_equal (a : Smr_messages.ivote) (b : Smr_messages.ivote) =
  a.vbal = b.vbal && Command.equal a.vcmd b.vcmd

let peer_equal (a : Smr_messages.t) (b : Smr_messages.t) =
  match (a, b) with
  | Smr_messages.M1a x, Smr_messages.M1a y -> x.mbal = y.mbal
  | Smr_messages.M1b x, Smr_messages.M1b y ->
      x.mbal = y.mbal
      && x.chosen_upto = y.chosen_upto
      && List.equal
           (fun (i1, v1) (i2, v2) -> i1 = i2 && ivote_equal v1 v2)
           x.votes y.votes
  | Smr_messages.M2a x, Smr_messages.M2a y ->
      x.mbal = y.mbal && x.instance = y.instance && Command.equal x.cmd y.cmd
  | Smr_messages.M2b x, Smr_messages.M2b y ->
      x.mbal = y.mbal && x.instance = y.instance && Command.equal x.cmd y.cmd
  | Smr_messages.Forward x, Smr_messages.Forward y -> Command.equal x.cmd y.cmd
  | Smr_messages.Chosen_digest x, Smr_messages.Chosen_digest y ->
      x.upto = y.upto
  | Smr_messages.Chosen x, Smr_messages.Chosen y ->
      x.instance = y.instance && Command.equal x.cmd y.cmd
  | ( ( Smr_messages.M1a _ | Smr_messages.M1b _ | Smr_messages.M2a _
      | Smr_messages.M2b _ | Smr_messages.Forward _
      | Smr_messages.Chosen_digest _ | Smr_messages.Chosen _ ),
      _ ) ->
      false

let wire_equal (a : Wire.t) (b : Wire.t) =
  match (a, b) with
  | Wire.Hello x, Wire.Hello y -> x.sender = y.sender
  | Wire.Peer x, Wire.Peer y -> peer_equal x y
  | Wire.Request x, Wire.Request y ->
      x.seq = y.seq && Command.equal x.cmd y.cmd
  | Wire.Response x, Wire.Response y ->
      x.seq = y.seq && reply_equal x.reply y.reply
  | (Wire.Hello _ | Wire.Peer _ | Wire.Request _ | Wire.Response _), _ ->
      false

(* --- generators ------------------------------------------------------- *)

let gen_key =
  QCheck.Gen.(
    frequency
      [ (9, map (Printf.sprintf "k%d") (int_bound 999)); (1, return "") ])

let gen_value = QCheck.Gen.(string_size (int_bound 24))

let gen_simple_op =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Command.Set v) small_signed_int;
        map (fun v -> Command.Add v) small_signed_int;
        return Command.Noop;
        map (fun k -> Command.Kv_get k) gen_key;
        map2 (fun key value -> Command.Kv_put { key; value }) gen_key gen_value;
        map3
          (fun key expect set -> Command.Kv_cas { key; expect; set })
          gen_key (opt gen_value) gen_value;
      ])

let gen_cmd =
  QCheck.Gen.(
    let gen_simple_cmd =
      map2 (fun id op -> Command.make ~id op) (int_bound 100000) gen_simple_op
    in
    oneof
      [
        gen_simple_cmd;
        map2
          (fun id cmds -> Command.make ~id (Command.Batch cmds))
          (int_bound 100000)
          (list_size (int_range 0 8)
             (map2
                (fun id op -> Command.make ~id op)
                (int_bound 100000) gen_simple_op));
      ])

let gen_ivote =
  QCheck.Gen.(
    map2
      (fun vbal vcmd -> { Smr_messages.vbal; vcmd })
      (int_bound 1000) gen_cmd)

let gen_peer =
  QCheck.Gen.(
    oneof
      [
        map (fun mbal -> Smr_messages.M1a { mbal }) (int_bound 1000);
        map3
          (fun mbal votes chosen_upto ->
            Smr_messages.M1b { mbal; votes; chosen_upto })
          (int_bound 1000)
          (list_size (int_range 0 6)
             (map2 (fun i v -> (i, v)) (int_bound 100) gen_ivote))
          (int_bound 100);
        map3
          (fun mbal instance cmd -> Smr_messages.M2a { mbal; instance; cmd })
          (int_bound 1000) (int_bound 1000) gen_cmd;
        map3
          (fun mbal instance cmd -> Smr_messages.M2b { mbal; instance; cmd })
          (int_bound 1000) (int_bound 1000) gen_cmd;
        map (fun cmd -> Smr_messages.Forward { cmd }) gen_cmd;
        map (fun upto -> Smr_messages.Chosen_digest { upto }) (int_bound 1000);
        map2
          (fun instance cmd -> Smr_messages.Chosen { instance; cmd })
          (int_bound 1000) gen_cmd;
      ])

let gen_reply =
  QCheck.Gen.(
    oneof
      [
        return Wire.R_stored;
        map (fun v -> Wire.R_value v) (opt gen_value);
        map2
          (fun ok actual -> Wire.R_cas { ok; actual })
          bool (opt gen_value);
        map (fun leader -> Wire.R_redirect { leader }) (int_bound 10);
        map (fun m -> Wire.R_error m) (string_size (int_bound 32));
      ])

let gen_wire =
  QCheck.Gen.(
    oneof
      [
        map (fun sender -> Wire.Hello { sender }) (int_range (-1) 10);
        map (fun m -> Wire.Peer m) gen_peer;
        map2 (fun seq cmd -> Wire.Request { seq; cmd }) (int_bound 100000)
          gen_cmd;
        map2
          (fun seq reply -> Wire.Response { seq; reply })
          (int_bound 100000) gen_reply;
      ])

let arb_wire = QCheck.make ~print:Wire.info gen_wire

(* --- properties ------------------------------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"wire: encode/decode identity" ~count:500 arb_wire
    (fun msg ->
      let bytes = Wire.to_bytes msg in
      match Wire.decode bytes ~pos:0 ~avail:(Bytes.length bytes) with
      | Ok (decoded, used) ->
          used = Bytes.length bytes && wire_equal msg decoded
      | Error `Need_more -> QCheck.Test.fail_report "spurious Need_more"
      | Error (`Error e) ->
          QCheck.Test.fail_reportf "decode error: %a" Wire.pp_error e)

let prop_size =
  QCheck.Test.make ~name:"wire: size is the encoded length" ~count:500
    arb_wire (fun msg -> Wire.size msg = Bytes.length (Wire.to_bytes msg))

(* [write] into a sentinel-filled buffer at a random offset produces the
   [to_bytes] frame there and touches nothing else; one byte less room,
   or a negative offset, raises before anything is written. *)
let prop_write_in_place =
  QCheck.Test.make ~name:"wire: write at an offset touches only its frame"
    ~count:300
    (QCheck.pair arb_wire (QCheck.int_bound 40))
    (fun (msg, off) ->
      let frame = Wire.to_bytes msg in
      let n = Bytes.length frame in
      let buf = Bytes.make (off + n + 7) '\xa5' in
      let written = Wire.write buf off msg in
      let untouched lo hi =
        let ok = ref true in
        for i = lo to hi - 1 do
          if Bytes.get buf i <> '\xa5' then ok := false
        done;
        !ok
      in
      let tight = Bytes.make (off + n - 1) '\xa5' in
      let refused buf off =
        match Wire.write buf off msg with
        | _ -> false
        | exception Invalid_argument _ ->
            Bytes.for_all (fun c -> c = '\xa5') buf
      in
      written = n
      && Bytes.equal (Bytes.sub buf off n) frame
      && untouched 0 off
      && untouched (off + n) (Bytes.length buf)
      && refused tight off
      && refused (Bytes.make (n + 8) '\xa5') (-1))

let prop_truncated =
  QCheck.Test.make ~name:"wire: every strict prefix wants more bytes"
    ~count:200 arb_wire (fun msg ->
      let bytes = Wire.to_bytes msg in
      let ok = ref true in
      for avail = 0 to Bytes.length bytes - 1 do
        match Wire.decode bytes ~pos:0 ~avail with
        | Error `Need_more -> ()
        | Ok _ | Error (`Error _) -> ok := false
      done;
      !ok)

let prop_bad_crc =
  QCheck.Test.make ~name:"wire: payload corruption is caught" ~count:200
    arb_wire (fun msg ->
      let bytes = Wire.to_bytes msg in
      QCheck.assume (Bytes.length bytes > Wire.header_len);
      (* flip one bit in every payload byte in turn *)
      let ok = ref true in
      for i = Wire.header_len to Bytes.length bytes - 1 do
        let orig = Bytes.get bytes i in
        Bytes.set bytes i (Char.chr (Char.code orig lxor 0x40));
        (match Wire.decode bytes ~pos:0 ~avail:(Bytes.length bytes) with
        | Error (`Error Wire.Bad_crc) -> ()
        | Ok _ | Error _ -> ok := false);
        Bytes.set bytes i orig
      done;
      !ok)

(* The bytewise table loop: the reference that both the carry-less fold
   and the slicing-by-8 table loop behind [Wire.crc32] must agree with
   on every range. *)
let crc32_reference =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  fun bytes off len ->
    let c = ref 0xffffffff in
    for i = off to off + len - 1 do
      c :=
        table.((!c lxor Char.code (Bytes.get bytes i)) land 0xff)
        lxor (!c lsr 8)
    done;
    !c lxor 0xffffffff

(* A random buffer of 80 bytes to just over 4 KiB and one random range
   inside it, possibly running to the buffer's end. *)
let arb_crc_case =
  QCheck.make
    ~print:(fun (s, off, len) ->
      Printf.sprintf "buffer of %d bytes, off %d, len %d" (String.length s)
        off len)
    QCheck.Gen.(
      string_size (int_range 80 4200) >>= fun s ->
      let n = String.length s in
      int_bound n >>= fun off ->
      map (fun len -> (s, off, len)) (int_bound (n - off)))

let prop_crc_slicing =
  QCheck.Test.make ~name:"wire: crc32 matches the bytewise reference"
    ~count:200 arb_crc_case (fun (s, off, len) ->
      let b = Bytes.of_string s in
      Wire.crc32 b off len = crc32_reference b off len)

(* Every offset 0-15 against every length 0-300 hits each alignment of
   the 16-byte fold, the 64-byte threshold between the table loop and
   the fold, one to four 64-byte steps and every tail length; a 1 MiB
   buffer runs the fold's main loop for a long stretch. *)
let test_crc_offsets_lengths () =
  let rng = Random.State.make [| 24 |] in
  let b = Bytes.init (16 + 300) (fun _ -> Char.chr (Random.State.int rng 256)) in
  for off = 0 to 15 do
    for len = 0 to 300 do
      let got = Wire.crc32 b off len and want = crc32_reference b off len in
      if got <> want then
        Alcotest.failf "off %d len %d: crc32 %08x, reference %08x" off len
          got want
    done
  done;
  let big =
    Bytes.init ((1 lsl 20) + 13) (fun _ -> Char.chr (Random.State.int rng 256))
  in
  Alcotest.(check int) "1 MiB buffer"
    (crc32_reference big 5 (Bytes.length big - 5))
    (Wire.crc32 big 5 (Bytes.length big - 5))

let test_crc_bad_range () =
  let b = Bytes.make 16 'x' in
  let raises name off len =
    match Wire.crc32 b off len with
    | _ -> Alcotest.failf "%s: crc32 %d %d did not raise" name off len
    | exception Invalid_argument _ -> ()
  in
  raises "negative offset" (-1) 4;
  raises "negative length" 0 (-1);
  raises "range past the end" 9 8;
  raises "offset past the end" 17 0;
  Alcotest.(check int) "empty range at the end" 0 (Wire.crc32 b 16 0)

(* --- directed cases --------------------------------------------------- *)

let hex_to_bytes s =
  let s =
    String.concat ""
      (String.split_on_char ' '
         (String.concat "" (String.split_on_char '\n' s)))
  in
  let n = String.length s / 2 in
  Bytes.init n (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

(* The worked `set` round trip from WIRE.md — the documented hexdump
   must decode to exactly these messages and re-encode byte-for-byte. *)
let documented_request =
  "4553 0120 0000 001d 5a99 fbd9 0000 0000\n\
   0000 0001 0000 0000 0000 0000 0400 0000\n\
   026b 3100 0000 0276 31"

let documented_response = "4553 0121 0000 0009 ff12 25ef 0000 0000 0000 0001 00"

let test_wire_md_request () =
  let bytes = hex_to_bytes documented_request in
  match Wire.decode bytes ~pos:0 ~avail:(Bytes.length bytes) with
  | Ok (msg, used) ->
      Alcotest.(check int) "consumed" (Bytes.length bytes) used;
      let expected =
        Wire.Request
          {
            seq = 1;
            cmd =
              Command.make ~id:0
                (Command.Kv_put { key = "k1"; value = "v1" });
          }
      in
      Alcotest.(check bool) "decodes to the documented set" true
        (wire_equal expected msg);
      Alcotest.(check bytes) "re-encodes byte-for-byte" bytes
        (Wire.to_bytes msg)
  | Error `Need_more -> Alcotest.fail "documented request: Need_more"
  | Error (`Error e) ->
      Alcotest.failf "documented request: %a" Wire.pp_error e

let test_wire_md_response () =
  let bytes = hex_to_bytes documented_response in
  match Wire.decode bytes ~pos:0 ~avail:(Bytes.length bytes) with
  | Ok (msg, used) ->
      Alcotest.(check int) "consumed" (Bytes.length bytes) used;
      Alcotest.(check bool) "decodes to the documented stored reply" true
        (wire_equal (Wire.Response { seq = 1; reply = Wire.R_stored }) msg);
      Alcotest.(check bytes) "re-encodes byte-for-byte" bytes
        (Wire.to_bytes msg)
  | Error `Need_more -> Alcotest.fail "documented response: Need_more"
  | Error (`Error e) ->
      Alcotest.failf "documented response: %a" Wire.pp_error e

let test_bad_magic_version_tag () =
  let bytes = Wire.to_bytes (Wire.Hello { sender = 2 }) in
  let mutate i v =
    let b = Bytes.copy bytes in
    Bytes.set b i (Char.chr v);
    Wire.decode b ~pos:0 ~avail:(Bytes.length b)
  in
  (match mutate 0 0x58 with
  | Error (`Error Wire.Bad_magic) -> ()
  | Ok _ | Error _ -> Alcotest.fail "bad magic not rejected");
  (match mutate 2 0x7f with
  | Error (`Error Wire.Bad_version) -> ()
  | Ok _ | Error _ -> Alcotest.fail "bad version not rejected");
  match mutate 3 0xee with
  | Error (`Error (Wire.Bad_tag 0xee)) -> ()
  | Ok _ | Error _ -> Alcotest.fail "bad tag not rejected"

let test_crc_vector () =
  (* the classic check value: CRC-32("123456789") = 0xcbf43926 *)
  Alcotest.(check int) "crc32 check vector" 0xcbf43926
    (Wire.crc32 (Bytes.of_string "123456789") 0 9)

let suite =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_roundtrip;
      prop_size;
      prop_write_in_place;
      prop_truncated;
      prop_bad_crc;
      prop_crc_slicing;
    ]
  @ [
      Alcotest.test_case "crc32: offsets 0-15 x lengths 0-300, 1 MiB" `Quick
        test_crc_offsets_lengths;
      Alcotest.test_case "crc32 check vector" `Quick test_crc_vector;
      Alcotest.test_case "crc32 rejects a bad range" `Quick test_crc_bad_range;
      Alcotest.test_case "WIRE.md request hexdump" `Quick test_wire_md_request;
      Alcotest.test_case "WIRE.md response hexdump" `Quick
        test_wire_md_response;
      Alcotest.test_case "bad magic/version/tag" `Quick
        test_bad_magic_version_tag;
    ]
