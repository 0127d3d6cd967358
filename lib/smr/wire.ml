(* Byte-level codec for the cluster protocol.  WIRE.md is the normative
   spec; the loopback test decodes the hexdump printed there, so keep
   the two in lockstep. *)

(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320). *)
(* lint: allow R4 — write-once CRC table, never mutated after init *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* Slicing-by-8 (Kounavis & Berry, ISCC 2005): [crc_slices.(k).(b)] is
   the CRC state after feeding byte [b] followed by [k] zero bytes, so
   eight input bytes fold into the state with eight independent lookups
   instead of eight dependent ones.  [crc_slices.(0)] is [crc_table]. *)
(* lint: allow R4 — write-once CRC tables, never mutated after init *)
let crc_slices =
  let s = Array.make 8 crc_table in
  for k = 1 to 7 do
    s.(k) <-
      Array.map (fun c -> crc_table.(c land 0xff) lxor (c lsr 8)) s.(k - 1)
  done;
  s

let crc32 bytes off len =
  if off < 0 || len < 0 || off > Bytes.length bytes - len then
    invalid_arg "Wire.crc32";
  let t0 = crc_slices.(0) and t1 = crc_slices.(1) and t2 = crc_slices.(2)
  and t3 = crc_slices.(3) and t4 = crc_slices.(4) and t5 = crc_slices.(5)
  and t6 = crc_slices.(6) and t7 = crc_slices.(7) in
  let c = ref 0xffffffff in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
  (* every index is masked to 0..255 and each table has 256 entries, so
     the table reads skip the bounds check; the byte loads keep theirs *)
  while !i < stop8 do
    let lo = Int32.to_int (Bytes.get_int32_le bytes !i) lxor !c in
    let hi = Int32.to_int (Bytes.get_int32_le bytes (!i + 4)) in
    c :=
      Array.unsafe_get t7 (lo land 0xff)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xff)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xff)
      lxor Array.unsafe_get t4 ((lo lsr 24) land 0xff)
      lxor Array.unsafe_get t3 (hi land 0xff)
      lxor Array.unsafe_get t2 ((hi lsr 8) land 0xff)
      lxor Array.unsafe_get t1 ((hi lsr 16) land 0xff)
      lxor Array.unsafe_get t0 ((hi lsr 24) land 0xff);
    i := !i + 8
  done;
  for j = stop8 to off + len - 1 do
    c := t0.((!c lxor Char.code (Bytes.get bytes j)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

type reply =
  | R_stored
  | R_value of string option
  | R_cas of { ok : bool; actual : string option }
  | R_redirect of { leader : int }
  | R_error of string

type t =
  | Hello of { sender : int }
  | Peer of Smr_messages.t
  | Request of { seq : int; cmd : Command.t }
  | Response of { seq : int; reply : reply }

type error =
  | Bad_magic
  | Bad_version
  | Bad_crc
  | Bad_tag of int
  | Too_large of int
  | Malformed

let pp_error fmt = function
  | Bad_magic -> Format.pp_print_string fmt "bad magic"
  | Bad_version -> Format.pp_print_string fmt "unsupported version"
  | Bad_crc -> Format.pp_print_string fmt "payload CRC mismatch"
  | Bad_tag t -> Format.fprintf fmt "unknown tag 0x%02x" t
  | Too_large n -> Format.fprintf fmt "payload length %d exceeds limit" n
  | Malformed -> Format.pp_print_string fmt "malformed payload"

let version = 0x01
let header_len = 12
let max_payload = 0x100_0000 (* 16 MiB *)

(* frame tags *)
let tag_hello = 0x01
let tag_m1a = 0x10
let tag_m1b = 0x11
let tag_m2a = 0x12
let tag_m2b = 0x13
let tag_forward = 0x14
let tag_chosen_digest = 0x15
let tag_chosen = 0x16
let tag_request = 0x20
let tag_response = 0x21

let tag_of = function
  | Hello _ -> tag_hello
  | Peer (Smr_messages.M1a _) -> tag_m1a
  | Peer (Smr_messages.M1b _) -> tag_m1b
  | Peer (Smr_messages.M2a _) -> tag_m2a
  | Peer (Smr_messages.M2b _) -> tag_m2b
  | Peer (Smr_messages.Forward _) -> tag_forward
  | Peer (Smr_messages.Chosen_digest _) -> tag_chosen_digest
  | Peer (Smr_messages.Chosen _) -> tag_chosen
  | Request _ -> tag_request
  | Response _ -> tag_response

(* ---- payload writers (big-endian throughout) ---- *)

let w_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))
let w_u32 b v = Buffer.add_int32_be b (Int32.of_int v)
let w_s64 b v = Buffer.add_int64_be b (Int64.of_int v)

let w_string b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_opt_string b = function
  | None -> w_u8 b 0
  | Some s ->
      w_u8 b 1;
      w_string b s

(* command opcodes *)
let op_noop = 0x00
let op_set = 0x01
let op_add = 0x02
let op_get = 0x03
let op_put = 0x04
let op_cas = 0x05
let op_batch = 0x06

let rec w_cmd b (c : Command.t) =
  w_s64 b c.id;
  match c.op with
  | Command.Noop -> w_u8 b op_noop
  | Command.Set v ->
      w_u8 b op_set;
      w_s64 b v
  | Command.Add d ->
      w_u8 b op_add;
      w_s64 b d
  | Command.Kv_get k ->
      w_u8 b op_get;
      w_string b k
  | Command.Kv_put { key; value } ->
      w_u8 b op_put;
      w_string b key;
      w_string b value
  | Command.Kv_cas { key; expect; set } ->
      w_u8 b op_cas;
      w_string b key;
      w_opt_string b expect;
      w_string b set
  | Command.Batch cmds ->
      w_u8 b op_batch;
      w_u32 b (List.length cmds);
      List.iter (w_cmd b) cmds

let w_reply b = function
  | R_stored -> w_u8 b 0x00
  | R_value v ->
      w_u8 b 0x01;
      w_opt_string b v
  | R_cas { ok; actual } ->
      w_u8 b 0x02;
      w_u8 b (if ok then 1 else 0);
      w_opt_string b actual
  | R_redirect { leader } ->
      w_u8 b 0x03;
      w_s64 b leader
  | R_error msg ->
      w_u8 b 0x04;
      w_string b msg

let w_payload b = function
  | Hello { sender } -> w_s64 b sender
  | Peer (Smr_messages.M1a { mbal }) -> w_s64 b mbal
  | Peer (Smr_messages.M1b { mbal; votes; chosen_upto }) ->
      w_s64 b mbal;
      w_s64 b chosen_upto;
      w_u32 b (List.length votes);
      List.iter
        (fun (i, (v : Smr_messages.ivote)) ->
          w_s64 b i;
          w_s64 b v.vbal;
          w_cmd b v.vcmd)
        votes
  | Peer (Smr_messages.M2a { mbal; instance; cmd })
  | Peer (Smr_messages.M2b { mbal; instance; cmd }) ->
      w_s64 b mbal;
      w_s64 b instance;
      w_cmd b cmd
  | Peer (Smr_messages.Forward { cmd }) -> w_cmd b cmd
  | Peer (Smr_messages.Chosen_digest { upto }) -> w_s64 b upto
  | Peer (Smr_messages.Chosen { instance; cmd }) ->
      w_s64 b instance;
      w_cmd b cmd
  | Request { seq; cmd } ->
      w_s64 b seq;
      w_cmd b cmd
  | Response { seq; reply } ->
      w_s64 b seq;
      w_reply b reply

(* The frame is allocated once, at its exact size: the payload is
   built in a scratch buffer, blitted once behind a header-sized gap,
   and the header (which needs the payload's length and CRC) is written
   in place. *)
let to_bytes msg =
  let payload = Buffer.create 64 in
  w_payload payload msg;
  let len = Buffer.length payload in
  let frame = Bytes.create (header_len + len) in
  Buffer.blit payload 0 frame header_len len;
  Bytes.set frame 0 'E';
  Bytes.set frame 1 'S';
  Bytes.set_uint8 frame 2 version;
  Bytes.set_uint8 frame 3 (tag_of msg);
  Bytes.set_int32_be frame 4 (Int32.of_int len);
  Bytes.set_int32_be frame 8 (Int32.of_int (crc32 frame header_len len));
  frame

let encode buf msg = Buffer.add_bytes buf (to_bytes msg)

(* ---- payload readers ---- *)

exception Truncated

type reader = { rbuf : Bytes.t; mutable rpos : int; rend : int }

let need r n = if r.rpos + n > r.rend then raise Truncated

let r_u8 r =
  need r 1;
  let v = Char.code (Bytes.get r.rbuf r.rpos) in
  r.rpos <- r.rpos + 1;
  v

let r_u32 r =
  need r 4;
  let v = Int32.to_int (Bytes.get_int32_be r.rbuf r.rpos) land 0xffffffff in
  r.rpos <- r.rpos + 4;
  v

let r_s64 r =
  need r 8;
  let v = Int64.to_int (Bytes.get_int64_be r.rbuf r.rpos) in
  r.rpos <- r.rpos + 8;
  v

let r_string r =
  let n = r_u32 r in
  need r n;
  let s = Bytes.sub_string r.rbuf r.rpos n in
  r.rpos <- r.rpos + n;
  s

let r_opt_string r =
  match r_u8 r with
  | 0 -> None
  | 1 -> Some (r_string r)
  | _ -> raise Truncated

let rec r_cmd r : Command.t =
  let id = r_s64 r in
  let op =
    match r_u8 r with
    | o when o = op_noop -> Command.Noop
    | o when o = op_set -> Command.Set (r_s64 r)
    | o when o = op_add -> Command.Add (r_s64 r)
    | o when o = op_get -> Command.Kv_get (r_string r)
    | o when o = op_put ->
        let key = r_string r in
        let value = r_string r in
        Command.Kv_put { key; value }
    | o when o = op_cas ->
        let key = r_string r in
        let expect = r_opt_string r in
        let set = r_string r in
        Command.Kv_cas { key; expect; set }
    | o when o = op_batch ->
        let n = r_u32 r in
        if n > max_payload then raise Truncated;
        let cmds = List.init n (fun _ -> r_cmd r) in
        Command.Batch cmds
    | _ -> raise Truncated
  in
  { id; op }

let r_reply r =
  match r_u8 r with
  | 0x00 -> R_stored
  | 0x01 -> R_value (r_opt_string r)
  | 0x02 ->
      let ok = r_u8 r = 1 in
      let actual = r_opt_string r in
      R_cas { ok; actual }
  | 0x03 -> R_redirect { leader = r_s64 r }
  | 0x04 -> R_error (r_string r)
  | _ -> raise Truncated

let r_payload tag r =
  if tag = tag_hello then Some (Hello { sender = r_s64 r })
  else if tag = tag_m1a then Some (Peer (Smr_messages.M1a { mbal = r_s64 r }))
  else if tag = tag_m1b then (
    let mbal = r_s64 r in
    let chosen_upto = r_s64 r in
    let n = r_u32 r in
    if n > max_payload then raise Truncated;
    let votes =
      List.init n (fun _ ->
          let i = r_s64 r in
          let vbal = r_s64 r in
          let vcmd = r_cmd r in
          (i, { Smr_messages.vbal; vcmd }))
    in
    Some (Peer (Smr_messages.M1b { mbal; votes; chosen_upto })))
  else if tag = tag_m2a then (
    let mbal = r_s64 r in
    let instance = r_s64 r in
    let cmd = r_cmd r in
    Some (Peer (Smr_messages.M2a { mbal; instance; cmd })))
  else if tag = tag_m2b then (
    let mbal = r_s64 r in
    let instance = r_s64 r in
    let cmd = r_cmd r in
    Some (Peer (Smr_messages.M2b { mbal; instance; cmd })))
  else if tag = tag_forward then Some (Peer (Smr_messages.Forward { cmd = r_cmd r }))
  else if tag = tag_chosen_digest then
    Some (Peer (Smr_messages.Chosen_digest { upto = r_s64 r }))
  else if tag = tag_chosen then (
    let instance = r_s64 r in
    let cmd = r_cmd r in
    Some (Peer (Smr_messages.Chosen { instance; cmd })))
  else if tag = tag_request then (
    let seq = r_s64 r in
    let cmd = r_cmd r in
    Some (Request { seq; cmd }))
  else if tag = tag_response then (
    let seq = r_s64 r in
    let reply = r_reply r in
    Some (Response { seq; reply }))
  else None

let decode buf ~pos ~avail =
  if avail < header_len then Error `Need_more
  else if Bytes.get buf pos <> 'E' || Bytes.get buf (pos + 1) <> 'S' then
    Error (`Error Bad_magic)
  else if Char.code (Bytes.get buf (pos + 2)) <> version then
    Error (`Error Bad_version)
  else
    let tag = Char.code (Bytes.get buf (pos + 3)) in
    let len =
      Int32.to_int (Bytes.get_int32_be buf (pos + 4)) land 0xffffffff
    in
    if len > max_payload then Error (`Error (Too_large len))
    else if avail < header_len + len then Error `Need_more
    else
      let crc_expect =
        Int32.to_int (Bytes.get_int32_be buf (pos + 8)) land 0xffffffff
      in
      if crc32 buf (pos + header_len) len <> crc_expect then
        Error (`Error Bad_crc)
      else
        let r = { rbuf = buf; rpos = pos + header_len; rend = pos + header_len + len } in
        match r_payload tag r with
        | None -> Error (`Error (Bad_tag tag))
        | Some msg ->
            (* every payload byte must be consumed: trailing garbage is
               a framing bug, not forward-compat slack *)
            if r.rpos <> r.rend then Error (`Error Malformed)
            else Ok (msg, header_len + len)
        | exception Truncated -> Error (`Error Malformed)

let info = function
  | Hello { sender } -> Printf.sprintf "hello(%d)" sender
  | Peer m -> Smr_messages.info m
  | Request { seq; cmd } ->
      Printf.sprintf "request(#%d,%s)" seq (Command.info cmd)
  | Response { seq; _ } -> Printf.sprintf "response(#%d)" seq

let reply_of_kv = function
  | Kv_state.Stored | Kv_state.Noreply -> R_stored
  | Kv_state.Found v -> R_value (Some v)
  | Kv_state.Absent -> R_value None
  | Kv_state.Cas_ok -> R_cas { ok = true; actual = None }
  | Kv_state.Cas_fail actual -> R_cas { ok = false; actual }
