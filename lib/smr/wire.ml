(* Byte-level codec for the cluster protocol.  WIRE.md is the normative
   spec; the loopback test decodes the hexdump printed there, so keep
   the two in lockstep. *)

(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), in
   crc32_stubs.c: a carry-less-multiply fold for bodies of 64 bytes or
   more on x86-64 CPUs with PCLMULQDQ, a slicing-by-8 table loop for the
   rest.  The stub trusts its range, so [crc32] checks it first. *)
external crc32_init : unit -> unit = "wire_crc32_init"

external crc32_unchecked :
  Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "wire_crc32_byte" "wire_crc32"
[@@noalloc]

let () = crc32_init ()

let crc32 bytes off len =
  if off < 0 || len < 0 || off > Bytes.length bytes - len then
    invalid_arg "Wire.crc32";
  crc32_unchecked bytes off len

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

(* ---- payload sizes and writers (big-endian throughout) ----

   A frame is written in two passes: [s_*] computes the payload's exact
   length, then [w_*] writes it in place, each writer taking the
   position to write at and returning the position after it. *)

(* command opcodes *)
let op_noop = 0x00
let op_set = 0x01
let op_add = 0x02
let op_get = 0x03
let op_put = 0x04
let op_cas = 0x05
let op_batch = 0x06

let s_string s = 4 + String.length s

let s_opt_string = function None -> 1 | Some s -> 1 + s_string s

(* id (8 bytes) and opcode (1), then the operands *)
let rec s_cmd (c : Command.t) =
  9
  +
  match c.op with
  | Command.Noop -> 0
  | Command.Set _ | Command.Add _ -> 8
  | Command.Kv_get k -> s_string k
  | Command.Kv_put { key; value } -> s_string key + s_string value
  | Command.Kv_cas { key; expect; set } ->
      s_string key + s_opt_string expect + s_string set
  | Command.Batch cmds -> List.fold_left (fun n c -> n + s_cmd c) 4 cmds

let s_reply = function
  | R_stored -> 1
  | R_value v -> 1 + s_opt_string v
  | R_cas { ok = _; actual } -> 2 + s_opt_string actual
  | R_redirect _ -> 9
  | R_error msg -> 1 + s_string msg

let s_payload = function
  | Hello _ | Peer (Smr_messages.M1a _) | Peer (Smr_messages.Chosen_digest _)
    ->
      8
  | Peer (Smr_messages.M1b { mbal = _; votes; chosen_upto = _ }) ->
      (* mbal, chosen_upto and the vote count; per vote its instance,
         its ballot and its command *)
      List.fold_left
        (fun n (_, (v : Smr_messages.ivote)) -> n + 16 + s_cmd v.vcmd)
        20 votes
  | Peer (Smr_messages.M2a { cmd; _ }) | Peer (Smr_messages.M2b { cmd; _ }) ->
      16 + s_cmd cmd
  | Peer (Smr_messages.Forward { cmd }) -> s_cmd cmd
  | Peer (Smr_messages.Chosen { cmd; _ }) -> 8 + s_cmd cmd
  | Request { cmd; _ } -> 8 + s_cmd cmd
  | Response { reply; _ } -> 8 + s_reply reply

let w_u8 b p v =
  Bytes.set_uint8 b p (v land 0xff);
  p + 1

let w_u32 b p v =
  Bytes.set_int32_be b p (Int32.of_int v);
  p + 4

let w_s64 b p v =
  Bytes.set_int64_be b p (Int64.of_int v);
  p + 8

let w_string b p s =
  let n = String.length s in
  let p = w_u32 b p n in
  Bytes.blit_string s 0 b p n;
  p + n

let w_opt_string b p = function
  | None -> w_u8 b p 0
  | Some s -> w_string b (w_u8 b p 1) s

let rec w_cmd b p (c : Command.t) =
  let p = w_s64 b p c.id in
  match c.op with
  | Command.Noop -> w_u8 b p op_noop
  | Command.Set v -> w_s64 b (w_u8 b p op_set) v
  | Command.Add d -> w_s64 b (w_u8 b p op_add) d
  | Command.Kv_get k -> w_string b (w_u8 b p op_get) k
  | Command.Kv_put { key; value } ->
      w_string b (w_string b (w_u8 b p op_put) key) value
  | Command.Kv_cas { key; expect; set } ->
      let p = w_string b (w_u8 b p op_cas) key in
      w_string b (w_opt_string b p expect) set
  | Command.Batch cmds ->
      let p = w_u32 b (w_u8 b p op_batch) (List.length cmds) in
      List.fold_left (w_cmd b) p cmds

let w_reply b p = function
  | R_stored -> w_u8 b p 0x00
  | R_value v -> w_opt_string b (w_u8 b p 0x01) v
  | R_cas { ok; actual } ->
      let p = w_u8 b (w_u8 b p 0x02) (if ok then 1 else 0) in
      w_opt_string b p actual
  | R_redirect { leader } -> w_s64 b (w_u8 b p 0x03) leader
  | R_error msg -> w_string b (w_u8 b p 0x04) msg

let w_payload b p = function
  | Hello { sender } -> w_s64 b p sender
  | Peer (Smr_messages.M1a { mbal }) -> w_s64 b p mbal
  | Peer (Smr_messages.M1b { mbal; votes; chosen_upto }) ->
      let p = w_s64 b (w_s64 b p mbal) chosen_upto in
      List.fold_left
        (fun p (i, (v : Smr_messages.ivote)) ->
          w_cmd b (w_s64 b (w_s64 b p i) v.vbal) v.vcmd)
        (w_u32 b p (List.length votes))
        votes
  | Peer (Smr_messages.M2a { mbal; instance; cmd })
  | Peer (Smr_messages.M2b { mbal; instance; cmd }) ->
      w_cmd b (w_s64 b (w_s64 b p mbal) instance) cmd
  | Peer (Smr_messages.Forward { cmd }) -> w_cmd b p cmd
  | Peer (Smr_messages.Chosen_digest { upto }) -> w_s64 b p upto
  | Peer (Smr_messages.Chosen { instance; cmd }) ->
      w_cmd b (w_s64 b p instance) cmd
  | Request { seq; cmd } -> w_cmd b (w_s64 b p seq) cmd
  | Response { seq; reply } -> w_reply b (w_s64 b p seq) reply

let size msg = header_len + s_payload msg

(* The header needs the payload's length and CRC, so the payload goes
   in first, behind a header-sized gap. *)
let write buf off msg =
  let len = s_payload msg in
  if off < 0 || off > Bytes.length buf - header_len - len then
    invalid_arg "Wire.write";
  let body = off + header_len in
  ignore (w_payload buf body msg : int);
  Bytes.set buf off 'E';
  Bytes.set buf (off + 1) 'S';
  Bytes.set_uint8 buf (off + 2) version;
  Bytes.set_uint8 buf (off + 3) (tag_of msg);
  Bytes.set_int32_be buf (off + 4) (Int32.of_int len);
  Bytes.set_int32_be buf (off + 8) (Int32.of_int (crc32_unchecked buf body len));
  header_len + len

let to_bytes msg =
  let frame = Bytes.create (size msg) in
  ignore (write frame 0 msg : int);
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
