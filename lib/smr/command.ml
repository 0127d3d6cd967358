type op =
  | Set of int
  | Add of int
  | Noop
  | Kv_get of string
  | Kv_put of { key : string; value : string }
  | Kv_cas of { key : string; expect : string option; set : string }
  | Batch of t list

and t = { id : int; op : op }

let rec valid_op = function
  | Set _ | Add _ | Noop | Kv_get _ | Kv_put _ | Kv_cas _ -> true
  | Batch cmds ->
      (* one level of batching only: a decree is a flat run of client
         commands, each with its own non-negative id *)
      List.for_all
        (fun c ->
          c.id >= 0
          && (match c.op with Batch _ -> false | _ -> true)
          && valid_op c.op)
        cmds

let make ~id op =
  if id < 0 then invalid_arg "Command.make: negative id";
  if not (valid_op op) then
    invalid_arg "Command.make: nested or malformed batch";
  { id; op }

let noop = { id = -1; op = Noop }

let is_noop c = match c.op with Noop -> true | _ -> false

let rec apply state cmd =
  match cmd.op with
  | Set v -> v
  | Add d -> state + d
  | Noop -> state
  (* key/value traffic leaves the integer register untouched; the real
     store lives in {!Kv_state} *)
  | Kv_get _ | Kv_put _ | Kv_cas _ -> state
  | Batch cmds -> List.fold_left apply state cmds

(* FNV-1a over (id, op) words: cheap, order-sensitive. *)
let mix h x = (h lxor x) * 0x100000001b3 land max_int

let mix_string h s =
  let h = ref (mix h (String.length s)) in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

let mix_opt_string h = function
  | None -> mix h 0
  | Some s -> mix_string (mix h 1) s

let rec mix_cmd h c =
  let h = mix h c.id in
  match c.op with
  | Set v -> mix (mix h 1) v
  | Add d -> mix (mix h 2) d
  | Noop -> mix (mix h 3) 0
  | Kv_get k -> mix_string (mix h 4) k
  | Kv_put { key; value } -> mix_string (mix_string (mix h 5) key) value
  | Kv_cas { key; expect; set } ->
      mix_string (mix_opt_string (mix_string (mix h 6) key) expect) set
  | Batch cmds ->
      List.fold_left mix_cmd (mix (mix h 7) (List.length cmds)) cmds

let checksum cmds = List.fold_left mix_cmd 0xcbf29ce4 cmds

let rec equal a b =
  a.id = b.id
  &&
  match (a.op, b.op) with
  | Set x, Set y | Add x, Add y -> x = y
  | Noop, Noop -> true
  | Kv_get x, Kv_get y -> String.equal x y
  | Kv_put x, Kv_put y ->
      String.equal x.key y.key && String.equal x.value y.value
  | Kv_cas x, Kv_cas y ->
      String.equal x.key y.key
      && Option.equal String.equal x.expect y.expect
      && String.equal x.set y.set
  | Batch x, Batch y -> List.equal equal x y
  | (Set _ | Add _ | Noop | Kv_get _ | Kv_put _ | Kv_cas _ | Batch _), _ ->
      false

(* Written without [Format]: every traced SMR message with a command
   carries this text as its payload detail. *)
let rec add_info b c =
  let str = Buffer.add_string b in
  let head op =
    str "cmd";
    Sim.Numfmt.add_int b c.id;
    Buffer.add_char b ':';
    str op
  in
  match c.op with
  | Set v ->
      head "set(";
      Sim.Numfmt.add_int b v;
      str ")"
  | Add d ->
      head "add(";
      Sim.Numfmt.add_int b d;
      str ")"
  | Noop -> str "noop"
  | Kv_get k ->
      head "get(";
      str k;
      str ")"
  | Kv_put { key; value } ->
      head "put(";
      str key;
      str "=";
      str value;
      str ")"
  | Kv_cas { key; expect; set } ->
      head "cas(";
      str key;
      str ",";
      str (match expect with None -> "<absent>" | Some e -> e);
      str "->";
      str set;
      str ")"
  | Batch cmds ->
      head "batch[";
      Sim.Numfmt.add_int b (List.length cmds);
      str "]{";
      List.iteri
        (fun i sub ->
          if i > 0 then Buffer.add_char b ' ';
          add_info b sub)
        cmds;
      str "}"

let info c =
  let b = Buffer.create 32 in
  add_info b c;
  Buffer.contents b

let pp fmt c = Format.pp_print_string fmt (info c)
