type reply =
  | Stored
  | Found of string
  | Absent
  | Cas_ok
  | Cas_fail of string option
  | Noreply

(* The reply cache is keyed by server-stamped ids ([Replica] restamps
   every request), which run sequentially per member.  Hashing an id to
   itself keeps consecutive commands in adjacent buckets, so each
   lookup and insert touches a warm cache line, where [Hashtbl.hash]
   would scatter them over the whole table.  Ids from outside never
   reach it, so the identity hash cannot be steered. *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash id = id land max_int
end)

type t = {
  store : (string, string) Hashtbl.t;
  (* command id -> cached reply, for exactly-once semantics when a
     command is re-decided after a leader change *)
  replies : reply Ids.t;
  mutable applied : int;  (* count of non-noop commands executed *)
}

let create () =
  { store = Hashtbl.create 256; replies = Ids.create 256; applied = 0 }

let reply_equal a b =
  match (a, b) with
  | Stored, Stored | Absent, Absent | Cas_ok, Cas_ok | Noreply, Noreply ->
      true
  | Found x, Found y -> String.equal x y
  | Cas_fail x, Cas_fail y -> Option.equal String.equal x y
  | (Stored | Found _ | Absent | Cas_ok | Cas_fail _ | Noreply), _ -> false

let pp_reply fmt = function
  | Stored -> Format.pp_print_string fmt "stored"
  | Found v -> Format.fprintf fmt "found(%s)" v
  | Absent -> Format.pp_print_string fmt "absent"
  | Cas_ok -> Format.pp_print_string fmt "cas-ok"
  | Cas_fail None -> Format.pp_print_string fmt "cas-fail(<absent>)"
  | Cas_fail (Some v) -> Format.fprintf fmt "cas-fail(%s)" v
  | Noreply -> Format.pp_print_string fmt "noreply"

let execute t (op : Command.op) =
  match op with
  | Command.Noop -> Noreply
  | Command.Set _ | Command.Add _ ->
      (* integer-register traffic: tracked by Command.apply elsewhere;
         the kv store only acknowledges it *)
      Noreply
  | Command.Kv_get key -> (
      match Hashtbl.find_opt t.store key with
      | Some v -> Found v
      | None -> Absent)
  | Command.Kv_put { key; value } ->
      Hashtbl.replace t.store key value;
      Stored
  | Command.Kv_cas { key; expect; set } ->
      let current = Hashtbl.find_opt t.store key in
      if Option.equal String.equal current expect then (
        Hashtbl.replace t.store key set;
        Cas_ok)
      else Cas_fail current
  | Command.Batch _ -> Noreply

let apply_one t (cmd : Command.t) =
  if cmd.id < 0 then (cmd.id, Noreply)
  else
    match Ids.find_opt t.replies cmd.id with
    | Some cached -> (cmd.id, cached)  (* duplicate decree: replay reply *)
    | None ->
        let r = execute t cmd.op in
        (* [add], not [replace]: the lookup above found no binding *)
        Ids.add t.replies cmd.id r;
        t.applied <- t.applied + 1;
        (cmd.id, r)

let apply t (cmd : Command.t) =
  match cmd.op with
  | Command.Batch cmds -> List.map (apply_one t) cmds
  | Command.Noop when cmd.id < 0 -> []
  | Command.Set _ | Command.Add _ | Command.Noop | Command.Kv_get _
  | Command.Kv_put _ | Command.Kv_cas _ ->
      [ apply_one t cmd ]

let get t key = Hashtbl.find_opt t.store key

let applied t = t.applied

let checksum t =
  (* order-independent digest: xor of per-binding FNV digests, so two
     replicas with the same bindings agree regardless of Hashtbl layout *)
  let mix h x = (h lxor x) * 0x100000001b3 land max_int in
  let mix_string h s =
    let h = ref (mix h (String.length s)) in
    String.iter (fun c -> h := mix !h (Char.code c)) s;
    !h
  in
  (* lint: allow R3 — xor of digests is commutative, order-free *)
  Hashtbl.fold
    (fun k v acc -> acc lxor mix_string (mix_string 0xcbf29ce4 k) v)
    t.store 0
