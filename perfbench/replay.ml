(* The kv layers replayed in-process over a run's command stream.

   The live cluster's per-command work is split by calling each layer's
   public functions on the same stream the generator sent: the Wire codec
   on request frames, [Kv_state.apply] on batched decrees of the run's
   measured batch size, and the [Multi_paxos] protocol under [Sim.Engine]
   with wrapped handlers.  The final log is encoded as the M1b frame a
   snapshot writes. *)

module Wire = Smr.Wire
module Command = Smr.Command

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let num x = Printf.sprintf "%.9g" x

(* [commands] client commands folded into decrees of [batch] *)
let decrees ~commands ~batch ops =
  let rec go i acc =
    if i >= commands then List.rev acc
    else
      let k = Stdlib.min batch (commands - i) in
      let items = List.init k (fun j -> Command.make ~id:(i + j) (ops (i + j))) in
      let id = commands + List.length acc in
      let d =
        match items with [ single ] -> single | _ -> Command.make ~id (Command.Batch items)
      in
      go (i + k) (d :: acc)
  in
  go 0 []

let wire_layer ~commands ~batch ops =
  let frames =
    Array.init commands (fun i -> Wire.Request { seq = i; cmd = Command.make ~id:0 (ops i) })
  in
  let buf = Buffer.create (1 lsl 20) in
  let (), enc_s = time (fun () -> Array.iter (Wire.encode buf) frames) in
  let bytes = Buffer.to_bytes buf in
  let total = Bytes.length bytes in
  let decoded, dec_s =
    time (fun () ->
        let rec go pos k =
          if pos >= total then k
          else
            match Wire.decode bytes ~pos ~avail:(total - pos) with
            | Ok (_, used) -> go (pos + used) (k + 1)
            | Error _ -> failwith "replayed frame failed to decode"
        in
        go 0 0)
  in
  if decoded <> commands then failwith "replay decoded a different frame count";
  let response = Bytes.length (Wire.to_bytes (Wire.Response { seq = 0; reply = Wire.R_stored })) in
  (* per command: its request and response, plus its share of the 2a to
     each of two followers and the two 2b votes back *)
  let peer =
    match decrees ~commands:(Stdlib.min commands batch) ~batch ops with
    | d :: _ ->
        let m2a =
          Wire.to_bytes
            (Wire.Peer (Smr.Smr_messages.M2a { mbal = 2; instance = 0; cmd = d }))
        in
        4. *. float_of_int (Bytes.length m2a) /. float_of_int (Stdlib.min commands batch)
    | [] -> 0.
  in
  let n = float_of_int commands in
  [
    ("wire.encode_ns_per_frame", num (1e9 *. enc_s /. n));
    ("wire.decode_ns_per_frame", num (1e9 *. dec_s /. n));
    ( "wire.bytes_per_cmd",
      num ((float_of_int total /. n) +. float_of_int response +. peer) );
  ]

let kv_layer ~commands ds =
  Gc.full_major ();
  let kv = Smr.Kv_state.create () in
  let (), s = time (fun () -> List.iter (fun d -> ignore (Smr.Kv_state.apply kv d)) ds) in
  let words = Obj.reachable_words (Obj.repr kv) in
  let n = float_of_int commands in
  [
    ("kv_state.apply_ns_per_cmd", num (1e9 *. s /. n));
    ("kv_state.live_words_per_cmd", num (float_of_int words /. n));
  ]

let snapshot_layer ds =
  let votes =
    List.mapi (fun i d -> (i, { Smr.Smr_messages.vbal = max_int; vcmd = d })) ds
  in
  let msg =
    Wire.Peer
      (Smr.Smr_messages.M1b { mbal = 2; votes; chosen_upto = List.length ds })
  in
  let bytes, s = time (fun () -> Wire.to_bytes msg) in
  [
    ("snapshot.kb", num (float_of_int (Bytes.length bytes) /. 1024.));
    ("snapshot.encode_ms", num (1e3 *. s));
  ]

(* The protocol under the engine: every decree submitted at [rate] decrees
   per simulated second to process n-1, which leads once the boot-time 1a
   gossip settles (as in the live cluster), on an always-synchronous
   network. *)
let paxos_layer ~commands ~rate ds =
  let n = 3 and delta = 0.02 in
  let cfg = Dgl.Config.make ~n ~delta () in
  let start = 20. *. delta in
  let workloads =
    Array.init n (fun p ->
        if p <> n - 1 then []
        else List.mapi (fun i d -> (start +. (float_of_int i /. rate), d)) ds)
  in
  let horizon = start +. (float_of_int (List.length ds) /. rate) +. (200. *. delta) in
  let sc =
    Sim.Scenario.make ~name:"replay" ~n ~ts:0. ~delta ~seed:1L
      ~network:Sim.Network.always_synchronous ~horizon ()
  in
  let busy = ref 0. in
  let r = Sim.Engine.run sc (Simsuite.wrap busy (Smr.Multi_paxos.protocol cfg ~workloads)) in
  if not (Sim.Engine.all_decided r) then failwith "replayed log was not chosen";
  let c = float_of_int commands in
  [
    ("multi_paxos.handler_us_per_cmd", num (1e6 *. !busy /. c));
    ("multi_paxos.msgs_per_cmd", num (float_of_int r.Sim.Engine.messages_sent /. c));
  ]

let main ~opt ~int_opt =
  let commands = int_opt "commands" 10000 in
  let batch = Stdlib.max 1 (int_opt "batch" 1) in
  let plan =
    {
      Gen.cluster = [||];
      members = [||];
      rate = 1.;
      seconds = 0.;
      count = commands;
      mix = Gen.mix_of_string (opt "mix" "mixed");
      value_bytes = int_opt "value-bytes" 16;
      seed = int_opt "seed" 1;
      window = 0;
      drain = 0.;
    }
  in
  let stream = Gen.op_stream plan in
  let ops = Array.init commands (fun i -> snd (stream i)) in
  let op i = ops.(i) in
  let ds = decrees ~commands ~batch op in
  (* the engine replay covers at most the first 1000 commands *)
  let ec = Stdlib.min commands 1000 in
  let fields =
    wire_layer ~commands ~batch op
    @ kv_layer ~commands ds
    @ snapshot_layer ds
    @ paxos_layer ~commands:ec
        ~rate:(float_of_string (opt "decree-rate" "1000"))
        (decrees ~commands:ec ~batch op)
  in
  print_endline
    ("{"
    ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields)
    ^ "}")
