(* The benchmark's own binary: the open-loop generator and the
   in-process layer measurements that run.py orchestrates.

     pb gen      --cluster H:P,... --members 1,2 --rate R --seconds S ...
     pb schedule (same flags as gen) — prints the schedule digest
     pb probe    --cluster H:P,... --member I --key K
     pb ref      — times the reference job (refjob.ml)
     pb sim      [--trace]
     pb replay   --seed N --commands C --batch B --mix M --value-bytes V
                 --decree-rate R

   Every subcommand prints one JSON object on stdout. *)

let args = Array.to_list Sys.argv |> List.tl |> List.tl

let flag name = List.mem ("--" ^ name) args

let opt name default =
  let rec go = function
    | k :: v :: _ when k = "--" ^ name -> v
    | _ :: rest -> go rest
    | [] -> default
  in
  go args

let int_opt name default = int_of_string (opt name (string_of_int default))

let float_opt name default = float_of_string (opt name (string_of_float default))

let cluster () =
  (match opt "cluster" "" with "" -> [] | s -> String.split_on_char ',' s)
  |> List.map (fun hp ->
         match String.rindex_opt hp ':' with
         | Some i ->
             ( String.sub hp 0 i,
               int_of_string (String.sub hp (i + 1) (String.length hp - i - 1)) )
         | None -> invalid_arg ("bad endpoint " ^ hp))
  |> Array.of_list

let plan () =
  {
    Gen.cluster = cluster ();
    members =
      String.split_on_char ',' (opt "members" "0")
      |> List.map int_of_string |> Array.of_list;
    rate = float_opt "rate" 1000.;
    seconds = float_opt "seconds" 1.;
    count = int_opt "count" 0;
    mix = Gen.mix_of_string (opt "mix" "mixed");
    value_bytes = int_opt "value-bytes" 16;
    seed = int_opt "seed" 1;
    window = int_opt "window" 0;
    drain = float_opt "drain" 2.;
  }

(* how long [pb probe] waits for a committed reply *)
let probe_timeout = 10.

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "gen" :: _ ->
      let p = plan () in
      let r = Gen.run p in
      Gen.write_records (opt "out" "gen.bin") r;
      Printf.printf
        "{\"requests\": %d, \"resends\": %d, \"reconnects\": %d, \
         \"duplicates\": %d, \"connections\": %d, \"t0\": %.6f}\n"
        (Array.length r.Gen.intended) r.Gen.resends r.Gen.reconnects
        r.Gen.duplicates (Array.length p.Gen.members) r.Gen.t0
  | "schedule" :: _ ->
      let count, digest = Gen.schedule_digest (plan ()) in
      Printf.printf "{\"requests\": %d, \"digest\": \"%s\"}\n" count digest
  | "probe" :: _ -> (
      match
        Gen.probe ~cluster:(cluster ()) ~member:(int_opt "member" 0)
          ~key:(opt "key" "probe") ~value:"probe" ~timeout:probe_timeout
      with
      | Some t -> Printf.printf "{\"reply_at\": %.6f}\n" t
      | None ->
          prerr_endline "pb probe: no committed reply before the timeout";
          exit 1)
  | "ref" :: _ -> Printf.printf "{\"ref_s\": %.9f}\n" (Refjob.run ())
  | "sim" :: _ -> Simsuite.main ~flag
  | "replay" :: _ -> Replay.main ~opt ~int_opt
  | _ ->
      prerr_endline "usage: pb (gen|schedule|probe|ref|sim|replay) [flags]";
      exit 2
