(* A fixed reference job that uses no code of the repository: the speed of
   the machine at the moment it runs.  It does the two kinds of work the
   measured programs do on one CPU: allocation, hashing and GC in OCaml,
   and small messages between two processes over a socket, each one a
   pair of context switches.  Its wall time is returned in seconds. *)

let hashing () =
  let t = Hashtbl.create 1024 in
  for i = 0 to 399_999 do
    let k = "k" ^ string_of_int (i land 16383) in
    Hashtbl.replace t k (Bytes.make 16 (Char.chr (97 + (i land 15))))
  done;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t [] in
  ignore (List.length (List.sort String.compare keys) : int)

let ping_pong ~round_trips =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let msg = Bytes.make 64 'x' in
  let buf = Bytes.create 64 in
  let rec read_all fd off =
    if off < 64 then
      match Unix.read fd buf off (64 - off) with
      | 0 -> false
      | k -> read_all fd (off + k)
    else true
  in
  match Unix.fork () with
  | 0 ->
      Unix.close a;
      while read_all b 0 do
        ignore (Unix.write b buf 0 64 : int)
      done;
      Unix._exit 0
  | child ->
      Unix.close b;
      for _ = 1 to round_trips do
        ignore (Unix.write a msg 0 64 : int);
        if not (read_all a 0) then failwith "reference echo process died"
      done;
      Unix.close a;
      ignore (Unix.waitpid [] child : int * Unix.process_status)

let run () =
  let t0 = Unix.gettimeofday () in
  hashing ();
  ping_pong ~round_trips:8000;
  Unix.gettimeofday () -. t0
