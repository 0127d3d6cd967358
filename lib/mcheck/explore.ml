type 'state outcome = {
  states : int;
  transitions : int;
  complete : bool;
  violation : (string * 'state) option;
  collisions : int option;
  table_words : int;
}

(* Split [xs] into at most [parts] contiguous chunks of near-equal
   length, preserving order.  Chunking only affects load balance: the
   coordinator merges per-chunk results in submission order, so the
   concatenation is always the original successor order. *)
let split_chunks ~parts xs =
  let n = List.length xs in
  if parts <= 1 || n <= 1 then [ xs ]
  else begin
    let parts = Int.min parts n in
    let base = n / parts and extra = n mod parts in
    let rec take k xs acc =
      if k = 0 then (List.rev acc, xs)
      else
        match xs with
        | [] -> (List.rev acc, [])
        | x :: tl -> take (k - 1) tl (x :: acc)
    in
    let rec go i xs acc =
      if i >= parts then List.rev acc
      else
        let len = base + if i < extra then 1 else 0 in
        let chunk, rest = take len xs [] in
        go (i + 1) rest (chunk :: acc)
    in
    go 0 xs []
  end

let run (type key) ?(domains = 1) ?(exact_keys = false) ?registry ~initial
    ~successors ~fingerprint ~(key : _ -> key) ~properties ~max_depth
    ~max_states () =
  let pool =
    if domains > 1 then Some (Sim.Domain_pool.create ~domains ()) else None
  in
  let finally () =
    match pool with Some p -> Sim.Domain_pool.shutdown p | None -> ()
  in
  Fun.protect ~finally @@ fun () ->
  let visited_fp = Fingerprint.Set.create () in
  (* exact-keys mode: the structural table is authoritative (results are
     ground truth) and [visited_fp] runs alongside purely to count
     collisions.  Keys are bucketed on a hash of the whole key: the
     default [Hashtbl.hash] reads only 10 meaningful words, which left
     the 190k keys of the depth-10 Paxos search about 2k hash values,
     while [hash_param 256 256] reads up to 256 values (the runtime's
     cap), all of a key at these depths.  Structural equality decides
     membership. *)
  let module Exact = Hashtbl.Make (struct
    type t = key

    let equal = ( = )

    let hash = Hashtbl.hash_param 256 256
  end) in
  let visited_exact = if exact_keys then Some (Exact.create 4096) else None in
  let stored () =
    match visited_exact with
    | Some t -> Exact.length t
    | None -> Fingerprint.Set.length visited_fp
  in
  let transitions = ref 0 in
  let complete = ref true in
  let violation = ref None in
  let collisions = ref 0 in
  let check st =
    match List.find_opt (fun (_, pred) -> not (pred st)) properties with
    | Some (name, _) -> violation := Some (name, st)
    | None -> ()
  in
  (* First occurrence of a state: property-check it (before any bound),
     and store + schedule it unless the state cap is hit. *)
  let admit next (fp, st) =
    let status =
      match visited_exact with
      | Some t ->
          let k = key st in
          if Exact.mem t k then `Seen
          else if Exact.length t >= max_states then `Full
          else begin
            if Fingerprint.Set.mem visited_fp fp then incr collisions;
            Exact.replace t k ();
            Fingerprint.Set.add visited_fp fp;
            `Stored
          end
      | None ->
          if Fingerprint.Set.mem visited_fp fp then `Seen
          else if Fingerprint.Set.length visited_fp >= max_states then `Full
          else begin
            Fingerprint.Set.add visited_fp fp;
            `Stored
          end
    in
    match status with
    | `Seen -> ()
    | `Stored ->
        next := st :: !next;
        check st
    | `Full ->
        complete := false;
        check st
  in
  let expand_state st =
    List.map (fun s -> (fingerprint s, s)) (successors st)
  in
  let seed = ref [] in
  admit seed (fingerprint initial, initial);
  let frontier = ref (List.rev !seed) in
  let depth = ref 0 in
  let continue_ () =
    (match !frontier with [] -> false | _ :: _ -> true)
    && Option.is_none !violation
  in
  while continue_ () do
    (match registry with
    | Some r ->
        Sim.Registry.inc r "mcheck_frontier_levels";
        Sim.Registry.inc r ~by:(List.length !frontier) "mcheck_frontier_states"
    | None -> ());
    if !depth >= max_depth then begin
      (* states at the depth bound are stored and checked, not expanded *)
      complete := false;
      frontier := []
    end
    else begin
      let next = ref [] in
      (* every generated edge of the level counts, deterministically,
         whether or not the merge stops at a violation *)
      let merge succs =
        transitions := !transitions + List.length succs;
        List.iter
          (fun fs -> if Option.is_none !violation then admit next fs)
          succs
      in
      (match pool with
      | Some p ->
          let chunks = split_chunks ~parts:(domains * 4) !frontier in
          List.iter (List.iter merge)
            (Sim.Domain_pool.map p (List.map expand_state) chunks)
      | None ->
          (* merge each state's successors as soon as they exist, so
             the ones that are already visited die young *)
          List.iter (fun st -> merge (expand_state st)) !frontier);
      frontier := List.rev !next;
      incr depth
    end
  done;
  let table_words =
    Obj.reachable_words (Obj.repr visited_fp)
    + match visited_exact with
      | Some t -> Obj.reachable_words (Obj.repr t)
      | None -> 0
  in
  {
    states = stored ();
    transitions = !transitions;
    complete = !complete && Option.is_none !violation;
    violation = !violation;
    collisions = (if exact_keys then Some !collisions else None);
    table_words;
  }
