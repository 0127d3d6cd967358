(* Named counters and fixed-bucket histograms, one registry per run.

   A registry is mutated from a single domain (each simulated run is
   sequential); cross-domain aggregation happens by [merge_into] on the
   caller's domain after workers return, so no locking is needed here. *)

type counter = {
  mutable total : int;
  mutable per_proc : int array;  (* grows on demand; index = process id *)
}

type histogram = {
  buckets : float array;  (* upper bounds, strictly increasing *)
  counts : int array;  (* length = Array.length buckets + 1 (overflow) *)
  mutable sum : float;
  mutable n : int;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 16; histograms = Hashtbl.create 4 }

let default_latency_buckets =
  [| 1.; 2.; 4.; 6.; 8.; 10.; 12.; 14.; 17.; 20.; 25.; 30.; 40.; 60.; 100. |]

let find_counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { total = 0; per_proc = [||] } in
      Hashtbl.add t.counters name c;
      c

let ensure_proc c proc =
  let len = Array.length c.per_proc in
  if proc >= len then begin
    let nbuf = Array.make (Stdlib.max (proc + 1) (2 * len)) 0 in
    Array.blit c.per_proc 0 nbuf 0 len;
    c.per_proc <- nbuf
  end

type handle = counter

let handle ?(procs = 0) t name =
  let c = find_counter t name in
  if procs > 0 then ensure_proc c (procs - 1);
  c

let inc_handle c ~proc =
  c.total <- c.total + 1;
  if proc >= 0 then begin
    ensure_proc c proc;
    c.per_proc.(proc) <- c.per_proc.(proc) + 1
  end

let inc ?proc ?(by = 1) t name =
  let c = find_counter t name in
  c.total <- c.total + by;
  match proc with
  | None -> ()
  | Some p when p < 0 -> ()
  | Some p ->
      ensure_proc c p;
      c.per_proc.(p) <- c.per_proc.(p) + by

let counter_total t name =
  match Hashtbl.find_opt t.counters name with Some c -> c.total | None -> 0

let counter_per_proc t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> Array.copy c.per_proc
  | None -> [||]

let find_histogram t ~buckets name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h =
        {
          buckets = Array.copy buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          sum = 0.;
          n = 0;
        }
      in
      Hashtbl.add t.histograms name h;
      h

let bucket_index buckets v =
  (* first bucket whose upper bound is >= v; Array.length = overflow *)
  let lo = ref 0 and hi = ref (Array.length buckets) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if buckets.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let observe ?(buckets = default_latency_buckets) t name v =
  let h = find_histogram t ~buckets name in
  let i = bucket_index h.buckets v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v;
  h.n <- h.n + 1

(* Upper bound of the bucket containing the q-quantile sample; an
   estimate, not the exact sample value.  Overflow reports the last
   finite bound. *)
let quantile t name q =
  match Hashtbl.find_opt t.histograms name with
  | None -> None
  | Some h when h.n = 0 -> None
  | Some h ->
      let target =
        Stdlib.max 1
          (int_of_float (ceil (q *. float_of_int h.n)))
      in
      let rec go i acc =
        if i >= Array.length h.counts then
          h.buckets.(Array.length h.buckets - 1)
        else
          let acc = acc + h.counts.(i) in
          if acc >= target then
            if i < Array.length h.buckets then h.buckets.(i)
            else h.buckets.(Array.length h.buckets - 1)
          else go (i + 1) acc
      in
      Some (go 0 0)

let merge_into ~dst src =
  (* sorted order is not load-bearing here (integer adds commute), but
     it keeps enumeration order out of observable behaviour entirely *)
  Sorted_tbl.iter ~compare:String.compare
    (fun name (c : counter) ->
      let d = find_counter dst name in
      d.total <- d.total + c.total;
      Array.iteri
        (fun p v ->
          if v <> 0 then begin
            ensure_proc d p;
            d.per_proc.(p) <- d.per_proc.(p) + v
          end)
        c.per_proc)
    src.counters;
  Sorted_tbl.iter ~compare:String.compare
    (fun name (h : histogram) ->
      let d = find_histogram dst ~buckets:h.buckets name in
      if Array.length d.counts <> Array.length h.counts then
        invalid_arg
          (Printf.sprintf "Registry.merge_into: bucket mismatch for %S" name)
      else begin
        Array.iteri (fun i v -> d.counts.(i) <- d.counts.(i) + v) h.counts;
        d.sum <- d.sum +. h.sum;
        d.n <- d.n + h.n
      end)
    src.histograms

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.histograms

let counters t =
  Sorted_tbl.bindings ~compare:String.compare t.counters
  |> List.map (fun (name, c) -> (name, c.total))

let histograms t =
  Sorted_tbl.bindings ~compare:String.compare t.histograms
  |> List.map (fun (name, h) -> (name, h.n, h.sum))

(* ------------------------------------------------------------------ *)

(* The %.6f sums and %g bounds are the lexemes BENCH_RESULTS.json has
   always carried; a non-finite value (a sample of [infinity]) has no
   JSON number, so it prints as null. *)
let num fmt v =
  if Float.is_finite v then Json.Num (Printf.sprintf fmt v) else Json.Null

let to_json t =
  let array f a = Json.Arr (Array.to_list (Array.map f a)) in
  let counter (name, total) = (name, Json.int total) in
  let histogram (name, h) =
    ( name,
      Json.Obj
        [
          ("n", Json.int h.n);
          ("sum", num "%.6f" h.sum);
          ("buckets", array (num "%g") h.buckets);
          ("counts", array Json.int h.counts);
        ] )
  in
  Json.Obj
    [
      ("counters", Json.Obj (List.map counter (counters t)));
      ( "histograms",
        Json.Obj
          (List.map histogram
             (Sorted_tbl.bindings ~compare:String.compare t.histograms)) );
    ]

let pp fmt t =
  List.iter
    (fun (name, total) -> Format.fprintf fmt "%-24s %d@." name total)
    (counters t);
  List.iter
    (fun (name, n, sum) ->
      Format.fprintf fmt "%-24s n=%d mean=%.3f p50<=%.3g p95<=%.3g@." name n
        (if n = 0 then 0. else sum /. float_of_int n)
        (Option.value ~default:Float.nan (quantile t name 0.5))
        (Option.value ~default:Float.nan (quantile t name 0.95)))
    (histograms t)
