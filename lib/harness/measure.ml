let latencies r ~procs ~from_time ~delta =
  List.map
    (fun p ->
      match r.Sim.Engine.decision_times.(p) with
      | Some t -> (t -. from_time) /. delta
      | None -> Float.infinity)
    procs

let worst_latency r ~procs ~from_time ~delta =
  List.fold_left Float.max 0. (latencies r ~procs ~from_time ~delta)

let mean_latency r ~procs ~from_time ~delta =
  let finite =
    List.filter Float.is_finite (latencies r ~procs ~from_time ~delta)
  in
  match finite with [] -> Float.infinity | xs -> Sim.Metrics.mean xs

let check_safety (r : _ Sim.Engine.run_result) =
  match r.Sim.Engine.agreement_violation with
  | Some (p1, v1, p2, v2) ->
      Error
        (Printf.sprintf "agreement violated: p%d decided %d but p%d decided %d"
           p1 v1 p2 v2)
  | None ->
      let proposals = Array.to_list r.scenario.Sim.Scenario.proposals in
      let bad = ref None in
      Array.iteri
        (fun p v ->
          match v with
          | Some v when (not (List.mem v proposals)) && !bad = None ->
              bad := Some (p, v)
          | _ -> ())
        r.decision_values;
      (match !bad with
      | Some (p, v) ->
          Error
            (Printf.sprintf "validity violated: p%d decided %d, never proposed"
               p v)
      | None -> Ok ())

let procs ~n ?(except = []) () =
  List.filter (fun p -> not (List.mem p except)) (List.init n (fun i -> i))

let over_seeds ~seeds ~base f =
  List.init seeds (fun i -> f (Int64.add base (Int64.of_int (i * 7919))))

(* ------------------------------------------------------------------ *)
(* Parallel sweeps                                                     *)
(* ------------------------------------------------------------------ *)

(* lint: allow R4 — test-only override, written solely from the
   coordinating domain via [with_domains]; workers never read it *)
let forced_domains = ref None

let domain_count () =
  match !forced_domains with
  | Some n -> n
  | None -> (
      match Sys.getenv_opt "SIM_DOMAINS" with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some n when n >= 1 -> n
          | _ -> Domain.recommended_domain_count ())
      | None -> Domain.recommended_domain_count ())

(* One pool, created on first use and re-created if the requested size
   changes (tests flip sizes via [with_domains]). *)
(* lint: allow R4 — process-wide pool cache by design: created and
   swapped only on the coordinating domain, never from workers *)
let pool = ref None

let get_pool () =
  let want = domain_count () in
  match !pool with
  | Some p when Sim.Domain_pool.size p = want -> p
  | prev ->
      (match prev with Some p -> Sim.Domain_pool.shutdown p | None -> ());
      let p = Sim.Domain_pool.create ~domains:want () in
      pool := Some p;
      p

let par_map f xs = Sim.Domain_pool.map (get_pool ()) f xs

let with_domains n f =
  if n < 1 then invalid_arg "Measure.with_domains: n < 1";
  let saved = !forced_domains in
  forced_domains := Some n;
  Fun.protect ~finally:(fun () -> forced_domains := saved) f
