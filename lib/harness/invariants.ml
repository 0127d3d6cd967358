(* Trace-driven invariant checking.

   Everything here re-derives its verdict from the recorded (or
   imported) trace alone — independent of the engine state that produced
   it — so a JSONL trace from disk is as checkable as a live run. *)

type violation = { check : string; detail : string }

type report = {
  entries_checked : int;
  wrapped : bool;
  violations : violation list;
}

let ok r = r.violations = []

(* Absolute slack on float comparisons: trace times survive a JSONL
   round-trip exactly (%.17g), so this only absorbs arithmetic noise in
   derived quantities like [fire_at - t]. *)
let tol = 1e-9

let pp fmt r =
  if ok r then
    Format.fprintf fmt "invariants OK (%d entries%s)" r.entries_checked
      (if r.wrapped then ", ring wrapped: causality checks skipped" else "")
  else begin
    Format.fprintf fmt "%d invariant violation(s) in %d entries:@."
      (List.length r.violations) r.entries_checked;
    List.iter
      (fun v -> Format.fprintf fmt "  [%s] %s@." v.check v.detail)
      r.violations
  end

(* Notes of the form "session:<k>:<how>" ([how] is "adopt" or "start")
   are modified Paxos's session-entry markers (see
   lib/dgl/modified_paxos.ml); no other protocol writes them.  The prefix
   test keeps every other note from being split. *)
let session_of_note text =
  if not (String.starts_with ~prefix:"session:" text) then None
  else
    match String.split_on_char ':' text with
    | "session" :: k :: _ -> int_of_string_opt k
    | _ -> None

(* Tables keyed by message id or process number, hashing an int to
   itself (no polymorphic hash, no boxed key). *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* The pending timers of one (process, tag): a binary min-heap of
   [fire_at] instants in a flat float array, ordered by
   [Float.compare] (the order [Sim_time.compare] uses), so pushing and
   popping box nothing and cost O(log size). *)
type timer_heap = { mutable due : float array; mutable size : int }

let heap_push h fire_at =
  if h.size = Array.length h.due then begin
    let a = Array.make (2 * h.size) 0. in
    Array.blit h.due 0 a 0 h.size;
    h.due <- a
  end;
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && Float.compare h.due.((!i - 1) / 2) fire_at > 0 do
    h.due.(!i) <- h.due.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.due.(!i) <- fire_at

(* Removes the earliest entry of a non-empty heap. *)
let heap_pop h =
  let n = h.size - 1 in
  h.size <- n;
  let last = h.due.(n) in
  let i = ref 0 and sifting = ref (n > 0) in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= n then sifting := false
    else begin
      let c =
        if l + 1 < n && Float.compare h.due.(l + 1) h.due.(l) < 0 then l + 1
        else l
      in
      if Float.compare h.due.(c) last < 0 then begin
        h.due.(!i) <- h.due.(c);
        i := c
      end
      else sifting := false
    end
  done;
  if n > 0 then h.due.(!i) <- last

(* The id -> origin array of the last check in this domain, reused by
   the next: a fuzz campaign checks one trace per run, and an array the
   size of each trace would be allocated straight into the major heap.
   A check takes it with an atomic exchange, so two threads of one
   domain never share it, and puts it back when done. *)
let origin_scratch = Domain.DLS.new_key (fun () -> Atomic.make [||])

let take_origins n =
  let a = Atomic.exchange (Domain.DLS.get origin_scratch) [||] in
  let a =
    if Array.length a >= n then a
    else Array.make (Stdlib.max n (2 * Array.length a)) (-1)
  in
  Array.fill a 0 n (-1);
  a

(* The checker reads each record's fields in place ([Trace.tag_at],
   [Trace.id_at], ...) and never decodes a payload; a message's origin
   is kept as a record index, not as a tuple of its fields. *)
let check ?proposals ?timer_bounds trace =
  let module T = Sim.Trace in
  let violations = ref [] in
  let add check detail = violations := { check; detail } :: !violations in
  let wrapped = T.dropped_oldest trace > 0 in
  let time_str i = Sim.Sim_time.to_string (T.entry_time trace i) in
  (* decide-once: procs that decided; agreement: the first decision *)
  let decided : unit Itbl.t = Itbl.create 8 in
  let first_decision = ref None in
  (* message causality: id -> index of the entry that minted it, or -1.
     A simulator run mints no more ids than it records entries, so
     those index an array; larger ids (a wrapped ring, an imported
     trace) go to a table. *)
  let n = T.length trace in
  let dense = take_origins n and sparse : int Itbl.t = Itbl.create 16 in
  let origin id =
    if id < n then dense.(id)
    else try Itbl.find sparse id with Not_found -> -1
  in
  let set_origin id i =
    if id < n then dense.(id) <- i else Itbl.replace sparse id i
  in
  (* timer causality: proc -> tag -> pending fire_at instants *)
  let timers : timer_heap Itbl.t Itbl.t = Itbl.create 8 in
  let pending proc tag =
    let tbl =
      match Itbl.find timers proc with
      | tbl -> tbl
      | exception Not_found ->
          let tbl = Itbl.create 8 in
          Itbl.add timers proc tbl;
          tbl
    in
    match Itbl.find tbl tag with
    | h -> h
    | exception Not_found ->
        let h = { due = Array.make 8 0.; size = 0 } in
        Itbl.add tbl tag h;
        h
  in
  (* session monotonicity: proc -> last session entered *)
  let sessions : int Itbl.t = Itbl.create 8 in
  let check_msg_causality ~what i ~origin =
    let id = T.id_at trace i and src = T.src_at trace i
    and dst = T.dst_at trace i in
    let src0 = T.src_at trace origin and dst0 = T.dst_at trace origin in
    if src0 <> src || dst0 <> dst then
      add "causality"
        (Printf.sprintf "message #%d sent as %d->%d but %s as %d->%d" id src0
           dst0 what src dst)
    else if T.compare_times trace origin i > 0 then
      add "causality"
        (Printf.sprintf "message #%d %s at %s before its send at %s" id what
           (time_str i) (time_str origin))
  in
  let orphan ~what i =
    add "causality"
      (Printf.sprintf "%s of message #%d %d->%d at %s has no recorded send"
         what (T.id_at trace i) (T.src_at trace i) (T.dst_at trace i)
         (time_str i))
  in
  for i = 0 to T.length trace - 1 do
    match T.tag_at trace i with
    | T.Tag_send ->
        let id = T.id_at trace i in
        if id >= 0 && origin id < 0 then set_origin id i
    | T.Tag_deliver ->
        let id = T.id_at trace i in
        if (not wrapped) && id >= 0 then begin
          let origin = origin id in
          if origin < 0 then orphan ~what:"delivery" i
          else check_msg_causality ~what:"delivery" i ~origin
        end
    | T.Tag_drop -> (
        (* A drop with no recorded send is the network refusing the
           message at send time — it is its own origin record. *)
        let id = T.id_at trace i in
        if id >= 0 then
          let origin = origin id in
          if origin < 0 then set_origin id i
          else if not wrapped then check_msg_causality ~what:"drop" i ~origin)
    | T.Tag_timer_set ->
        let proc = T.proc_at trace i and tag = T.timer_tag_at trace i in
        let t = T.entry_time trace i and fire_at = T.fire_time trace i in
        if Sim.Sim_time.compare fire_at t < 0 then
          add "timer"
            (Printf.sprintf "p%d timer tag=%d set at %s to fire in the past"
               proc tag (time_str i));
        (match timer_bounds with
        | Some (delta, sigma) when tag >= 0 ->
            (* Session timers must keep their real duration inside the
               paper's [4 delta, sigma] window (Section 4). *)
            let d = Sim.Sim_time.diff fire_at t in
            if d < (4. *. delta) -. tol || d > sigma +. tol then
              add "sigma-timer"
                (Printf.sprintf
                   "p%d session timer tag=%d runs %.6fs, outside [4d=%.6f, \
                    sigma=%.6f]"
                   proc tag d (4. *. delta) sigma)
        | _ -> ());
        heap_push (pending proc tag) fire_at
    | T.Tag_timer_fire ->
        (* A fire consumes the earliest pending [fire_at] if that one is
           due.  Which due entry it consumes cannot change a verdict
           when entry times do not decrease (as [Trace] assumes): an
           entry due at this fire's time [t] is due at every later fire
           too, so after any choice the later fires see the same number
           of due entries, and a fire is flagged exactly when that
           number is 0. *)
        if not wrapped then begin
          let proc = T.proc_at trace i and tag = T.timer_tag_at trace i in
          let h = pending proc tag in
          let due_by = T.entry_time trace i +. tol in
          if h.size > 0 && Float.compare h.due.(0) due_by <= 0 then heap_pop h
          else
            add "timer"
              (Printf.sprintf
                 "p%d timer tag=%d fired at %s with no due Timer_set" proc tag
                 (time_str i))
        end
    | T.Tag_note -> (
        match session_of_note (T.text_at trace i) with
        | None -> ()
        | Some s -> (
            let proc = T.proc_at trace i in
            match Itbl.find_opt sessions proc with
            | Some prev when s <= prev ->
                add "session-monotonic"
                  (Printf.sprintf
                     "p%d entered session %d after already being in session \
                      %d"
                     proc s prev)
            | _ -> Itbl.replace sessions proc s))
    | T.Tag_decide -> (
        let proc = T.proc_at trace i and value = T.decided_at trace i in
        if Itbl.mem decided proc then
          add "decide-once"
            (Printf.sprintf "p%d decided twice (again at %s)" proc
               (time_str i))
        else Itbl.add decided proc ();
        (match !first_decision with
        | None -> first_decision := Some (proc, value)
        | Some (p0, v0) ->
            if value <> v0 then
              add "agreement"
                (Printf.sprintf "p%d decided %d but p%d decided %d" proc value
                   p0 v0));
        match proposals with
        | Some props when not (Array.exists (( = ) value) props) ->
            add "validity"
              (Printf.sprintf "p%d decided %d, which nobody proposed" proc
                 value)
        | _ -> ())
    | T.Tag_crash | T.Tag_restart -> ()
  done;
  Atomic.set (Domain.DLS.get origin_scratch) dense;
  {
    entries_checked = T.length trace;
    wrapped;
    violations = List.rev !violations;
  }

let check_run ?timer_bounds ?(check_validity = true) r =
  let proposals =
    if check_validity then
      Some r.Sim.Engine.scenario.Sim.Scenario.proposals
    else None
  in
  check ?proposals ?timer_bounds r.Sim.Engine.trace
