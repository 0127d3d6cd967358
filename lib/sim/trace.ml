(* Structured execution traces, v3.

   Storage is a ring of fixed-width 96-byte binary records in a single
   [Bytes] buffer: recording an entry writes a tag byte, a
   payload-presence bitmask, the time's IEEE-754 bits, and up to ten
   64-bit integer slots — no per-entry heap blocks.  Strings (payload
   kinds, details, note text) are interned in a per-trace table and
   recorded by index; identical strings are stored once per run.

   Unbounded traces double the buffer when full; bounded traces
   overwrite the oldest record once [capacity] is reached, so long
   realtime runs record in constant memory.  [release] hands a dead
   trace's buffer to a spare kept per domain, which the next unbounded
   trace of that domain starts from: a run loop that releases each
   trace after checking it stops allocating record storage once the
   spare is as large as its largest run.  A reused buffer holds the
   bytes of older runs; that is safe because only the [len] records
   the trace wrote are ever read, and each tag's reader reads only the
   slots its recorder wrote.  Entries are appended in
   non-decreasing time order (engine time is monotone), which is what
   makes windowed queries O(log n + window) via binary search.

   Recording allocates nothing for a payload whose kind is a string
   literal and whose detail is empty: a literal kind is found by
   physical identity in a small cache, so only fresh detail and note
   strings reach the intern [Hashtbl].  A delivery or receiver-down
   drop can copy its send's record instead of rebuilding the payload
   ([deliver_as_sent]/[drop_as_sent]).

   The [entry] variant is the decode layer: [get]/[iter]/[entries]
   materialize entries on demand (cold paths — assertions, rendering).
   The field readers ([tag_at], [id_at], ...) and JSONL export read the
   records in place.  JSONL is derived from the binary records on
   export and re-imported losslessly; it is not the recording format. *)

type payload = {
  kind : string;
  session : int option;
  ballot : int option;
  phase : int option;
  round : int option;
  value : int option;
  detail : string;
}

let payload ?session ?ballot ?phase ?round ?value ?(detail = "") kind =
  { kind; session; ballot; phase; round; value; detail }

let info kind = payload kind

let pp_payload fmt p =
  Format.pp_print_string fmt p.kind;
  let fields =
    List.filter_map
      (fun (k, v) -> Option.map (fun v -> Printf.sprintf "%s%d" k v) v)
      [
        ("s", p.session);
        ("b", p.ballot);
        ("ph", p.phase);
        ("r", p.round);
        ("v", p.value);
      ]
  in
  if fields <> [] then
    Format.fprintf fmt "[%s]" (String.concat " " fields);
  if p.detail <> "" then Format.fprintf fmt " %s" p.detail

type entry =
  | Send of { t : Sim_time.t; id : int; src : int; dst : int; payload : payload }
  | Deliver of
      { t : Sim_time.t; id : int; src : int; dst : int; payload : payload }
  | Drop of { t : Sim_time.t; id : int; src : int; dst : int; payload : payload }
  | Timer_set of { t : Sim_time.t; proc : int; tag : int; fire_at : Sim_time.t }
  | Timer_fire of { t : Sim_time.t; proc : int; tag : int }
  | Crash of { t : Sim_time.t; proc : int }
  | Restart of { t : Sim_time.t; proc : int }
  | Decide of { t : Sim_time.t; proc : int; value : int }
  | Note of { t : Sim_time.t; proc : int; text : string }

let no_origin = -1

let time_of = function
  | Send { t; _ }
  | Deliver { t; _ }
  | Drop { t; _ }
  | Timer_set { t; _ }
  | Timer_fire { t; _ }
  | Crash { t; _ }
  | Restart { t; _ }
  | Decide { t; _ }
  | Note { t; _ } ->
      t

(* --- binary record layout -------------------------------------------

   off 0      tag byte (tag_* below)
   off 1      payload-presence bitmask (mask_* bits; message tags only)
   off 8      entry time, IEEE-754 bits, little-endian
   off 16+8k  int64 slot k, k in 0..9

   Send/Deliver/Drop: slots id, src, dst, kind_idx, detail_idx,
                      session, ballot, phase, round, value
   Timer_set:         slots proc, tag, fire_at-bits
   Timer_fire:        slots proc, tag
   Crash/Restart:     slot  proc
   Decide:            slots proc, value
   Note:              slots proc, text_idx                            *)

let rec_size = 96

let tag_send = 1
let tag_deliver = 2
let tag_drop = 3
let tag_timer_set = 4
let tag_timer_fire = 5
let tag_crash = 6
let tag_restart = 7
let tag_decide = 8
let tag_note = 9

let mask_session = 1
let mask_ballot = 2
let mask_phase = 4
let mask_round = 8
let mask_value = 16

type t = {
  enabled : bool;
  capacity : int;  (* 0 = unbounded *)
  mutable released : bool;
  mutable buf : Bytes.t;
  mutable cap : int;  (* records [buf] holds *)
  mutable first : int;  (* ring index (in records) of the oldest entry *)
  mutable len : int;  (* retained entries *)
  mutable total : int;  (* entries ever recorded, retained or not *)
  (* string interning: [strs.(0 .. nstrs-1)] are the distinct strings
     ever recorded; records refer to them by index *)
  mutable strs : string array;
  mutable nstrs : int;
  str_ids : (string, int) Hashtbl.t;
  (* kinds (and empty details) seen so far, matched by physical
     identity: they are string literals, so a hit skips hashing; filled
     round-robin *)
  lit_strs : string array;
  lit_ids : int array;
  mutable nlits : int;
}

let lit_cache = 16

(* The largest buffer released in this domain and not yet taken, or
   [Bytes.empty].  Per domain, so [Domain_pool] workers never share
   one; taken with an atomic exchange, so two threads of one domain
   cannot both take it. *)
let spare = Domain.DLS.new_key (fun () -> Atomic.make Bytes.empty)

(* Only an enabled, unbounded trace takes the spare: a bounded ring's
   slot arithmetic needs exactly [capacity] slots, which a spare of
   another size does not have. *)
let take_spare ~enabled ~capacity =
  if enabled && capacity = 0 then
    Atomic.exchange (Domain.DLS.get spare) Bytes.empty
  else Bytes.empty

let create ?(capacity = 0) ~enabled () =
  if capacity < 0 then invalid_arg "Trace.create: negative capacity";
  let buf = take_spare ~enabled ~capacity in
  {
    enabled;
    capacity;
    released = false;
    buf;
    cap = Bytes.length buf / rec_size;
    first = 0;
    len = 0;
    total = 0;
    (* a disabled trace never interns: keep its tables empty *)
    strs = (if enabled then Array.make 16 "" else [||]);
    nstrs = 0;
    str_ids = Hashtbl.create (if enabled then 16 else 1);
    lit_strs = (if enabled then Array.make lit_cache "" else [||]);
    lit_ids = (if enabled then Array.make lit_cache 0 else [||]);
    nlits = 0;
  }

let enabled t = t.enabled

(* Raises on a released trace.  Whole-trace readers call it first; the
   index readers and the recorders reach it only on their slow paths: a
   released trace has [len = cap = 0], so every index is out of bounds
   and every write must [grow]. *)
let live t what =
  if t.released then invalid_arg ("Trace." ^ what ^ ": released trace")

let release t =
  if t.enabled && not t.released then begin
    t.released <- true;
    let spare = Domain.DLS.get spare in
    if Bytes.length t.buf > Bytes.length (Atomic.get spare) then
      Atomic.set spare t.buf;
    t.buf <- Bytes.empty;
    t.cap <- 0;
    t.first <- 0;
    t.len <- 0
  end

let length t =
  live t "length";
  t.len

let total_recorded t =
  live t "total_recorded";
  t.total

let dropped_oldest t =
  live t "dropped_oldest";
  t.total - t.len

let capacity t =
  live t "capacity";
  if t.capacity = 0 then None else Some t.capacity

let intern t s =
  match Hashtbl.find t.str_ids s with
  | i -> i
  | exception Not_found ->
      let i = t.nstrs in
      if i = Array.length t.strs then begin
        let nbuf = Array.make (Stdlib.max 16 (2 * i)) "" in
        Array.blit t.strs 0 nbuf 0 i;
        t.strs <- nbuf
      end;
      t.strs.(i) <- s;
      t.nstrs <- i + 1;
      Hashtbl.add t.str_ids s i;
      i

(* A top-level loop, not a local closure: the hit path allocates
   nothing. *)
let rec intern_kind_from t s k =
  if k = t.nlits || k = lit_cache then begin
    let i = intern t s in
    let k = t.nlits mod lit_cache in
    t.lit_strs.(k) <- s;
    t.lit_ids.(k) <- i;
    t.nlits <- t.nlits + 1;
    i
  end
  (* lint: allow R5 — identity is the point: a hit proves the same
     literal, and a miss falls back to the content-keyed table *)
  else if t.lit_strs.(k) == s then t.lit_ids.(k)
  else intern_kind_from t s (k + 1)

let intern_kind t s = intern_kind_from t s 0

let intern_detail t s =
  if String.length s > 0 then intern t s else intern_kind t s

(* Ring index of the [j]-th record from the start of the buffer, for
   [j < 2 * cap]: one compare instead of a division. *)
let ring_index t j = if j >= t.cap then j - t.cap else j

let grow t =
  (* Grow (respecting the bound, if any): unwind the ring so the oldest
     record sits at index 0 of the new buffer.  A released trace has
     [len = cap = 0], so every write to it lands here. *)
  live t "record";
  let cap = t.cap in
  let want = Stdlib.max 64 (2 * cap) in
  let want = if t.capacity > 0 then Stdlib.min want t.capacity else want in
  let nbuf = Bytes.create (want * rec_size) in
  if t.len > 0 then begin
    let head = Stdlib.min t.len (cap - t.first) in
    Bytes.blit t.buf (t.first * rec_size) nbuf 0 (head * rec_size);
    if head < t.len then
      Bytes.blit t.buf 0 nbuf (head * rec_size) ((t.len - head) * rec_size)
  end;
  t.buf <- nbuf;
  t.cap <- want;
  t.first <- 0

(* Byte offset of the record slot the next entry should be written to,
   advancing the ring bookkeeping. *)
let write_slot t =
  t.total <- t.total + 1;
  if t.capacity > 0 && t.len = t.capacity then begin
    (* Bounded and full: overwrite the oldest slot. *)
    let idx = t.first in
    t.first <- ring_index t (t.first + 1);
    idx * rec_size
  end
  else begin
    if t.len = t.cap then grow t;
    let idx = ring_index t (t.first + t.len) in
    t.len <- t.len + 1;
    idx * rec_size
  end

let set_slot t off k v =
  Bytes.set_int64_le t.buf (off + 16 + (8 * k)) (Int64.of_int v)

let get_slot t off k = Int64.to_int (Bytes.get_int64_le t.buf (off + 16 + (8 * k)))

let set_time t off tm =
  Bytes.set_int64_le t.buf (off + 8) (Int64.bits_of_float tm)

let get_time t off = Int64.float_of_bits (Bytes.get_int64_le t.buf (off + 8))

let set_tag t off tag mask =
  Bytes.unsafe_set t.buf off (Char.unsafe_chr tag);
  Bytes.unsafe_set t.buf (off + 1) (Char.unsafe_chr mask)

(* --- typed recorders ------------------------------------------------ *)

(* Writes optional slot [k] and returns its presence bit ([m] or 0). *)
let opt_slot tr off k m = function
  | None ->
      set_slot tr off k 0;
      0
  | Some v ->
      set_slot tr off k v;
      m

let record_message tr tag ~t ~id ~src ~dst p =
  if tr.enabled then begin
    let off = write_slot tr in
    let kind_idx = intern_kind tr p.kind in
    let detail_idx = intern_detail tr p.detail in
    set_time tr off t;
    set_slot tr off 0 id;
    set_slot tr off 1 src;
    set_slot tr off 2 dst;
    set_slot tr off 3 kind_idx;
    set_slot tr off 4 detail_idx;
    let mask =
      opt_slot tr off 5 mask_session p.session
      lor opt_slot tr off 6 mask_ballot p.ballot
      lor opt_slot tr off 7 mask_phase p.phase
      lor opt_slot tr off 8 mask_round p.round
      lor opt_slot tr off 9 mask_value p.value
    in
    set_tag tr off tag mask
  end

let record_send tr ~t ~id ~src ~dst p = record_message tr tag_send ~t ~id ~src ~dst p

let record_deliver tr ~t ~id ~src ~dst p =
  record_message tr tag_deliver ~t ~id ~src ~dst p

let record_drop tr ~t ~id ~src ~dst p = record_message tr tag_drop ~t ~id ~src ~dst p

let record_timer_set tr ~t ~proc ~tag ~fire_at =
  if tr.enabled then begin
    let off = write_slot tr in
    set_time tr off t;
    set_slot tr off 0 proc;
    set_slot tr off 1 tag;
    Bytes.set_int64_le tr.buf (off + 16 + 16) (Int64.bits_of_float fire_at);
    set_tag tr off tag_timer_set 0
  end

let record_timer_fire tr ~t ~proc ~tag =
  if tr.enabled then begin
    let off = write_slot tr in
    set_time tr off t;
    set_slot tr off 0 proc;
    set_slot tr off 1 tag;
    set_tag tr off tag_timer_fire 0
  end

let record_proc_event tr tag ~t ~proc =
  if tr.enabled then begin
    let off = write_slot tr in
    set_time tr off t;
    set_slot tr off 0 proc;
    set_tag tr off tag 0
  end

let record_crash tr ~t ~proc = record_proc_event tr tag_crash ~t ~proc

let record_restart tr ~t ~proc = record_proc_event tr tag_restart ~t ~proc

let record_decide tr ~t ~proc ~value =
  if tr.enabled then begin
    let off = write_slot tr in
    set_time tr off t;
    set_slot tr off 0 proc;
    set_slot tr off 1 value;
    set_tag tr off tag_decide 0
  end

let record_note tr ~t ~proc text =
  if tr.enabled then begin
    let off = write_slot tr in
    let text_idx = intern tr text in
    set_time tr off t;
    set_slot tr off 0 proc;
    set_slot tr off 1 text_idx;
    set_tag tr off tag_note 0
  end

let record tr e =
  match e with
  | Send { t; id; src; dst; payload } -> record_send tr ~t ~id ~src ~dst payload
  | Deliver { t; id; src; dst; payload } ->
      record_deliver tr ~t ~id ~src ~dst payload
  | Drop { t; id; src; dst; payload } -> record_drop tr ~t ~id ~src ~dst payload
  | Timer_set { t; proc; tag; fire_at } ->
      record_timer_set tr ~t ~proc ~tag ~fire_at
  | Timer_fire { t; proc; tag } -> record_timer_fire tr ~t ~proc ~tag
  | Crash { t; proc } -> record_crash tr ~t ~proc
  | Restart { t; proc } -> record_restart tr ~t ~proc
  | Decide { t; proc; value } -> record_decide tr ~t ~proc ~value
  | Note { t; proc; text } -> record_note tr ~t ~proc text

(* --- decode --------------------------------------------------------- *)

let offset_of tr i = ring_index tr (tr.first + i) * rec_size

let decode tr off =
  let tag = Char.code (Bytes.get tr.buf off) in
  let t = get_time tr off in
  if tag <= tag_drop then begin
    let mask = Char.code (Bytes.get tr.buf (off + 1)) in
    let opt m k = if mask land m <> 0 then Some (get_slot tr off k) else None in
    let payload =
      {
        kind = tr.strs.(get_slot tr off 3);
        session = opt mask_session 5;
        ballot = opt mask_ballot 6;
        phase = opt mask_phase 7;
        round = opt mask_round 8;
        value = opt mask_value 9;
        detail = tr.strs.(get_slot tr off 4);
      }
    in
    let id = get_slot tr off 0
    and src = get_slot tr off 1
    and dst = get_slot tr off 2 in
    if tag = tag_send then Send { t; id; src; dst; payload }
    else if tag = tag_deliver then Deliver { t; id; src; dst; payload }
    else Drop { t; id; src; dst; payload }
  end
  else if tag = tag_timer_set then
    Timer_set
      {
        t;
        proc = get_slot tr off 0;
        tag = get_slot tr off 1;
        fire_at = Int64.float_of_bits (Bytes.get_int64_le tr.buf (off + 16 + 16));
      }
  else if tag = tag_timer_fire then
    Timer_fire { t; proc = get_slot tr off 0; tag = get_slot tr off 1 }
  else if tag = tag_crash then Crash { t; proc = get_slot tr off 0 }
  else if tag = tag_restart then Restart { t; proc = get_slot tr off 0 }
  else if tag = tag_decide then
    Decide { t; proc = get_slot tr off 0; value = get_slot tr off 1 }
  else Note { t; proc = get_slot tr off 0; text = tr.strs.(get_slot tr off 1) }

(* [get t i]: the [i]th oldest retained entry, 0-based. *)
let get tr i =
  if i < 0 || i >= tr.len then begin
    live tr "get";
    invalid_arg "Trace.get: index out of bounds"
  end;
  decode tr (offset_of tr i)

(* --- copies of a recorded send -------------------------------------- *)

(* [sent] numbers records as [total] did when the send was written.  The
   copy keeps the id, endpoints and payload slots and rewrites the tag
   and the time, which arrives as its [Sim_time] key (an int, so the
   call boxes nothing).  [false] when the send is no longer retained or
   [sent] names no send; the caller then records the entry afresh. *)
let copy_send tr tag ~sent ~key =
  if tr.enabled then live tr "deliver_as_sent";
  tr.enabled
  && sent >= tr.total - tr.len
  && sent < tr.total
  && Char.code
       (Bytes.unsafe_get tr.buf (offset_of tr (sent - (tr.total - tr.len))))
     = tag_send
  && begin
       let off = write_slot tr in
       (* A full bounded ring writes over its oldest record; when that
          was the send itself, its bytes already sit in [off]. *)
       let i = sent - (tr.total - tr.len) in
       if i >= 0 then Bytes.blit tr.buf (offset_of tr i) tr.buf off rec_size;
       (* the time's bits, as [Sim_time.t_of_key] recovers them *)
       Bytes.set_int64_le tr.buf (off + 8)
         (Int64.logand (Int64.of_int (key lxor Stdlib.min_int)) Int64.max_int);
       Bytes.unsafe_set tr.buf off (Char.unsafe_chr tag);
       true
     end

let deliver_as_sent tr ~sent ~key = copy_send tr tag_deliver ~sent ~key

let drop_as_sent tr ~sent ~key = copy_send tr tag_drop ~sent ~key

(* --- field readers --------------------------------------------------- *)

type tag =
  | Tag_send
  | Tag_deliver
  | Tag_drop
  | Tag_timer_set
  | Tag_timer_fire
  | Tag_crash
  | Tag_restart
  | Tag_decide
  | Tag_note

let tags =
  [|
    Tag_send;
    Tag_deliver;
    Tag_drop;
    Tag_timer_set;
    Tag_timer_fire;
    Tag_crash;
    Tag_restart;
    Tag_decide;
    Tag_note;
  |]

let checked_offset tr i =
  if i < 0 || i >= tr.len then begin
    live tr "field reader";
    invalid_arg "Trace: index out of bounds"
  end;
  offset_of tr i

let tag_code tr off = Char.code (Bytes.unsafe_get tr.buf off)

let tag_at tr i = tags.(tag_code tr (checked_offset tr i) - 1)

(* Slot [k] of entry [i], which must carry one of the tags in
   [lo .. hi]. *)
let field tr i ~lo ~hi k what =
  let off = checked_offset tr i in
  let tag = tag_code tr off in
  if tag < lo || tag > hi then invalid_arg ("Trace." ^ what ^ ": wrong entry");
  get_slot tr off k

let id_at tr i = field tr i ~lo:tag_send ~hi:tag_drop 0 "id_at"

let src_at tr i = field tr i ~lo:tag_send ~hi:tag_drop 1 "src_at"

let dst_at tr i = field tr i ~lo:tag_send ~hi:tag_drop 2 "dst_at"

let proc_at tr i = field tr i ~lo:tag_timer_set ~hi:tag_note 0 "proc_at"

let timer_tag_at tr i =
  field tr i ~lo:tag_timer_set ~hi:tag_timer_fire 1 "timer_tag_at"

let decided_at tr i = field tr i ~lo:tag_decide ~hi:tag_decide 1 "decided_at"

let text_at tr i = tr.strs.(field tr i ~lo:tag_note ~hi:tag_note 1 "text_at")

let entry_time tr i = get_time tr (checked_offset tr i)

let fire_time tr i =
  let off = checked_offset tr i in
  if tag_code tr off <> tag_timer_set then
    invalid_arg "Trace.fire_time: wrong entry";
  Int64.float_of_bits (Bytes.get_int64_le tr.buf (off + 16 + 16))

let compare_times tr i j =
  Float.compare
    (get_time tr (checked_offset tr i))
    (get_time tr (checked_offset tr j))

let iter f t =
  live t "iter";
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let fold f acc t =
  let acc = ref acc in
  iter (fun e -> acc := f !acc e) t;
  !acc

let entries t =
  live t "entries";
  List.init t.len (get t)

(* Entries are recorded in non-decreasing time order, so the earliest
   index at or after a time bound is a binary search. *)
let first_at_or_after t time =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Sim_time.compare (get_time t (offset_of t mid)) time < 0 then
      lo := mid + 1
    else hi := mid
  done;
  !lo

let fold_window f acc t ~lo ~hi =
  live t "fold_window";
  let acc = ref acc in
  let i = ref (first_at_or_after t lo) in
  let continue_ = ref true in
  while !continue_ && !i < t.len do
    let e = get t !i in
    if Sim_time.compare (time_of e) hi > 0 then continue_ := false
    else begin
      acc := f !acc e;
      incr i
    end
  done;
  !acc

let sends_in_window t ~lo ~hi =
  live t "sends_in_window";
  let n = ref 0 and i = ref (first_at_or_after t lo) in
  while
    !i < t.len && Sim_time.compare (get_time t (offset_of t !i)) hi <= 0
  do
    if Char.code (Bytes.unsafe_get t.buf (offset_of t !i)) = tag_send then
      incr n;
    incr i
  done;
  !n

let decisions t =
  List.rev
    (fold
       (fun acc e ->
         match e with
         | Decide { t; proc; value } -> (proc, t, value) :: acc
         | _ -> acc)
       [] t)

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_entry fmt = function
  | Send { t; id; src; dst; payload } ->
      Format.fprintf fmt "%a send #%d %d->%d %a" Sim_time.pp t id src dst
        pp_payload payload
  | Deliver { t; id; src; dst; payload } ->
      Format.fprintf fmt "%a dlvr #%d %d->%d %a" Sim_time.pp t id src dst
        pp_payload payload
  | Drop { t; id; src; dst; payload } ->
      Format.fprintf fmt "%a drop #%d %d->%d %a" Sim_time.pp t id src dst
        pp_payload payload
  | Timer_set { t; proc; tag; fire_at } ->
      Format.fprintf fmt "%a tset p%d tag=%d fire=%a" Sim_time.pp t proc tag
        Sim_time.pp fire_at
  | Timer_fire { t; proc; tag } ->
      Format.fprintf fmt "%a fire p%d tag=%d" Sim_time.pp t proc tag
  | Crash { t; proc } -> Format.fprintf fmt "%a CRASH p%d" Sim_time.pp t proc
  | Restart { t; proc } ->
      Format.fprintf fmt "%a RESTART p%d" Sim_time.pp t proc
  | Decide { t; proc; value } ->
      Format.fprintf fmt "%a DECIDE p%d value=%d" Sim_time.pp t proc value
  | Note { t; proc; text } ->
      Format.fprintf fmt "%a note p%d %s" Sim_time.pp t proc text

let pp fmt t = iter (fun e -> Format.fprintf fmt "%a@." pp_entry e) t

(* ------------------------------------------------------------------ *)
(* JSONL export / import                                               *)
(* ------------------------------------------------------------------ *)

(* One flat {!Json} object per line, written from the binary records
   straight into the buffer with {!Json}'s primitives.  Times print as
   [%.17g] ({!Json.add_float}), which round-trips every finite float;
   ints and strings keep their exact values, so [of_jsonl] rebuilds the
   same entries. *)

let ev_names =
  [|
    "send";
    "deliver";
    "drop";
    "timer_set";
    "timer_fire";
    "crash";
    "restart";
    "decide";
    "note";
  |]

(* Entries often share the previous one's time (a broadcast, the sends
   of one handler): [last] keeps the lexeme {!Json.add_float} wrote for
   the record at [last_off], reused while the time bits are the same. *)
type time_lexeme = { mutable last_off : int; mutable last : string }

let add_time buf tr cache off =
  if
    cache.last_off >= 0
    && Int64.equal
         (Bytes.get_int64_le tr.buf (cache.last_off + 8))
         (Bytes.get_int64_le tr.buf (off + 8))
  then Buffer.add_string buf cache.last
  else begin
    let start = Buffer.length buf in
    Json.add_float buf (get_time tr off);
    cache.last <- Buffer.sub buf start (Buffer.length buf - start)
  end;
  cache.last_off <- off

let add_jsonl_entry buf tr cache off =
  let tag = tag_code tr off in
  let key k =
    Buffer.add_char buf ',';
    Json.add_key buf k
  in
  let int k slot =
    key k;
    Json.add_int buf (get_slot tr off slot)
  in
  Buffer.add_char buf '{';
  Json.add_key buf "ev";
  Json.add_string buf ev_names.(tag - 1);
  key "t";
  add_time buf tr cache off;
  if tag <= tag_drop then begin
    let mask = Char.code (Bytes.unsafe_get tr.buf (off + 1)) in
    let opt k m slot = if mask land m <> 0 then int k slot in
    int "id" 0;
    int "src" 1;
    int "dst" 2;
    key "kind";
    Json.add_string buf tr.strs.(get_slot tr off 3);
    opt "session" mask_session 5;
    opt "ballot" mask_ballot 6;
    opt "phase" mask_phase 7;
    opt "round" mask_round 8;
    opt "value" mask_value 9;
    let detail = tr.strs.(get_slot tr off 4) in
    if detail <> "" then begin
      key "detail";
      Json.add_string buf detail
    end
  end
  else begin
    int "proc" 0;
    if tag = tag_timer_set then begin
      int "tag" 1;
      key "fire_at";
      Json.add_float buf
        (Int64.float_of_bits (Bytes.get_int64_le tr.buf (off + 16 + 16)))
    end
    else if tag = tag_timer_fire then int "tag" 1
    else if tag = tag_decide then int "value" 1
    else if tag = tag_note then begin
      key "text";
      Json.add_string buf tr.strs.(get_slot tr off 1)
    end
  end;
  Buffer.add_string buf "}\n"

let to_jsonl t =
  live t "to_jsonl";
  let buf = Buffer.create (128 * t.len) in
  let cache = { last_off = -1; last = "" } in
  for i = 0 to t.len - 1 do
    add_jsonl_entry buf t cache (offset_of t i)
  done;
  Buffer.contents buf

let entry_of_json j =
  let ( let* ) = Result.bind in
  let field conv k v =
    Result.map_error (Printf.sprintf "field %S: %s" k) (conv v)
  in
  let get conv k = Result.bind (Json.member k j) (field conv k) in
  let opt conv k =
    match Json.member_opt k j with
    | None -> Ok None
    | Some v -> Result.map Option.some (field conv k v)
  in
  let int = get Json.to_int and num = get Json.to_float in
  let* ev = get Json.to_string "ev" in
  let* t = num "t" in
  let msg mk =
    let* id = int "id" in
    let* src = int "src" in
    let* dst = int "dst" in
    let* kind = get Json.to_string "kind" in
    let* session = opt Json.to_int "session" in
    let* ballot = opt Json.to_int "ballot" in
    let* phase = opt Json.to_int "phase" in
    let* round = opt Json.to_int "round" in
    let* value = opt Json.to_int "value" in
    let* detail = opt Json.to_string "detail" in
    let detail = Option.value detail ~default:"" in
    Ok (mk id src dst { kind; session; ballot; phase; round; value; detail })
  in
  match ev with
  | "send" -> msg (fun id src dst payload -> Send { t; id; src; dst; payload })
  | "deliver" ->
      msg (fun id src dst payload -> Deliver { t; id; src; dst; payload })
  | "drop" -> msg (fun id src dst payload -> Drop { t; id; src; dst; payload })
  | "timer_set" ->
      let* proc = int "proc" in
      let* tag = int "tag" in
      let* fire_at = num "fire_at" in
      Ok (Timer_set { t; proc; tag; fire_at })
  | "timer_fire" ->
      let* proc = int "proc" in
      let* tag = int "tag" in
      Ok (Timer_fire { t; proc; tag })
  | "crash" ->
      let* proc = int "proc" in
      Ok (Crash { t; proc })
  | "restart" ->
      let* proc = int "proc" in
      Ok (Restart { t; proc })
  | "decide" ->
      let* proc = int "proc" in
      let* value = int "value" in
      Ok (Decide { t; proc; value })
  | "note" ->
      let* proc = int "proc" in
      let* text = get Json.to_string "text" in
      Ok (Note { t; proc; text })
  | ev -> Error (Printf.sprintf "unknown event kind %S" ev)

let of_jsonl s =
  let tr = create ~enabled:true () in
  let rec go lineno = function
    | [] -> Ok tr
    | line :: rest when String.trim line = "" -> go (lineno + 1) rest
    | line :: rest -> (
        match Result.bind (Json.parse line) entry_of_json with
        | Ok e ->
            record tr e;
            go (lineno + 1) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 (String.split_on_char '\n' s)
