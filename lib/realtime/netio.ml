(* Single-threaded Unix.select event loop: nonblocking TCP with
   buffered reads/writes, one-shot closure timers, and the wall clock.
   lib/realtime is the only layer allowed to read real time (lint R1);
   everything above gets time through [now]/[wall]. *)

type conn = {
  cid : int;
  fd : Unix.file_descr;
  mutable connected : bool;  (* false while a nonblocking connect pends *)
  mutable closing : bool;
  mutable inbuf : Bytes.t;
  mutable in_off : int;  (* first unconsumed byte *)
  mutable in_len : int;  (* end of valid data *)
  mutable stale_since : float;
      (* loop time at which the unconsumed input region became non-empty;
         -1 while it is empty.  Drip-feeding bytes without ever completing
         a frame does NOT reset it — only consuming everything does — so
         it bounds how long a partial frame may sit in the buffer. *)
  mutable outbuf : Bytes.t;
  mutable out_off : int;  (* first unwritten byte *)
  mutable out_len : int;  (* end of queued data *)
  mutable on_data : conn -> unit;
  mutable on_close : conn -> unit;
}

type listener = {
  lfd : Unix.file_descr;
  on_accept : conn -> unit;
  mutable pause_until : float;
      (* accept backoff deadline (loop time): after a persistent accept
         error (EMFILE/ENFILE/ECONNABORTED...) the listener fd stays
         readable, so polling it again immediately would spin select at
         100% CPU; keep it out of rfds until the deadline passes *)
}

type t = {
  mutable conns : conn list;
  mutable listeners : listener list;
  timers : (float * int * (unit -> unit)) Sim.Event_queue.t;
  mutable timer_seq : int;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable stopped : bool;
  mutable next_cid : int;
  t0 : float;
  mutable partial_timeout : float option;
      (* close a connection whose unconsumed input has sat for longer
         than this (a stalled peer holding a partial frame) *)
  mutable max_input : int option;
      (* close a connection whose unconsumed input grows past this *)
  mutable registry : Sim.Registry.t option;  (* netio_* drop counters *)
  mutable writes : int;  (* write syscalls issued, for tests *)
}

(* the realtime engine owns the wall clock: lib/realtime is R1-exempt
   by scope, so no sited allow is needed here *)
let wall () = Unix.gettimeofday ()

let timer_cmp (t1, s1, _) (t2, s2, _) =
  let c = Float.compare t1 t2 in
  if c <> 0 then c else Int.compare s1 s2

let create () =
  (* a write on a freshly closed peer socket must surface as EPIPE, not
     kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    conns = [];
    listeners = [];
    timers = Sim.Event_queue.create ~cmp:timer_cmp ();
    timer_seq = 0;
    wake_r;
    wake_w;
    stopped = false;
    next_cid = 0;
    t0 = wall ();
    partial_timeout = None;
    max_input = None;
    registry = None;
    writes = 0;
  }

let now t = wall () -. t.t0

let set_limits t ?partial_timeout ?max_input () =
  (match partial_timeout with
  | Some d when d <= 0. -> invalid_arg "Netio.set_limits: timeout <= 0"
  | Some _ | None -> ());
  (match max_input with
  | Some b when b < 1 -> invalid_arg "Netio.set_limits: max_input < 1"
  | Some _ | None -> ());
  t.partial_timeout <- partial_timeout;
  t.max_input <- max_input

let set_registry t reg = t.registry <- Some reg

let count t name =
  match t.registry with Some reg -> Sim.Registry.inc reg name | None -> ()

let conn_id c = c.cid

let after t delay fn =
  t.timer_seq <- t.timer_seq + 1;
  Sim.Event_queue.add t.timers (now t +. delay, t.timer_seq, fn)

(* Best-effort: a stop racing the loop's own teardown may find the wake
   pipe already closed (EBADF) — the loop is gone either way. *)
let wake t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

let stop t =
  t.stopped <- true;
  wake t

let noop_data (_ : conn) = ()
let noop_close (_ : conn) = ()

(* An output region is allocated on first use (inbound peer links never
   write) at [out_small] bytes.  A burst may grow it past [out_cap], but
   once drained it shrinks back, so a connection does not keep a
   burst's footprint alive. *)
let out_small = 4096
let out_cap = 65536

let make_conn t fd ~connected =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  t.next_cid <- t.next_cid + 1;
  let c =
    {
      cid = t.next_cid;
      fd;
      connected;
      closing = false;
      inbuf = Bytes.create 4096;
      in_off = 0;
      in_len = 0;
      stale_since = -1.;
      outbuf = Bytes.empty;
      out_off = 0;
      out_len = 0;
      on_data = noop_data;
      on_close = noop_close;
    }
  in
  t.conns <- c :: t.conns;
  c

let set_callbacks c ~on_data ~on_close =
  c.on_data <- on_data;
  c.on_close <- on_close

let close t c =
  if not c.closing then begin
    c.closing <- true;
    c.out_off <- 0;
    c.out_len <- 0;
    t.conns <- List.filter (fun o -> o.cid <> c.cid) t.conns;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    c.on_close c
  end

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> raise Not_found
    | h -> h.Unix.h_addr_list.(0))

let listen t ~host ~port ~on_accept =
  let addr = Unix.ADDR_INET (resolve host, port) in
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.set_nonblock lfd;
  (try Unix.bind lfd addr
   with e ->
     (try Unix.close lfd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen lfd 64;
  t.listeners <- { lfd; on_accept; pause_until = 0. } :: t.listeners;
  match Unix.getsockname lfd with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> port

let connect t ~host ~port =
  let addr = Unix.ADDR_INET (resolve host, port) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  let connected =
    try
      Unix.connect fd addr;
      true
    with
    | Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> false
  in
  make_conn t fd ~connected

(* ---- buffered output ----

   Each connection owns one contiguous output region, shaped like the
   input one: [outbuf.[out_off, out_len)] is queued and unwritten.
   Enqueueing blits into it, so a flush is a single write over the
   whole range however many frames were queued. *)

let pending_out c = c.out_len > c.out_off

(* Room for [n] more bytes at the end of the region: slide the live
   range to the front when the written prefix is at least as long as it
   (so each byte is moved O(1) times), otherwise grow. *)
let reserve c n =
  let cap = Bytes.length c.outbuf in
  if c.out_len + n > cap then begin
    let live = c.out_len - c.out_off in
    if live + n <= cap && c.out_off >= live then
      Bytes.blit c.outbuf c.out_off c.outbuf 0 live
    else begin
      let bigger = Bytes.create (max (max (cap * 2) out_small) (live + n)) in
      Bytes.blit c.outbuf c.out_off bigger 0 live;
      c.outbuf <- bigger
    end;
    c.out_off <- 0;
    c.out_len <- live
  end

(* One write over everything queued.  A short write (socket buffer
   full, or the runtime's per-call cap) leaves the rest in place; the
   loop resumes it once select reports the socket writable. *)
let flush t c =
  if c.connected && (not c.closing) && pending_out c then begin
    t.writes <- t.writes + 1;
    match Unix.single_write c.fd c.outbuf c.out_off (c.out_len - c.out_off) with
    | n ->
        c.out_off <- c.out_off + n;
        if c.out_off = c.out_len then begin
          c.out_off <- 0;
          c.out_len <- 0;
          if Bytes.length c.outbuf > out_cap then
            c.outbuf <- Bytes.create out_small
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> close t c
  end

let enqueue_sub c bytes off n =
  if off < 0 || n < 0 || off > Bytes.length bytes - n then
    invalid_arg "Netio.enqueue_sub";
  if not c.closing then begin
    reserve c n;
    Bytes.blit bytes off c.outbuf c.out_len n;
    c.out_len <- c.out_len + n
  end

let enqueue c bytes = enqueue_sub c bytes 0 (Bytes.length bytes)

let send t c bytes =
  enqueue c bytes;
  flush t c

let closing c = c.closing

(* ---- buffered input ---- *)

let input c = (c.inbuf, c.in_off, c.in_len - c.in_off)

let consume c n =
  c.in_off <- c.in_off + n;
  if c.in_off >= c.in_len then begin
    c.in_off <- 0;
    c.in_len <- 0;
    c.stale_since <- -1.
  end
  else if c.in_off > 65536 then begin
    (* keep the live region anchored near the front so the buffer does
       not grow without bound under sustained pipelining *)
    Bytes.blit c.inbuf c.in_off c.inbuf 0 (c.in_len - c.in_off);
    c.in_len <- c.in_len - c.in_off;
    c.in_off <- 0
  end

let read_ready t c =
  let cap = Bytes.length c.inbuf in
  if cap - c.in_len < 4096 then begin
    let bigger = Bytes.create (max (cap * 2) (c.in_len + 65536)) in
    Bytes.blit c.inbuf 0 bigger 0 c.in_len;
    c.inbuf <- bigger
  end;
  match Unix.read c.fd c.inbuf c.in_len (Bytes.length c.inbuf - c.in_len) with
  | 0 -> close t c
  | n ->
      c.in_len <- c.in_len + n;
      c.on_data c;
      if not c.closing then begin
        let unconsumed = c.in_len - c.in_off in
        if unconsumed = 0 then c.stale_since <- -1.
        else begin
          if c.stale_since < 0. then c.stale_since <- now t;
          match t.max_input with
          | Some cap when unconsumed > cap ->
              (* the peer outran the decoder's appetite (or is feeding us
                 a frame the application refuses to consume): drop it
                 rather than buffering without bound *)
              count t "netio_input_overflows";
              close t c
          | Some _ | None -> ()
        end
      end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> close t c

let write_ready t c =
  if not c.connected then begin
    match Unix.getsockopt_error c.fd with
    | None ->
        c.connected <- true;
        flush t c
    | Some _ -> close t c
  end
  else flush t c

(* ---- the loop ---- *)

let run_due_timers t =
  let fired = ref true in
  while !fired do
    fired := false;
    match Sim.Event_queue.peek_min t.timers with
    | Some (due, _, _) when due <= now t -> (
        match Sim.Event_queue.pop_min t.timers with
        | Some (_, _, fn) ->
            fired := true;
            fn ()
        | None -> ())
    | Some _ | None -> ()
  done

let step t timeout =
  run_due_timers t;
  let timeout =
    match Sim.Event_queue.peek_min t.timers with
    | Some (due, _, _) -> Float.min timeout (Float.max 0. (due -. now t))
    | None -> timeout
  in
  let rfds =
    t.wake_r
    :: List.filter_map
         (fun l -> if l.pause_until <= now t then Some l.lfd else None)
         t.listeners
    @ List.filter_map
        (fun c -> if c.connected && not c.closing then Some c.fd else None)
        t.conns
  in
  let wfds =
    List.filter_map
      (fun c ->
        if c.closing then None
        else if (not c.connected) || pending_out c then Some c.fd
        else None)
      t.conns
  in
  match Unix.select rfds wfds [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
      if List.memq t.wake_r readable then begin
        let junk = Bytes.create 64 in
        try
          while Unix.read t.wake_r junk 0 64 > 0 do
            ()
          done
        with Unix.Unix_error _ -> ()
      end;
      List.iter
        (fun l ->
          if List.memq l.lfd readable then
            let accepting = ref true in
            while !accepting do
              match Unix.accept ~cloexec:true l.lfd with
              | fd, _ ->
                  let c = make_conn t fd ~connected:true in
                  l.on_accept c
              | exception
                  Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                ->
                  accepting := false
              | exception Unix.Unix_error _ ->
                  (* persistent failure (e.g. fd exhaustion): the fd
                     stays readable, so back off instead of busy-spinning
                     through select *)
                  count t "netio_accept_backoffs";
                  l.pause_until <- now t +. 0.05;
                  accepting := false
            done)
        t.listeners;
      (* snapshot: callbacks may open or close connections *)
      let snapshot = t.conns in
      List.iter
        (fun c -> if (not c.closing) && List.memq c.fd writable then write_ready t c)
        snapshot;
      List.iter
        (fun c -> if (not c.closing) && List.memq c.fd readable then read_ready t c)
        snapshot;
      (match t.partial_timeout with
      | None -> ()
      | Some limit ->
          let deadline = now t -. limit in
          List.iter
            (fun c ->
              if
                (not c.closing)
                && c.stale_since >= 0.
                && c.stale_since < deadline
              then begin
                count t "netio_partial_timeouts";
                close t c
              end)
            t.conns);
      run_due_timers t

let run t =
  while not t.stopped do
    step t 0.1
  done

let shutdown t =
  List.iter (fun c -> close t c) t.conns;
  List.iter
    (fun l -> try Unix.close l.lfd with Unix.Unix_error _ -> ())
    t.listeners;
  t.listeners <- [];
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()

module Private = struct
  (* Replace every listener fd with the read end of a pipe holding one
     unread byte: select reports it readable, accept fails with
     ENOTSOCK — a persistent error, which is exactly the shape of fd
     exhaustion — so the next [step] must take the backoff branch.
     dup2 keeps the fd *number* alive, so the loop's bookkeeping is
     untouched; only the kernel object behind it changes. *)
  let sabotage_listeners t =
    List.iter
      (fun l ->
        let r, w = Unix.pipe () in
        ignore (Unix.write w (Bytes.make 1 'x') 0 1);
        Unix.dup2 r l.lfd;
        Unix.close r;
        Unix.close w)
      t.listeners

  let paused_listeners t =
    List.length (List.filter (fun l -> l.pause_until > now t) t.listeners)

  let writes t = t.writes

  let out_capacity c = Bytes.length c.outbuf
end
