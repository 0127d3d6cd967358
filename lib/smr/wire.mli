(** Binary wire protocol for the socket cluster ([WIRE.md] is the
    byte-level spec; this module is its only implementation).

    Every frame is a 12-byte header — magic ["ES"], version byte, tag
    byte, payload length (u32, big-endian), CRC-32 of the payload (u32,
    big-endian) — followed by the payload.  Tags [0x10]–[0x16] carry the
    replica-to-replica messages of {!Smr_messages.t} verbatim; [0x01]
    identifies a connecting peer or client, and [0x20]/[0x21] are the
    client request/response pair.

    {!decode} is incremental: feed it a buffer prefix and it returns
    either a message plus the number of bytes consumed, [`Need_more]
    when the frame is still incomplete, or a typed {!error}.  Corrupt
    frames (bad magic, version, CRC, tag, or payload shape) are
    rejected without consuming input, so the caller decides whether to
    drop the connection. *)

(** Client-visible outcome of a command, as carried by a [Response]
    frame.  {!reply_of_kv} maps {!Kv_state.reply} onto it. *)
type reply =
  | R_stored  (** write acknowledged (put, register ops, noop) *)
  | R_value of string option  (** get result; [None] = key absent *)
  | R_cas of { ok : bool; actual : string option }
      (** cas outcome; [actual] is the losing binding on failure *)
  | R_redirect of { leader : int }
      (** not the leader; retry at replica [leader] *)
  | R_error of string

type t =
  | Hello of { sender : int }
      (** first frame on every connection; [sender] is the replica id,
          or [-1] for clients *)
  | Peer of Smr_messages.t  (** replica-to-replica consensus traffic *)
  | Request of { seq : int; cmd : Command.t }
      (** client command; [seq] is echoed in the response *)
  | Response of { seq : int; reply : reply }

type error =
  | Bad_magic
  | Bad_version
  | Bad_crc
  | Bad_tag of int
  | Too_large of int
  | Malformed

val header_len : int
(** Frame header size in bytes (12). *)

val max_payload : int
(** Largest accepted payload (16 MiB); longer frames are [Too_large]. *)

val size : t -> int
(** Length in bytes of the complete frame (header + payload) for a
    message. *)

val write : Bytes.t -> int -> t -> int
(** [write buf off msg] writes the complete frame for [msg] into [buf]
    at [off] and returns its length ([size msg]); no byte outside that
    range is touched.  Raises [Invalid_argument] when [off] is negative
    or the frame does not fit. *)

val to_bytes : t -> Bytes.t
(** One complete frame as a freshly allocated, exactly sized [Bytes.t]. *)

val encode : Buffer.t -> t -> unit
(** Append one complete frame (header + payload) to [buf]. *)

val decode :
  Bytes.t ->
  pos:int ->
  avail:int ->
  (t * int, [ `Need_more | `Error of error ]) result
(** [decode buf ~pos ~avail] parses one frame starting at [pos], given
    [avail] readable bytes.  [Ok (msg, consumed)] on success;
    [`Need_more] when the buffer holds only a frame prefix. *)

val crc32 : Bytes.t -> int -> int -> int
(** [crc32 buf off len] — IEEE CRC-32 of the [len] bytes of [buf] from
    [off] (exposed for the spec's worked example and the tests).  Raises
    [Invalid_argument] when [off < 0], [len < 0] or
    [off + len > Bytes.length buf]. *)

val reply_of_kv : Kv_state.reply -> reply

val info : t -> string
(** One-line rendering for traces and verbose logs. *)

val pp_error : Format.formatter -> error -> unit
