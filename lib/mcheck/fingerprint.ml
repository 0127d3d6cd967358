(* A fingerprint is 16 immutable bytes: [hi] little-endian at offset 0,
   [lo] at offset 8.  Lanes are only ever read and written through
   [get_int64_le]/[set_int64_le] or local refs inside one function, so
   the int64 arithmetic stays unboxed even where cross-module inlining
   is off. *)
type t = string

let equal = String.equal

let to_hex t =
  Printf.sprintf "%016Lx%016Lx" (String.get_int64_le t 0)
    (String.get_int64_le t 8)

let of_hex h =
  let is_hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false in
  if String.length h <> 32 || not (String.for_all is_hex h) then
    invalid_arg "Fingerprint.of_hex";
  let t = Bytes.create 16 in
  Bytes.set_int64_le t 0 (Int64.of_string ("0x" ^ String.sub h 0 16));
  Bytes.set_int64_le t 8 (Int64.of_string ("0x" ^ String.sub h 16 16));
  Bytes.unsafe_to_string t

(* Two independent 64-bit lanes.  Each step xors the (whitened) input
   word into the lane, multiplies by a lane-specific odd constant and
   runs the splitmix64 finalizer, so every input bit avalanches into
   the whole lane before the next word arrives.  The lanes differ in
   multiplier, initial value and input whitening, so a joint collision
   needs the full 128-bit internal state to collide. *)

let[@inline] mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let lane1_init = 0x9E3779B97F4A7C15L

let lane2_init = 0xC2B2AE3D27D4EB4FL

(* The two running lanes, [h1] at offset 0 and [h2] at offset 8. *)
type hasher = Bytes.t

let hasher () =
  let h = Bytes.create 16 in
  Bytes.set_int64_le h 0 lane1_init;
  Bytes.set_int64_le h 8 lane2_init;
  h

(* One input word's step on each lane. *)
let[@inline] step1 h w =
  mix64 (Int64.mul (Int64.logxor h w) 0xFF51AFD7ED558CCDL)

let[@inline] step2 h w =
  mix64
    (Int64.mul
       (Int64.logxor h (Int64.logxor w 0xA5A5A5A5A5A5A5A5L))
       0xC4CEB9FE1A85EC53L)

let add h i =
  let w = Int64.of_int i in
  Bytes.set_int64_le h 0 (step1 (Bytes.get_int64_le h 0) w);
  Bytes.set_int64_le h 8 (step2 (Bytes.get_int64_le h 8) w);
  h

let[@inline] finish_lanes h1 h2 =
  let t = Bytes.create 16 in
  Bytes.set_int64_le t 0 (mix64 h1);
  Bytes.set_int64_le t 8 (mix64 h2);
  Bytes.unsafe_to_string t

let finish h = finish_lanes (Bytes.get_int64_le h 0) (Bytes.get_int64_le h 8)

(* The lanes are local mutable variables that never escape, so the
   compiler keeps them unboxed for the whole loop. *)
let of_words ws =
  let h1 = ref lane1_init and h2 = ref lane2_init in
  for i = 0 to Array.length ws - 1 do
    let w = Int64.of_int ws.(i) in
    h1 := step1 !h1 w;
    h2 := step2 !h2 w
  done;
  finish_lanes !h1 !h2

module Set = struct
  (* Open addressing with linear probing over one [Bytes] of 16-byte
     slots.  An all-zero slot is empty, so the all-zero fingerprint is
     kept in its own flag.  The capacity is a power of two and doubles
     before the table is more than half full. *)
  type fp = t

  type t = {
    mutable slots : Bytes.t;
    mutable used : int;  (** occupied slots *)
    mutable zero : bool;  (** the all-zero fingerprint is a member *)
  }

  let initial_slots = 1024

  let create () =
    { slots = Bytes.make (16 * initial_slots) '\000'; used = 0; zero = false }

  let length s = s.used + Bool.to_int s.zero

  (* Probe [slots] for the nonzero key in bytes [off .. off + 15] of
     [key]: [i >= 0] when slot [i] holds it, [-1 - i] when the probe
     ended at the empty slot [i]. *)
  let probe slots key off =
    let hi = Bytes.get_int64_le key off
    and lo = Bytes.get_int64_le key (off + 8) in
    let mask = (Bytes.length slots / 16) - 1 in
    let i = ref (Int64.to_int lo land mask)
    and result = ref 0
    and searching = ref true in
    while !searching do
      let s_hi = Bytes.get_int64_le slots (16 * !i)
      and s_lo = Bytes.get_int64_le slots ((16 * !i) + 8) in
      if s_hi = hi && s_lo = lo then begin
        result := !i;
        searching := false
      end
      else if s_hi = 0L && s_lo = 0L then begin
        result := -1 - !i;
        searching := false
      end
      else i := (!i + 1) land mask
    done;
    !result

  let is_zero (fp : fp) =
    String.get_int64_le fp 0 = 0L && String.get_int64_le fp 8 = 0L

  let mem s (fp : fp) =
    if is_zero fp then s.zero
    else probe s.slots (Bytes.unsafe_of_string fp) 0 >= 0

  let grow s =
    let old = s.slots in
    let slots = Bytes.make (2 * Bytes.length old) '\000' in
    for i = 0 to (Bytes.length old / 16) - 1 do
      let off = 16 * i in
      if
        Bytes.get_int64_le old off <> 0L
        || Bytes.get_int64_le old (off + 8) <> 0L
      then Bytes.blit old off slots (16 * (-1 - probe slots old off)) 16
    done;
    s.slots <- slots

  let add s (fp : fp) =
    if is_zero fp then s.zero <- true
    else begin
      let key = Bytes.unsafe_of_string fp in
      let p = probe s.slots key 0 in
      if p < 0 then begin
        let p =
          if 2 * (s.used + 1) <= Bytes.length s.slots / 16 then p
          else begin
            grow s;
            probe s.slots key 0
          end
        in
        Bytes.blit key 0 s.slots (16 * (-1 - p)) 16;
        s.used <- s.used + 1
      end
    end
end
