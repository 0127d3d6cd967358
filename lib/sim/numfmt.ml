(* Integer emitter for protocol notes built on step/handle paths: it
   writes the digits of [string_of_int n] straight into the caller's
   [Buffer], so a note costs no intermediate string. *)

let add_int buf n =
  if n = 0 then Buffer.add_char buf '0'
  else begin
    if n < 0 then Buffer.add_char buf '-';
    (* Work on the negative side so [min_int] needs no special case. *)
    let n = if n > 0 then -n else n in
    let div = ref 1 in
    while !div <= Stdlib.max_int / 10 && n <= - !div * 10 do
      div := !div * 10
    done;
    while !div > 0 do
      let digit = -(n / !div mod 10) mod 10 in
      Buffer.add_char buf (Char.chr (48 + digit));
      div := !div / 10
    done
  end
