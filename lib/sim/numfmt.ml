(* Integer emitters for text built on hot paths — protocol notes and
   trace payload details — where [Printf] or [Format] would cost a
   format interpretation per event: [add_int] writes the digits of
   [string_of_int n] straight into the caller's [Buffer]. *)

(* Digits of [m <= 0], most significant first.  Working on the negative
   side needs no special case for [min_int]; dividing by the constant 10
   compiles to a multiply. *)
let rec add_digits buf m =
  if m <= -10 then add_digits buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

let prefixed prefix n =
  let b = Buffer.create (String.length prefix + 20) in
  Buffer.add_string b prefix;
  add_int b n;
  Buffer.contents b
