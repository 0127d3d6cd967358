type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Constructors / accessors                                            *)
(* ------------------------------------------------------------------ *)

let int i = Num (string_of_int i)

let int64 i = Num (Int64.to_string i)

(* The runtime's C formatter, which [Printf]'s ["%.17g"] ends in for a
   finite float; calling it directly skips interpreting the format on
   every number a trace export writes. *)
external format_float : string -> float -> string = "caml_format_float"

(* "%.17g" round-trips every finite float through float_of_string. *)
let float f = if Float.is_finite f then Num (format_float "%.17g" f) else Null

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Num _ -> "number"
  | Str _ -> "string"
  | Arr _ -> "array"
  | Obj _ -> "object"

let expected what j =
  Error (Printf.sprintf "expected %s, got %s" what (type_name j))

let to_int = function
  | Num s as j -> (
      match int_of_string_opt s with
      | Some i -> Ok i
      | None -> expected "integer" j)
  | j -> expected "integer" j

let to_int64 = function
  | Num s as j -> (
      match Int64.of_string_opt s with
      | Some i -> Ok i
      | None -> expected "int64" j)
  | j -> expected "int64" j

let to_float = function
  | Num s as j -> (
      match float_of_string_opt s with
      | Some f -> Ok f
      | None -> expected "number" j)
  | j -> expected "number" j

let to_string = function Str s -> Ok s | j -> expected "string" j

let to_list = function Arr l -> Ok l | j -> expected "array" j

let member k = function
  | Obj fields -> (
      match List.assoc_opt k fields with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" k))
  | j -> expected (Printf.sprintf "object with field %S" k) j

let member_opt k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_string buf s =
  Buffer.add_char buf '"';
  (* Most strings (every key, most values) need no escaping: copy them
     whole after one scan. *)
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

let add_key buf k =
  add_string buf k;
  Buffer.add_char buf ':'

let add_int = Numfmt.add_int

let add_float buf f =
  if Float.is_finite f then Buffer.add_string buf (format_float "%.17g" f)
  else Buffer.add_string buf "null"

(* [indent = None] prints compact; [Some base] pretty-prints with
   two-space steps starting at [base]. *)
let rec add_indented buf ~indent j =
  let pad n = String.make (2 * n) ' ' in
  let sequence ~open_c ~close_c items add_item =
    Buffer.add_char buf open_c;
    (match (items, indent) with
    | [], _ -> ()
    | _, None ->
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            add_item ~indent:None x)
          items
    | _, Some base ->
        List.iteri
          (fun i x ->
            Buffer.add_string buf (if i > 0 then ",\n" else "\n");
            Buffer.add_string buf (pad (base + 1));
            add_item ~indent:(Some (base + 1)) x)
          items;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (pad base));
    Buffer.add_char buf close_c
  in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num s -> Buffer.add_string buf s
  | Str s -> add_string buf s
  | Arr items ->
      sequence ~open_c:'[' ~close_c:']' items (fun ~indent x ->
          add_indented buf ~indent x)
  | Obj fields ->
      sequence ~open_c:'{' ~close_c:'}' fields (fun ~indent (k, v) ->
          add_string buf k;
          Buffer.add_string buf
            (match indent with None -> ":" | Some _ -> ": ");
          add_indented buf ~indent v)

let add buf j = add_indented buf ~indent:None j

let print j =
  let buf = Buffer.create 256 in
  add buf j;
  Buffer.contents buf

let print_pretty j =
  let buf = Buffer.create 256 in
  add_indented buf ~indent:(Some 0) j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
  let expect c =
    match peek () with
    | Some c' when Char.equal c' c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let skip_ws () =
    while
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> true
      | _ -> false
    do
      advance ()
    done
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.equal (String.sub s !pos l) word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance ()
          | Some '/' -> Buffer.add_char buf '/'; advance ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance ()
          | Some 't' -> Buffer.add_char buf '\t'; advance ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                match int_of_string_opt ("0x" ^ hex) with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              (* we only emit \u00xx for control characters; decode the
                 low byte and pass anything else through as '?' *)
              if code < 0x100 then Buffer.add_char buf (Char.chr code)
              else Buffer.add_char buf '?'
          | _ -> fail "bad escape");
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    while
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true
      | _ -> false
    do
      advance ()
    done;
    let lexeme = String.sub s start (!pos - start) in
    match float_of_string_opt lexeme with
    | Some _ -> Num lexeme
    | None -> fail (Printf.sprintf "bad number %S" lexeme)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        let fields =
          match peek () with
          | Some '}' ->
              advance ();
              []
          | _ ->
              let rec members acc =
                skip_ws ();
                let k = parse_string () in
                skip_ws ();
                expect ':';
                let v = parse_value () in
                skip_ws ();
                match peek () with
                | Some ',' ->
                    advance ();
                    members ((k, v) :: acc)
                | Some '}' ->
                    advance ();
                    List.rev ((k, v) :: acc)
                | _ -> fail "expected ',' or '}'"
              in
              members []
        in
        Obj fields
    | Some '[' ->
        advance ();
        skip_ws ();
        (match peek () with
        | Some ']' ->
            advance ();
            Arr []
        | _ ->
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            items [])
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos < n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse msg -> Error msg
