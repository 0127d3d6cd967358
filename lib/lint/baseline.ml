(* Grandfathered findings, checked in as `lint.baseline` at the repo
   root.  One entry per line:

     RULE<TAB>FILE<TAB>CONTEXT<TAB>REASON

   Entries key on (rule, file, context) rather than line numbers so
   they survive unrelated edits to the file; an entry absorbs every
   matching finding in that file.  `#` lines and blank lines are
   comments.  The file is deliberately boring: append-only in spirit,
   and the linter reports entries that no longer match anything so dead
   weight gets deleted. *)

type entry = {
  rule : Rules.id;
  file : string;
  context : string;
  reason : string;
}

type t = entry list

let empty = []

let parse_line ~lineno line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else
    match String.split_on_char '\t' line with
    | rule :: file :: context :: rest -> (
        match Rules.id_of_string rule with
        | Some rule ->
            Ok
              (Some
                 {
                   rule;
                   file;
                   context;
                   reason = String.concat "\t" rest;
                 })
        | None -> Error (Printf.sprintf "line %d: unknown rule %S" lineno rule)
        )
    | _ ->
        Error
          (Printf.sprintf
             "line %d: want RULE<TAB>FILE<TAB>CONTEXT<TAB>REASON, got %S"
             lineno line)

let of_string s =
  let lineno = ref 0 in
  let entries = ref [] and errors = ref [] in
  String.split_on_char '\n' s
  |> List.iter (fun line ->
         incr lineno;
         match parse_line ~lineno:!lineno line with
         | Ok (Some e) -> entries := e :: !entries
         | Ok None -> ()
         | Error msg -> errors := msg :: !errors);
  match List.rev !errors with
  | [] -> Ok (List.rev !entries)
  | e :: _ -> Error e

let entry_to_string e =
  Printf.sprintf "%s\t%s\t%s\t%s"
    (Rules.id_to_string e.rule)
    e.file e.context e.reason

let to_string t = String.concat "\n" (List.map entry_to_string t) ^ "\n"

let load path =
  if not (Sys.file_exists path) then Ok empty
  else of_string (In_channel.with_open_bin path In_channel.input_all)

let matches e (f : Rules.finding) =
  e.rule = f.rule && String.equal e.file f.file
  && String.equal e.context f.context

let covers t f = List.exists (fun e -> matches e f) t

let unused t findings =
  List.filter (fun e -> not (List.exists (fun f -> matches e f) findings)) t

let compare_entries a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c =
      String.compare (Rules.id_to_string a.rule) (Rules.id_to_string b.rule)
    in
    if c <> 0 then c else String.compare a.context b.context

let of_findings ?(reason = "grandfathered") findings =
  List.map
    (fun (f : Rules.finding) ->
      { rule = f.rule; file = f.file; context = f.context; reason })
    findings
  |> List.sort_uniq compare_entries

(* --update-baseline: keep entries that still match a finding (their
   hand-written reasons survive), grandfather findings no entry covers,
   and prune the rest.  Returns (new baseline, pruned entries). *)
let update t findings =
  let kept, pruned =
    List.partition (fun e -> List.exists (matches e) findings) t
  in
  let uncovered =
    List.filter (fun f -> not (List.exists (fun e -> matches e f) kept))
      findings
  in
  let merged = List.sort_uniq compare_entries (kept @ of_findings uncovered) in
  (merged, pruned)
