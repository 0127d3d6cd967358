type summary = {
  samples : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

let mean = function
  | [] -> invalid_arg "Metrics.mean: empty"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.
  | xs ->
      let m = mean xs in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs
        /. float_of_int (List.length xs - 1)
      in
      sqrt var

(* Nearest-rank percentile over a sorted array: O(1) per query, so
   [summarize] can sort once and ask for as many quantiles as it likes. *)
let percentile_sorted q sorted =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Metrics.percentile: empty";
  if q < 0. || q > 1. then invalid_arg "Metrics.percentile: q not in [0,1]";
  let rank =
    let r = int_of_float (ceil (q *. float_of_int n)) in
    Stdlib.max 1 (Stdlib.min n r)
  in
  sorted.(rank - 1)

let percentile q xs =
  let sorted = Array.of_list xs in
  Array.sort Float.compare sorted;
  percentile_sorted q sorted

let summarize xs =
  if xs = [] then invalid_arg "Metrics.summarize: empty";
  let sorted = Array.of_list xs in
  Array.sort Float.compare sorted;
  {
    samples = Array.length sorted;
    mean = mean xs;
    stddev = stddev xs;
    min = sorted.(0);
    max = sorted.(Array.length sorted - 1);
    p50 = percentile_sorted 0.5 sorted;
    p95 = percentile_sorted 0.95 sorted;
  }

let linear_fit points =
  if List.length points < 2 then invalid_arg "Metrics.linear_fit: need >= 2";
  let n = float_of_int (List.length points) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. points in
  let denom = (n *. sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-12 then
    invalid_arg "Metrics.linear_fit: degenerate x values";
  let b = ((n *. sxy) -. (sx *. sy)) /. denom in
  let a = (sy -. (b *. sx)) /. n in
  (a, b)
