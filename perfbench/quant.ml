(* Order statistics over float samples.  [percentile] interpolates
   linearly between closest ranks (the "type 7" rule numpy uses), so a
   median of an even count is the mean of the middle pair. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = sorted xs in
    let h = p /. 100.0 *. float_of_int (Array.length a - 1) in
    let lo = int_of_float h in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 50.0 xs

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Samples strictly above the [p]th percentile: the p99 of a run is only
   reported as such when at least ten samples lie beyond it. *)
let beyond p xs =
  let cut = percentile p xs in
  List.length (List.filter (fun x -> x > cut) xs)
