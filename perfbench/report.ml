(* Collects one run's metrics and failures and prints the result line:
   the last line of standard output, one JSON object with [correct],
   [attempted], [failed] and [metrics].  Everything else the benchmark
   says goes to standard error. *)

type t = {
  mutable values : (string * float) list; (* newest first *)
  mutable attempted : int;
  mutable failed : int;
}

let create () = { values = []; attempted = 0; failed = 0 }
let log fmt = Printf.eprintf (fmt ^^ "\n%!")
let set r name v = r.values <- (name, v) :: List.remove_assoc name r.values

(* A per-layer median: a layer with no samples in this run stays unset. *)
let set_median ?(scale = 1.0) r name = function
  | [] -> ()
  | xs -> set r name (scale *. Quant.median xs)
let get r name = List.assoc_opt name r.values
let attempt ?(n = 1) r = r.attempted <- r.attempted + n

let fail r fmt =
  Printf.ksprintf
    (fun msg ->
      r.failed <- r.failed + 1;
      log "FAILED: %s" msg)
    fmt

(* Checks one op's output: [ok = false] counts a failure. *)
let check r ok fmt = Printf.ksprintf (fun msg -> if not ok then fail r "%s" msg) fmt

let metrics_of ~trace =
  if trace then Catalog.per_layer else Catalog.end_to_end

(* Every metric of the mode must be present and finite.  Per-layer
   metrics of layers the workload never enters read 0; end-to-end
   metrics have no such default. *)
let finish r ~trace =
  List.filter_map
    (fun (m : Catalog.metric) ->
      match get r m.name with
      | Some v when Float.is_finite v -> Some (m, v)
      | Some _ ->
        fail r "metric %s is not finite" m.name;
        Some (m, 0.0)
      | None when trace -> Some (m, 0.0)
      | None ->
        fail r "metric %s was not measured" m.name;
        None)
    (metrics_of ~trace)

let json_line r ~trace =
  let metrics = finish r ~trace in
  let body =
    String.concat ", "
      (List.map
         (fun ((m : Catalog.metric), v) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name v m.unit)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) (max 1 r.attempted) r.failed body

let print r ~trace =
  let line = json_line r ~trace in
  print_string line;
  print_newline ()
