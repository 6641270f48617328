(* In-memory span recorder for the traced runs.

   Spans are recorded around the benchmark's own calls into each layer,
   never inside the library.  Each span has a name, a start and an end,
   its parent (the span open when it began) and a request id, inherited
   from the parent unless given.  When the recorder is disabled [span]
   is a plain call, so one loop can alternate traced and untraced
   operations and the two halves measure the tracing overhead.  Spans
   are kept in memory and written once, at exit, as Chrome trace-event
   JSON that Perfetto and chrome://tracing open. *)

type span = {
  id : int;
  name : string;
  rid : int;
  parent : int;
  start : float;
  mutable stop : float;
}

type t = {
  mutable enabled : bool;
  mutable spans : span list; (* newest first *)
  mutable stack : span list; (* open spans, innermost first *)
  mutable next_id : int;
  origin : float;
}

let create () =
  { enabled = false; spans = []; stack = []; next_id = 0; origin = Unix.gettimeofday () }

let set_enabled t on = t.enabled <- on

let enter ?rid t name =
  let parent, inherited =
    match t.stack with [] -> (-1, -1) | p :: _ -> (p.id, p.rid)
  in
  let s =
    { id = t.next_id; name; rid = Option.value rid ~default:inherited; parent;
      start = Unix.gettimeofday (); stop = nan }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- s :: t.stack;
  s

let leave ?rename t s =
  s.stop <- Unix.gettimeofday ();
  t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
  let s = match rename with None -> s | Some name -> { s with name } in
  t.spans <- s :: t.spans

let span ?rid t name f =
  if not t.enabled then f ()
  else begin
    let s = enter ?rid t name in
    match f () with
    | v ->
      leave t s;
      v
    | exception e ->
      leave t s;
      raise e
  end

(* [span] named by its result, e.g. by whether the call it wraps turned
   out to be a memo hit. *)
let span_named ?rid t name_of f =
  if not t.enabled then f ()
  else begin
    let s = enter ?rid t "" in
    match f () with
    | v ->
      leave ~rename:(name_of v) t s;
      v
    | exception e ->
      leave ~rename:"error" t s;
      raise e
  end

let spans t = List.rev t.spans
let duration s = s.stop -. s.start

(* Self time: a span's duration minus the time its direct children
   cover.  Children of one parent never overlap, the benchmark being
   single-threaded, so the sum of their durations is that cover. *)
let self_times t =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.0))
    t.spans;
  List.map
    (fun s -> (s, duration s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.0))
    (spans t)

type layer = { layer : string; calls : int; total_s : float; self_s : float }

(* Per-name totals, in order of first appearance. *)
let layers t =
  let order = ref [] and tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some l ->
        Hashtbl.replace tbl s.name
          { l with calls = l.calls + 1; total_s = l.total_s +. duration s;
                   self_s = l.self_s +. self }
      | None ->
        order := s.name :: !order;
        Hashtbl.replace tbl s.name
          { layer = s.name; calls = 1; total_s = duration s; self_s = self })
    (self_times t);
  List.rev_map (Hashtbl.find tbl) !order

let durations t name =
  List.filter_map (fun s -> if s.name = name then Some (duration s) else None) (spans t)

let pp_layers oc t =
  Printf.fprintf oc "%-28s %8s %12s %12s\n" "layer" "calls" "total_s" "self_s";
  List.iter
    (fun l -> Printf.fprintf oc "%-28s %8d %12.6f %12.6f\n" l.layer l.calls l.total_s l.self_s)
    (layers t)

let write_chrome t path =
  let oc = open_out_bin path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"name\":%S,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"rid\":%d}}"
        s.name
        ((s.start -. t.origin) *. 1e6)
        (duration s *. 1e6)
        s.id s.parent s.rid)
    (spans t);
  output_string oc "\n]}\n";
  close_out oc
