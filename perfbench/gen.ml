(* Seeded .bench writer for the benchmark's own designs.

   A design is a banded grid: [depth] levels of [width] gates over
   [width] timing sources (one primary input in four, the rest flip-flop
   outputs).  Gate (l, x) always reads net (l-1, x), its "spine" input,
   so every gate reaches a last-level gate, and every last-level gate is
   an endpoint (a primary output, or the data pin of the flip-flop
   launching column x).  Hence no gate is dead.  Its other inputs come
   from up to three levels back within [reach] columns, wrapping around,
   which gives reconvergent fanout everywhere and fanout cones that grow
   by about [reach] columns per level: a mutation near the inputs dirties
   a few thousand gates, one near the outputs a handful.  Fan-in is never
   duplicated, because a literal [a XOR a] is the one way a constant (and
   with it a masked, unobservable cone) can appear without constant
   sources.

   The writer uses only [Random.State] seeded from its arguments, so a
   seed gives byte-identical text.  It does not use the library's
   [Generator], whose fan-in draw leaves most gates unobservable. *)

module Gate_kind = Spsta_logic.Gate_kind

type shape = { name : string; width : int; depth : int; reach : int }

let kinds =
  Gate_kind.
    [| (Nand, 0.24); (Nor, 0.14); (And, 0.16); (Or, 0.14); (Not, 0.16); (Buf, 0.03);
       (Xor, 0.08); (Xnor, 0.05) |]

let pick_kind st =
  let u = Random.State.float st 1.0 in
  let rec go i acc =
    let k, w = kinds.(i) in
    if i = Array.length kinds - 1 || u < acc +. w then k else go (i + 1) (acc +. w)
  in
  go 0 0.0

let arity st = function
  | Gate_kind.Not | Gate_kind.Buf -> 1
  | _ ->
    let u = Random.State.float st 1.0 in
    if u < 0.70 then 2 else if u < 0.92 then 3 else 4

let is_input x = x mod 4 = 0

(* Side inputs only read "hub" nets, one column in [hub_stride] per
   level, so fanout is skewed as in real netlists: most nets drive only
   their spine successor and the hubs fan out widely.  [c] snaps down to
   the hub at or left of it. *)
let hub_stride = 3
let hub ~level c = c - ((c + level) mod hub_stride)

let net_name ~level x =
  if level > 0 then Printf.sprintf "g%d_%d" level x
  else if is_input x then Printf.sprintf "i%d" x
  else Printf.sprintf "q%d" x

let text ~seed shape =
  let { name; width; depth; reach } = shape in
  if width < 4 || depth < 1 || reach < 1 then invalid_arg "Gen.text: degenerate shape";
  let st = Random.State.make [| seed; Hashtbl.hash name; width; depth; reach |] in
  let buf = Buffer.create (width * depth * 24) in
  Printf.bprintf buf "# %s: %d x %d banded grid, seed %d\n" name width depth seed;
  for x = 0 to width - 1 do
    if is_input x then Printf.bprintf buf "INPUT(%s)\n" (net_name ~level:0 x)
  done;
  for x = 0 to width - 1 do
    if is_input x then Printf.bprintf buf "OUTPUT(%s)\n" (net_name ~level:depth x)
  done;
  for x = 0 to width - 1 do
    if not (is_input x) then
      Printf.bprintf buf "%s = DFF(%s)\n" (net_name ~level:0 x) (net_name ~level:depth x)
  done;
  let fanin = Array.make 4 (0, 0) in
  for level = 1 to depth do
    for x = 0 to width - 1 do
      let kind = pick_kind st in
      let n = arity st kind in
      let spine = Random.State.int st n in
      for i = 0 to n - 1 do
        fanin.(i) <- (if i = spine then (level - 1, x) else (-1, -1))
      done;
      let taken k = List.exists (fun i -> fanin.(i) = k) (List.init n Fun.id) in
      let rec next_free (l, c) = if taken (l, c) then next_free (l, (c + 1) mod width) else (l, c) in
      for i = 0 to n - 1 do
        if i <> spine then begin
          let rec draw tries =
            let back = match Random.State.int st 10 with 0 -> 2 | 1 | 2 -> 1 | _ -> 0 in
            let l = max 0 (level - 1 - back) in
            let d = Random.State.int st (2 * reach + 1) - reach in
            let c = (x + d + width) mod width in
            let k = (l, (hub ~level:l c + width) mod width) in
            if not (taken k) then k else if tries > 0 then draw (tries - 1) else next_free k
          in
          fanin.(i) <- draw 16
        end
      done;
      let args =
        String.concat ", "
          (List.init n (fun i ->
               let l, c = fanin.(i) in
               net_name ~level:l c))
      in
      Printf.bprintf buf "%s = %s(%s)\n" (net_name ~level x) (Gate_kind.to_string kind) args
    done
  done;
  Buffer.contents buf

(* ---------- design facts ---------- *)

type info = {
  gates : int;
  depth : int;
  max_level_width : int;
  reconvergent_regions : int;
  unobservable_gates : int;
}

let info_of_circuit circuit =
  let module Static = Spsta_analysis.Static in
  let facts = Static.fact_counts (Static.run circuit) in
  let fact k = Option.value (List.assoc_opt k facts) ~default:0 in
  { gates = Spsta_netlist.Circuit.gate_count circuit;
    depth = Spsta_netlist.Circuit.depth circuit;
    max_level_width =
      Array.fold_left
        (fun m lvl -> max m (Array.length lvl))
        0 (Spsta_netlist.Circuit.gates_by_level circuit);
    reconvergent_regions = fact "reconvergent_regions";
    unobservable_gates = fact "unobservable_gates" }

let info_to_string i =
  Printf.sprintf "gates=%d depth=%d max_level_width=%d reconvergent_regions=%d unobservable=%d"
    i.gates i.depth i.max_level_width i.reconvergent_regions i.unobservable_gates

(* A written design: its .bench path and text, parsed facts, and for
   the session workload's mutations its gate nets with their fan-in
   counts and its timing sources. *)
type design = {
  path : string;
  bench : string;
  info : info;
  gates : (string * int) array;
  sources : string array;
}

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* Writes the design and checks the property every workload relies on:
   no gate is dead, so no timed work is spent on logic no endpoint sees. *)
let make ~dir ~seed shape =
  let bench = text ~seed shape in
  let path = Filename.concat dir (Printf.sprintf "%s-%d.bench" shape.name seed) in
  write_file path bench;
  let circuit = Spsta_netlist.Bench_io.parse_string ~name:shape.name bench in
  let info = info_of_circuit circuit in
  if info.unobservable_gates <> 0 then
    failwith
      (Printf.sprintf "design %s has %d unobservable gates" shape.name info.unobservable_gates);
  let module Circuit = Spsta_netlist.Circuit in
  let gates =
    Array.map
      (fun g ->
        match Circuit.driver circuit g with
        | Circuit.Gate { inputs; _ } -> (Circuit.net_name circuit g, Array.length inputs)
        | Circuit.Input | Circuit.Dff_output _ -> assert false)
      (Circuit.topo_gates circuit)
  in
  let sources = Array.of_list (List.map (Circuit.net_name circuit) (Circuit.sources circuit)) in
  { path; bench; info; gates; sources }
