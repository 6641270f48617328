type id = int

type driver =
  | Input
  | Dff_output of { data : id }
  | Gate of { kind : Spsta_logic.Gate_kind.t; inputs : id array }

type violation = Multiple_drivers | Undriven | Cycle | Arity

exception Invalid_circuit of { violation : violation; message : string }

let invalid violation fmt =
  Printf.ksprintf (fun message -> raise (Invalid_circuit { violation; message })) fmt

(* Flat struct-of-arrays view of the gates for kernels whose inner loop
   must not chase [driver] record pointers: gate [k] (in topological
   order, the [topo] order) drives net [gate_net.(k)], computes kind
   [Spsta_logic.Gate_kind.of_code kind_code.(k)] and reads operand nets
   [fanin.(fanin_off.(k)) .. fanin.(fanin_off.(k+1) - 1)].  [level_off]
   cuts the gate index space into the same groups as [by_level]:
   group [l] is gates [level_off.(l) .. level_off.(l+1) - 1]. *)
type csr = {
  gate_net : id array;
  kind_code : int array;
  fanin_off : int array; (* length num_gates + 1 *)
  fanin : id array;
  level_off : int array; (* length num_groups + 1 *)
  max_fanin : int;
}

type t = {
  name : string;
  names : string array;
  ids : (string, id) Hashtbl.t;
  drivers : driver array;
  primary_inputs : id list;
  primary_outputs : id list;
  dffs : (id * id) list;
  fanouts : id array array;
  topo : id array; (* gate nets only, in evaluation order *)
  topo_pos : int array; (* gate net -> index in [topo]; -1 for sources *)
  levels : int array;
  depth : int;
  by_level : id array array; (* gate nets grouped by level, topo order within *)
  sources : id list; (* primary inputs @ flip-flop Q nets, precomputed *)
  endpoints : id list; (* primary outputs @ flip-flop D nets, deduplicated *)
  mutable csr : csr option; (* built on first demand, kind codes kept
                               in sync by [retype_gate] *)
}

module Builder = struct
  type pending =
    | P_input
    | P_dff of string (* d net name *)
    | P_gate of Spsta_logic.Gate_kind.t * string list

  type t = {
    circuit_name : string;
    mutable order : (string * pending) list; (* declaration order, reversed *)
    table : (string, pending) Hashtbl.t;
    mutable outs : string list; (* reversed *)
    referenced : (string, unit) Hashtbl.t;
  }

  let create ?(name = "") () =
    { circuit_name = name; order = []; table = Hashtbl.create 64; outs = []; referenced = Hashtbl.create 64 }

  (* [order] carries the pending payload so [finalize] never has to look
     a declared net up by name again: at a million gates the repeated
     string-keyed [Hashtbl.find]s were a measurable slice of build time *)
  let declare b name pending =
    if Hashtbl.mem b.table name then invalid Multiple_drivers "net %s has multiple drivers" name;
    Hashtbl.replace b.table name pending;
    b.order <- (name, pending) :: b.order

  let reference b name = Hashtbl.replace b.referenced name ()

  let add_input b name = declare b name P_input

  let add_dff b ~q ~d =
    declare b q (P_dff d);
    reference b d

  let add_gate b ~output kind inputs =
    let n = List.length inputs in
    if n < Spsta_logic.Gate_kind.min_arity kind then
      invalid Arity "gate %s driving %s: fan-in %d below minimum"
        (Spsta_logic.Gate_kind.to_string kind) output n;
    (match Spsta_logic.Gate_kind.max_arity kind with
    | Some m when n > m ->
      invalid Arity "gate %s driving %s: fan-in %d above maximum"
        (Spsta_logic.Gate_kind.to_string kind) output n
    | Some _ | None -> ());
    declare b output (P_gate (kind, inputs));
    List.iter (reference b) inputs

  let add_output b name =
    b.outs <- name :: b.outs;
    reference b name

  (* Kahn topological sort restricted to combinational edges; flip-flops
     break timing loops (Q is a source, D an endpoint).  [names] is only
     consulted on failure, to name the nets stuck on (or fed by) a
     cycle.

     Successor edges live in a flat CSR layout (offsets + one edge
     array): at a million gates the per-edge cons cells were costlier
     than the sort itself.  Each net's successor slice is walked from
     the high end, which replays the exact release order of the old
     prepend-built lists — the resulting topological order, and with it
     [gates_by_level], is unchanged. *)
  let topo_sort ~names drivers =
    let n = Array.length drivers in
    let indegree = Array.make n 0 in
    let succ_off = Array.make (n + 1) 0 in
    Array.iter
      (fun d ->
        match d with
        | Input | Dff_output _ -> ()
        | Gate { inputs; _ } ->
          Array.iter (fun i -> succ_off.(i + 1) <- succ_off.(i + 1) + 1) inputs)
      drivers;
    for i = 0 to n - 1 do
      succ_off.(i + 1) <- succ_off.(i + 1) + succ_off.(i)
    done;
    let succ = Array.make succ_off.(n) 0 in
    let cursor = Array.init n (fun i -> succ_off.(i)) in
    Array.iteri
      (fun out d ->
        match d with
        | Input | Dff_output _ -> ()
        | Gate { inputs; _ } ->
          indegree.(out) <- Array.length inputs;
          Array.iter
            (fun i ->
              succ.(cursor.(i)) <- out;
              cursor.(i) <- cursor.(i) + 1)
            inputs)
      drivers;
    let queue = Queue.create () in
    Array.iteri
      (fun i d ->
        match d with
        | Input | Dff_output _ -> Queue.add i queue
        | Gate _ -> if indegree.(i) = 0 then Queue.add i queue)
      drivers;
    let order = Array.make n 0 in
    let gates = ref 0 in
    let seen = ref 0 in
    while not (Queue.is_empty queue) do
      let i = Queue.pop queue in
      incr seen;
      (match drivers.(i) with
      | Gate _ ->
        order.(!gates) <- i;
        incr gates
      | Input | Dff_output _ -> ());
      for k = succ_off.(i + 1) - 1 downto succ_off.(i) do
        let out = succ.(k) in
        indegree.(out) <- indegree.(out) - 1;
        if indegree.(out) = 0 then Queue.add out queue
      done
    done;
    if !seen <> n then begin
      (* nets with remaining indegree are on a cycle or downstream of
         one; iteratively trimming stuck nets with no stuck successor
         peels off the downstream tails (a DAG) and leaves exactly the
         cycle nets *)
      let stuck = Array.map (fun d -> d > 0) indegree in
      let has_stuck_succ i =
        let rec scan k = k < succ_off.(i + 1) && (stuck.(succ.(k)) || scan (k + 1)) in
        scan succ_off.(i)
      in
      let shrunk = ref true in
      while !shrunk do
        shrunk := false;
        Array.iteri
          (fun i s ->
            if s && not (has_stuck_succ i) then begin
              stuck.(i) <- false;
              shrunk := true
            end)
          stuck
      done;
      let on_cycle =
        Array.to_list (Array.mapi (fun i s -> (i, s)) stuck)
        |> List.filter_map (fun (i, s) -> if s then Some names.(i) else None)
      in
      invalid Cycle "combinational cycle detected among nets: %s" (String.concat ", " on_cycle)
    end;
    Array.sub order 0 !gates

  let finalize b =
    let order = Array.of_list (List.rev b.order) in
    (* every referenced net must be driven *)
    Hashtbl.iter
      (fun name () ->
        if not (Hashtbl.mem b.table name) then
          invalid Undriven "net %s is referenced but never driven" name)
      b.referenced;
    List.iter
      (fun name -> if not (Hashtbl.mem b.table name) then invalid Undriven "output %s is never driven" name)
      (List.rev b.outs);
    let names = Array.map fst order in
    let ids = Hashtbl.create (Array.length names) in
    Array.iteri (fun i name -> Hashtbl.replace ids name i) names;
    let id_of name =
      match Hashtbl.find_opt ids name with
      | Some i -> i
      | None -> invalid Undriven "net %s is referenced but never driven" name
    in
    let drivers =
      Array.map
        (fun (_, pending) ->
          match pending with
          | P_input -> Input
          | P_dff d -> Dff_output { data = id_of d }
          | P_gate (kind, inputs) ->
            Gate { kind; inputs = Array.of_list (List.map id_of inputs) })
        order
    in
    let topo = topo_sort ~names drivers in
    let n = Array.length drivers in
    let topo_pos = Array.make n (-1) in
    Array.iteri (fun i g -> topo_pos.(g) <- i) topo;
    let levels = Array.make n 0 in
    Array.iter
      (fun g ->
        match drivers.(g) with
        | Gate { inputs; _ } ->
          levels.(g) <- 1 + Array.fold_left (fun acc i -> max acc levels.(i)) 0 inputs
        | Input | Dff_output _ -> assert false)
      topo;
    let depth = Array.fold_left max 0 levels in
    (* gates grouped by level: within a level no gate feeds another, so
       the whole group can be evaluated concurrently; keeping topo order
       inside each group preserves the sequential evaluation order.
       Counting passes + exact-size arrays, like the fanout map below:
       the intermediate per-bucket lists were pure allocation churn. *)
    let by_level =
      let counts = Array.make (depth + 1) 0 in
      Array.iter (fun g -> counts.(levels.(g)) <- counts.(levels.(g)) + 1) topo;
      let buckets = Array.map (fun c -> Array.make c 0) counts in
      let cursor = Array.make (depth + 1) 0 in
      Array.iter
        (fun g ->
          let l = levels.(g) in
          buckets.(l).(cursor.(l)) <- g;
          cursor.(l) <- cursor.(l) + 1)
        topo;
      Array.of_list
        (List.filter (fun gates -> Array.length gates > 0) (Array.to_list buckets))
    in
    let fanouts =
      let counts = Array.make n 0 in
      let count i = counts.(i) <- counts.(i) + 1 in
      Array.iter
        (fun d ->
          match d with
          | Input -> ()
          | Dff_output { data } -> count data
          | Gate { inputs; _ } -> Array.iter count inputs)
        drivers;
      let fanouts = Array.map (fun c -> Array.make c 0) counts in
      let cursor = Array.make n 0 in
      Array.iteri
        (fun out d ->
          let push i =
            fanouts.(i).(cursor.(i)) <- out;
            cursor.(i) <- cursor.(i) + 1
          in
          match d with
          | Input -> ()
          | Dff_output { data } -> push data
          | Gate { inputs; _ } -> Array.iter push inputs)
        drivers;
      fanouts
    in
    (* declaration order = id order, so scanning [drivers] backwards with
       prepends rebuilds both lists in their historical order without
       another name lookup per net *)
    let primary_inputs = ref [] in
    let dffs = ref [] in
    for i = n - 1 downto 0 do
      match drivers.(i) with
      | Input -> primary_inputs := i :: !primary_inputs
      | Dff_output { data } -> dffs := (i, data) :: !dffs
      | Gate _ -> ()
    done;
    let primary_inputs = !primary_inputs in
    let dffs = !dffs in
    let primary_outputs = List.map id_of (List.rev b.outs) in
    let sources = primary_inputs @ List.map fst dffs in
    let endpoints =
      let candidates = primary_outputs @ List.map snd dffs in
      let seen = Hashtbl.create 16 in
      List.filter
        (fun i ->
          if Hashtbl.mem seen i then false
          else begin
            Hashtbl.replace seen i ();
            true
          end)
        candidates
    in
    {
      name = b.circuit_name;
      names;
      ids;
      drivers;
      primary_inputs;
      primary_outputs;
      dffs;
      fanouts;
      topo;
      topo_pos;
      levels;
      depth;
      by_level;
      sources;
      endpoints;
      csr = None;
    }
end

let name t = t.name
let num_nets t = Array.length t.names

let net_name t i = t.names.(i)
let find t name = Hashtbl.find_opt t.ids name

let find_exn t name =
  match find t name with
  | Some i -> i
  | None ->
    invalid_arg (Printf.sprintf "Circuit.find_exn: no net %S in circuit %S" name t.name)

let driver t i = t.drivers.(i)

(* In-place driver-kind swap for ECO edits.  Topology, levels, topo
   order and fanout maps all depend only on the input edges, which are
   untouched, so every precomputed structure stays valid. *)
let retype_gate t i kind =
  match t.drivers.(i) with
  | Gate { inputs; _ } ->
    let n = Array.length inputs in
    if n < Spsta_logic.Gate_kind.min_arity kind then
      invalid_arg
        (Printf.sprintf "Circuit.retype_gate: %s needs fan-in >= %d, net %S has %d"
           (Spsta_logic.Gate_kind.to_string kind)
           (Spsta_logic.Gate_kind.min_arity kind)
           t.names.(i) n);
    (match Spsta_logic.Gate_kind.max_arity kind with
    | Some m when n > m ->
      invalid_arg
        (Printf.sprintf "Circuit.retype_gate: %s allows fan-in <= %d, net %S has %d"
           (Spsta_logic.Gate_kind.to_string kind)
           m t.names.(i) n)
    | Some _ | None -> ());
    t.drivers.(i) <- Gate { kind; inputs };
    (* the cached flat view stores the kind as a code; everything else
       in it depends only on the untouched input edges *)
    (match t.csr with
    | Some csr -> csr.kind_code.(t.topo_pos.(i)) <- Spsta_logic.Gate_kind.to_code kind
    | None -> ())
  | Input | Dff_output _ -> invalid_arg "Circuit.retype_gate: net is not gate-driven"

let primary_inputs t = t.primary_inputs
let primary_outputs t = t.primary_outputs
let dffs t = t.dffs

(* both lists are built once in [Builder.finalize]: [sources] is hit on
   every analysis *and* on every incremental update (once per sizer
   trial), so a per-call allocation was measurable *)
let sources t = t.sources
let endpoints t = t.endpoints

let fanout t i = t.fanouts.(i)
let topo_gates t = t.topo

(* Counting pass + exact-size arrays, like the fanout map in [finalize];
   built lazily because only the flat kernels consume it, and cached
   because they consume it on every sweep. *)
let build_csr t =
  let n_gates = Array.length t.topo in
  let gate_net = Array.copy t.topo in
  let kind_code = Array.make n_gates 0 in
  let fanin_off = Array.make (n_gates + 1) 0 in
  let max_fanin = ref 0 in
  Array.iteri
    (fun k g ->
      match t.drivers.(g) with
      | Gate { kind; inputs } ->
        kind_code.(k) <- Spsta_logic.Gate_kind.to_code kind;
        let a = Array.length inputs in
        if a > !max_fanin then max_fanin := a;
        fanin_off.(k + 1) <- fanin_off.(k) + a
      | Input | Dff_output _ -> assert false)
    gate_net;
  let fanin = Array.make fanin_off.(n_gates) 0 in
  Array.iteri
    (fun k g ->
      match t.drivers.(g) with
      | Gate { inputs; _ } -> Array.blit inputs 0 fanin fanin_off.(k) (Array.length inputs)
      | Input | Dff_output _ -> assert false)
    gate_net;
  (* [by_level] concatenated equals [topo], so the groups are contiguous
     gate-index ranges *)
  let level_off = Array.make (Array.length t.by_level + 1) 0 in
  Array.iteri
    (fun l gates -> level_off.(l + 1) <- level_off.(l) + Array.length gates)
    t.by_level;
  { gate_net; kind_code; fanin_off; fanin; level_off; max_fanin = !max_fanin }

let csr t =
  match t.csr with
  | Some c -> c
  | None ->
    let c = build_csr t in
    t.csr <- Some c;
    c
let topo_position t i = t.topo_pos.(i)
let gates_by_level t = t.by_level
let level t i = t.levels.(i)
let depth t = t.depth

let gate_count t =
  Array.fold_left
    (fun acc d -> match d with Gate _ -> acc + 1 | Input | Dff_output _ -> acc)
    0 t.drivers

let count_gates_of_kind t kind =
  Array.fold_left
    (fun acc d ->
      match d with
      | Gate { kind = k; _ } when Spsta_logic.Gate_kind.equal k kind -> acc + 1
      | Gate _ | Input | Dff_output _ -> acc)
    0 t.drivers

let pp_summary fmt t =
  Format.fprintf fmt "%s: %d PI, %d PO, %d DFF, %d gates, depth %d"
    (if t.name = "" then "<unnamed>" else t.name)
    (List.length t.primary_inputs) (List.length t.primary_outputs) (List.length t.dffs)
    (gate_count t) t.depth
