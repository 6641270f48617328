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
  (* growable int column *)
  type ints = { mutable data : int array; mutable len : int }

  let ints () = { data = Array.make 64 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  (* [decl_kind] codes of the two source declarations; a gate stores its
     [Gate_kind.to_code], which is >= 0 *)
  let k_input = -1
  let k_dff = -2

  (* Every net name is interned once, on first sight (driven or
     referenced), into a slot; a declaration is a row of int columns
     over slots.  Declaration [i] becomes net id [i], so [finalize] only
     maps slots to declaration indices: no name is looked up again, and
     [slots], remapped, becomes the circuit's name -> id table. *)
  type t = {
    circuit_name : string;
    slots : (string, int) Hashtbl.t;
    mutable slot_names : string array; (* slot -> name, first [slot_decl.len] live *)
    slot_decl : ints; (* slot -> declaration index, -1 while undriven *)
    decl_slot : ints; (* declaration -> slot of the net it drives *)
    decl_kind : ints; (* [k_input], [k_dff] or a gate kind code *)
    decl_off : ints; (* declaration [i] reads [fanin.(decl_off.(i)) .. decl_off.(i+1) - 1] *)
    fanin : ints; (* operand slots: a flip-flop's D net, a gate's inputs *)
    outs : ints; (* primary output slots, in declaration order *)
    mutable finalized : bool; (* [slots] now maps names to net ids *)
  }

  let create ?(name = "") () =
    let decl_off = ints () in
    push decl_off 0;
    {
      circuit_name = name;
      slots = Hashtbl.create 64;
      slot_names = Array.make 64 "";
      slot_decl = ints ();
      decl_slot = ints ();
      decl_kind = ints ();
      decl_off;
      fanin = ints ();
      outs = ints ();
      finalized = false;
    }

  let intern b name =
    if b.finalized then invalid_arg "Circuit.Builder: builder already finalized";
    match Hashtbl.find b.slots name with
    | s -> s
    | exception Not_found ->
      let s = b.slot_decl.len in
      if s = Array.length b.slot_names then begin
        let names = Array.make (2 * s) "" in
        Array.blit b.slot_names 0 names 0 s;
        b.slot_names <- names
      end;
      b.slot_names.(s) <- name;
      push b.slot_decl (-1);
      Hashtbl.add b.slots name s;
      s

  let declare b name kind =
    let s = intern b name in
    if b.slot_decl.data.(s) >= 0 then invalid Multiple_drivers "net %s has multiple drivers" name;
    b.slot_decl.data.(s) <- b.decl_slot.len;
    push b.decl_slot s;
    push b.decl_kind kind

  let end_declaration b = push b.decl_off b.fanin.len

  let rec add_operands b = function
    | [] -> ()
    | name :: rest ->
      push b.fanin (intern b name);
      add_operands b rest

  let add_input b name =
    declare b name k_input;
    end_declaration b

  let add_dff b ~q ~d =
    declare b q k_dff;
    push b.fanin (intern b d);
    end_declaration b

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
    declare b output (Spsta_logic.Gate_kind.to_code kind);
    add_operands b inputs;
    end_declaration b

  let add_output b name = push b.outs (intern b name)

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
    if b.finalized then invalid_arg "Circuit.Builder: builder already finalized";
    let slot_decl = b.slot_decl.data in
    (* every referenced net, operand or output, must be driven; slots
       are in first-sight order, so the first such net read is named *)
    for s = 0 to b.slot_decl.len - 1 do
      if slot_decl.(s) < 0 then
        invalid Undriven "net %s is referenced but never driven" b.slot_names.(s)
    done;
    let n = b.decl_slot.len in
    let decl_slot = b.decl_slot.data and decl_kind = b.decl_kind.data in
    let off = b.decl_off.data and fanin = b.fanin.data in
    let names = Array.init n (fun i -> b.slot_names.(decl_slot.(i))) in
    let drivers =
      Array.init n (fun i ->
          let k = decl_kind.(i) in
          if k = k_input then Input
          else if k = k_dff then Dff_output { data = slot_decl.(fanin.(off.(i))) }
          else
            Gate
              {
                kind = Spsta_logic.Gate_kind.of_code k;
                inputs = Array.init (off.(i + 1) - off.(i)) (fun j -> slot_decl.(fanin.(off.(i) + j)));
              })
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
    let primary_outputs = List.init b.outs.len (fun j -> slot_decl.(b.outs.data.(j))) in
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
    (* every check has passed: only now does the builder give up its
       table, so a rejected builder can still be completed *)
    Hashtbl.filter_map_inplace (fun _ s -> Some slot_decl.(s)) b.slots;
    b.finalized <- true;
    {
      name = b.circuit_name;
      names;
      ids = b.slots;
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

(* [retype_gate] writes only [drivers] and the cached CSR's [kind_code];
   every other field is immutable after [finalize] and can be shared *)
let copy t = { t with drivers = Array.copy t.drivers; csr = None }

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
