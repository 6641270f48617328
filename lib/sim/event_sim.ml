module Circuit = Spsta_netlist.Circuit
module Value4 = Spsta_logic.Value4
module Gate_kind = Spsta_logic.Gate_kind
module Heap = Spsta_util.Heap
module Cell_library = Spsta_netlist.Cell_library

type waveform = { initial : bool; changes : (float * bool) list }

let final w = match List.rev w.changes with (_, v) :: _ -> v | [] -> w.initial
let transition_count w = List.length w.changes
let settle_time w = match List.rev w.changes with (t, _) :: _ -> t | [] -> 0.0

type event = {
  time : float;
  seq : int;
  net : Circuit.id;
  value : bool;
  mutable cancelled : bool;
}

type result = { circuit : Circuit.t; waveforms : waveform array }

let run ?(inertial = 0.0) circuit ~source_values =
  let n = Circuit.num_nets circuit in
  let values = Array.make n false in
  let changes = Array.make n [] in
  (* initial levels: sources from their four-value symbol, gates by a
     topological Boolean evaluation *)
  let source_info = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let v, t = source_values s in
      Hashtbl.replace source_info s (v, t);
      values.(s) <- Value4.initial v)
    (Circuit.sources circuit);
  Array.iter
    (fun g ->
      match Circuit.driver circuit g with
      | Circuit.Gate { kind; inputs } ->
        values.(g) <-
          Gate_kind.eval_bool kind (Array.to_list (Array.map (fun i -> values.(i)) inputs))
      | Circuit.Input | Circuit.Dff_output _ -> assert false)
    (Circuit.topo_gates circuit);
  let initials = Array.copy values in
  (* event queue ordered by (time, seq) for determinism *)
  let queue =
    Heap.create ~cmp:(fun a b ->
        match Float.compare a.time b.time with 0 -> Int.compare a.seq b.seq | c -> c)
  in
  let seq = ref 0 in
  let pending = Array.make n None in
  let schedule net time value =
    (* inertial filtering: a change scheduled within the window of the
       previous pending change for the same net swallows it (the pulse
       would be too short to propagate).  With the default window of 0
       this still cancels same-instant reschedules, so simultaneous
       opposing input events produce no zero-width pulse *)
    ( match pending.(net) with
    | Some prev when (not prev.cancelled) && time -. prev.time <= inertial ->
      prev.cancelled <- true
    | Some _ | None -> () );
    incr seq;
    let ev = { time; seq = !seq; net; value; cancelled = false } in
    pending.(net) <- Some ev;
    Heap.push queue ev
  in
  (* source transitions *)
  Hashtbl.iter
    (fun s (v, t) ->
      if Value4.is_transition v then schedule s t (Value4.final v))
    source_info;
  let propagate time net =
    Array.iter
      (fun out ->
        match Circuit.driver circuit out with
        | Circuit.Gate { kind; inputs } ->
          let o =
            Gate_kind.eval_bool kind (Array.to_list (Array.map (fun i -> values.(i)) inputs))
          in
          schedule out (time +. Cell_library.unit_gate_delay) o
        | Circuit.Dff_output _ -> () (* captured at the next clock edge *)
        | Circuit.Input -> assert false)
      (Circuit.fanout circuit net)
  in
  let rec drain () =
    match Heap.pop queue with
    | None -> ()
    | Some ev ->
      if not ev.cancelled then begin
        ( match pending.(ev.net) with
        | Some p when p == ev -> pending.(ev.net) <- None
        | Some _ | None -> () );
        if values.(ev.net) <> ev.value then begin
          values.(ev.net) <- ev.value;
          changes.(ev.net) <- (ev.time, ev.value) :: changes.(ev.net);
          propagate ev.time ev.net
        end
      end;
      drain ()
  in
  drain ();
  let waveforms =
    Array.init n (fun i -> { initial = initials.(i); changes = List.rev changes.(i) })
  in
  { circuit; waveforms }

let waveform r id = r.waveforms.(id)

let total_transitions r =
  Array.fold_left (fun acc w -> acc + transition_count w) 0 r.waveforms

let glitch_count r id =
  let w = r.waveforms.(id) in
  let needed = if final w <> w.initial then 1 else 0 in
  transition_count w - needed
