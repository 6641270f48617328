module Gate_kind = Spsta_logic.Gate_kind

let base_kind = function
  | Gate_kind.And | Gate_kind.Nand -> Gate_kind.And
  | Gate_kind.Or | Gate_kind.Nor -> Gate_kind.Or
  | Gate_kind.Xor | Gate_kind.Xnor -> Gate_kind.Xor
  | Gate_kind.Not | Gate_kind.Buf -> Gate_kind.Buf

let decompose_gates circuit =
  let max_fanin = 2 in
  let b = Builder_of_circuit.builder_with_interface circuit in
  let fresh = ref 0 in
  let fresh_name () =
    incr fresh;
    Printf.sprintf "_dec%d" !fresh
  in
  Array.iter
    (fun g ->
      match Circuit.driver circuit g with
      | Circuit.Gate { kind; inputs } ->
        let names = Array.to_list (Array.map (Circuit.net_name circuit) inputs) in
        let out = Circuit.net_name circuit g in
        if List.length names <= max_fanin then Circuit.Builder.add_gate b ~output:out kind names
        else begin
          let base = base_kind kind in
          (* reduce in rounds of [max_fanin]-wide groups until at most
             max_fanin operands remain, then emit the final gate (with
             the original kind, restoring any inversion) at [out] *)
          let rec reduce operands =
            if List.length operands <= max_fanin then operands
            else begin
              let rec group acc current = function
                | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
                | x :: rest ->
                  if List.length current = max_fanin then group (List.rev current :: acc) [ x ] rest
                  else group acc (x :: current) rest
              in
              let groups = group [] [] operands in
              let next =
                List.map
                  (fun members ->
                    match members with
                    | [ single ] -> single
                    | _ ->
                      let name = fresh_name () in
                      Circuit.Builder.add_gate b ~output:name base members;
                      name)
                  groups
              in
              reduce next
            end
          in
          let final_operands = reduce names in
          let final_kind =
            match final_operands with
            | [ _ ] ->
              (* single operand left: finish with NOT/BUF per inversion *)
              if Gate_kind.inverting kind then Gate_kind.Not else Gate_kind.Buf
            | _ -> kind
          in
          Circuit.Builder.add_gate b ~output:out final_kind final_operands
        end
      | Circuit.Input | Circuit.Dff_output _ -> ())
    (Circuit.topo_gates circuit);
  Circuit.Builder.finalize b

let strip_buffers circuit =
  (* resolve each net to its non-buffer driver transitively *)
  let keep = Hashtbl.create 16 in
  List.iter (fun o -> Hashtbl.replace keep o ()) (Circuit.primary_outputs circuit);
  List.iter (fun (_, d) -> Hashtbl.replace keep d ()) (Circuit.dffs circuit);
  let rec resolve id =
    match Circuit.driver circuit id with
    | Circuit.Gate { kind = Gate_kind.Buf; inputs } when not (Hashtbl.mem keep id) ->
      resolve inputs.(0)
    | Circuit.Gate _ | Circuit.Input | Circuit.Dff_output _ -> id
  in
  let name id = Circuit.net_name circuit (resolve id) in
  let b = Builder_of_circuit.builder_with_interface circuit in
  Array.iter
    (fun g ->
      match Circuit.driver circuit g with
      | Circuit.Gate { kind = Gate_kind.Buf; _ } when not (Hashtbl.mem keep g) -> ()
      | Circuit.Gate { kind; inputs } ->
        Circuit.Builder.add_gate b ~output:(Circuit.net_name circuit g) kind
          (Array.to_list (Array.map name inputs))
      | Circuit.Input | Circuit.Dff_output _ -> ())
    (Circuit.topo_gates circuit);
  Circuit.Builder.finalize b

let resize_gate sized circuit (asg : Sized_library.assignment) id ~size =
  (match Circuit.driver circuit id with
  | Circuit.Gate _ -> ()
  | Circuit.Input | Circuit.Dff_output _ ->
    invalid_arg "Transform.resize_gate: net is not gate-driven");
  if size < 0 || size >= Sized_library.num_sizes sized then
    invalid_arg
      (Printf.sprintf "Transform.resize_gate: size %d outside [0, %d)" size
         (Sized_library.num_sizes sized));
  if asg.(id) = size then []
  else begin
    asg.(id) <- size;
    [ id ]
  end

let retype_gate circuit id ~kind =
  match Circuit.driver circuit id with
  | Circuit.Gate { kind = old; _ } ->
    if Gate_kind.equal old kind then []
    else begin
      Circuit.retype_gate circuit id kind;
      [ id ]
    end
  | Circuit.Input | Circuit.Dff_output _ ->
    invalid_arg "Transform.retype_gate: net is not gate-driven"

let statistics circuit =
  let max_fanout =
    let worst = ref 0 in
    for id = 0 to Circuit.num_nets circuit - 1 do
      worst := max !worst (Array.length (Circuit.fanout circuit id))
    done;
    !worst
  in
  [
    ("nets", Circuit.num_nets circuit);
    ("primary_inputs", List.length (Circuit.primary_inputs circuit));
    ("primary_outputs", List.length (Circuit.primary_outputs circuit));
    ("flip_flops", List.length (Circuit.dffs circuit));
    ("gates", Circuit.gate_count circuit);
    ("depth", Circuit.depth circuit);
    ("max_fanout", max_fanout);
  ]
  @ List.map
      (fun kind ->
        (String.lowercase_ascii (Gate_kind.to_string kind), Circuit.count_gates_of_kind circuit kind))
      Gate_kind.all
