module Gate_kind = Spsta_logic.Gate_kind

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
