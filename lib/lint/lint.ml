module Circuit = Spsta_netlist.Circuit
module Cell_library = Spsta_netlist.Cell_library
module Sized_library = Spsta_netlist.Sized_library
module Bench_io = Spsta_netlist.Bench_io
module Verilog_io = Spsta_netlist.Verilog_io
module Gate_kind = Spsta_logic.Gate_kind
module Input_spec = Spsta_sim.Input_spec

type severity = Error | Warning | Info

type finding = {
  rule : string;
  severity : severity;
  nets : string list;
  message : string;
}

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

(* Beyond this fan-in the exact four-value enumeration (4^n branch
   combinations per gate) is folded pairwise, trading exactness of the
   correlation treatment for tractability. *)
let enumeration_threshold = 6

(* Worst-case accumulated truncation mass (2 * eps per gate, both tails)
   above which the grid backend's tracked error bound stops being
   meaningfully small. *)
let grid_error_budget = 1e-3

let rules =
  [
    ("io-error", Error, "netlist file could not be read");
    ("parse-error", Error, "netlist file could not be parsed");
    ("undriven-net", Error, "a net is referenced but never driven");
    ("multiply-driven-net", Error, "a net has more than one driver");
    ("combinational-cycle", Error, "gates form a combinational loop (nets named)");
    ("invalid-circuit", Error, "the netlist was rejected for another structural reason");
    ("no-sources", Error, "the circuit has no primary inputs or flip-flop outputs");
    ("no-endpoints", Error, "the circuit has no primary outputs or flip-flop data pins");
    ("arity-mismatch", Error, "a gate's fan-in violates its kind's arity bounds");
    ("dff-self-loop", Warning, "a flip-flop's D input is its own Q output");
    ("duplicate-fanin", Warning, "a gate lists the same input net twice");
    ("dangling-net", Warning, "a driven net has no fanout and is not an endpoint");
    ("dead-logic", Warning, "no timing endpoint is reachable from a gate");
    ("unused-input", Info, "a timing source drives nothing");
    ("high-fanin", Info, "fan-in exceeds the exact four-value enumeration threshold");
    ("lib-invalid-delay", Error, "a cell delay used by the circuit is negative or non-finite");
    ("lib-zero-delay", Warning, "a cell delay used by the circuit is zero");
    ("spec-probability", Error, "source four-value probabilities are invalid or do not sum to 1");
    ("spec-arrival", Error, "a source arrival distribution has a non-finite mean or invalid sigma");
    ("grid-dt", Error, "the grid step is non-positive or non-finite");
    ("grid-eps", Error, "the truncation threshold is negative, non-finite, or >= 1");
    ("grid-error-bound", Warning, "the worst-case accumulated truncation bound is too large");
    ("grid-dt-coarse", Warning, "the grid step exceeds a source arrival sigma");
    ( "size-group",
      Error,
      "a size group used by the circuit breaks the drive-strength laws: delay must be \
       finite and non-increasing, area/capacitance non-decreasing" );
    ("constant-logic", Warning, "a gate output is statically tied to 0 or 1");
    ( "unobservable-logic",
      Warning,
      "constant downstream logic masks a gate from every endpoint (structurally alive, \
       yet unobservable)" );
    ( "reconvergent-fanout",
      Info,
      "fanout paths remerge, so independent signal-probability propagation (eq. 5) is \
       unsound on the merge cone" );
  ]

let severity_of_rule rule =
  match List.find_opt (fun (r, _, _) -> String.equal r rule) rules with
  | Some (_, severity, _) -> severity
  | None -> Error

let finding rule ?(nets = []) fmt =
  Printf.ksprintf
    (fun message -> { rule; severity = severity_of_rule rule; nets; message })
    fmt

(* ---------- structure ---------- *)

(* [reachable]: some endpoint structurally depends on the net — the
   dead-logic rule *)
let structure_findings ~reachable circuit =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let name id = Circuit.net_name circuit id in
  let n = Circuit.num_nets circuit in
  if n > 0 && Circuit.sources circuit = [] then
    add (finding "no-sources" "circuit %S has no timing sources" (Circuit.name circuit));
  if n > 0 && Circuit.endpoints circuit = [] then
    add
      (finding "no-endpoints"
         "circuit %S has no timing endpoints: no output or flip-flop observes the logic"
         (Circuit.name circuit));
  let endpoint = Array.make (max n 1) false in
  List.iter (fun id -> endpoint.(id) <- true) (Circuit.endpoints circuit);
  for id = 0 to n - 1 do
    let fanout_empty = Array.length (Circuit.fanout circuit id) = 0 in
    (match Circuit.driver circuit id with
    | Circuit.Input ->
      if fanout_empty && not endpoint.(id) then
        add
          (finding "unused-input" ~nets:[ name id ]
             "primary input %s drives nothing; its input statistics are ignored" (name id))
    | Circuit.Dff_output { data } ->
      if data = id then
        add
          (finding "dff-self-loop" ~nets:[ name id ]
             "flip-flop %s feeds itself directly (D = Q); its launch and capture \
              statistics collapse to one net"
             (name id));
      if fanout_empty then
        add
          (finding "unused-input" ~nets:[ name id ]
             "flip-flop output %s drives nothing; the register's launch statistics are \
              ignored"
             (name id))
    | Circuit.Gate { kind; inputs } ->
      let fanin = Array.length inputs in
      if fanin > enumeration_threshold then
        add
          (finding "high-fanin" ~nets:[ name id ]
             "gate %s: %s fan-in %d exceeds the exact-enumeration threshold %d; the \
              analyzer folds it pairwise"
             (name id) (Gate_kind.to_string kind) fanin enumeration_threshold);
      let seen = Hashtbl.create 8 in
      Array.iter
        (fun input ->
          if Hashtbl.mem seen input then begin
            if not (Hashtbl.find seen input) then begin
              Hashtbl.replace seen input true;
              add
                (finding "duplicate-fanin"
                  ~nets:[ name id; name input ]
                  "gate %s lists input %s more than once; the analyses treat the \
                   duplicates as independent signals"
                  (name id) (name input))
            end
          end
          else Hashtbl.add seen input false)
        inputs;
      if fanout_empty && not endpoint.(id) then
        add
          (finding "dangling-net" ~nets:[ name id ]
             "gate output %s drives nothing and is not an endpoint" (name id))
      else if not (reachable id) then
        add
          (finding "dead-logic" ~nets:[ name id ]
             "no timing endpoint is reachable from gate %s; it cannot affect any \
              reported arrival"
             (name id)))
  done;
  List.rev !findings

let check_structure circuit =
  structure_findings
    ~reachable:Spsta_analysis.Observability.(reachable (run circuit))
    circuit

(* ---------- cell library ---------- *)

(* The (kind, fan-in) pairs the circuit actually instantiates, in first
   appearance order — the cells whose models the analyses will read. *)
let instantiated_pairs circuit =
  let seen = Hashtbl.create 16 in
  let pairs = ref [] in
  for id = 0 to Circuit.num_nets circuit - 1 do
    match Circuit.driver circuit id with
    | Circuit.Gate { kind; inputs } ->
      let key = (kind, Array.length inputs) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        pairs := key :: !pairs
      end
    | Circuit.Input | Circuit.Dff_output _ -> ()
  done;
  List.rev !pairs

let check_library library circuit =
  let ordered = instantiated_pairs circuit in
  List.concat_map
    (fun (kind, fanin) ->
      let describe dir delay =
        let label =
          Printf.sprintf "%s %s delay (fan-in %d)" (Gate_kind.to_string kind) dir fanin
        in
        if not (Spsta_engine.Invariant.finite delay) || delay < 0.0 then
          [ finding "lib-invalid-delay" "%s is %h" label delay ]
        else if delay = 0.0 then
          [
            finding "lib-zero-delay"
              "%s is zero; zero-delay gates make distinct arrival orders \
               indistinguishable"
              label;
          ]
        else []
      in
      let rise, fall = Cell_library.rise_fall_of library kind ~fanin in
      describe "rise" rise @ describe "fall" fall)
    ordered

(* ---------- size groups ---------- *)

let check_sized_library sized circuit =
  let n = Sized_library.num_sizes sized in
  let series ~what ~law values =
    (* [law] is the direction the drive-strength ladder must respect:
       `Down for delays, `Up for area and capacitance. *)
    let bad = ref [] in
    Array.iteri
      (fun k v ->
        if not (Spsta_engine.Invariant.finite v) || v < 0.0 then
          bad := finding "size-group" "%s at size %d is %h" what k v :: !bad)
      values;
    for k = 1 to n - 1 do
      let prev = values.(k - 1) and cur = values.(k) in
      if Spsta_engine.Invariant.finite prev && Spsta_engine.Invariant.finite cur then begin
        let broken, direction =
          match law with
          | `Down -> (cur > prev, "increases")
          | `Up -> (cur < prev, "decreases")
        in
        if broken then
          bad :=
            finding "size-group" "%s %s from size %d to %d (%g -> %g)" what direction
              (k - 1) k prev cur
            :: !bad
      end
    done;
    List.rev !bad
  in
  List.concat_map
    (fun (kind, fanin) ->
      let label what =
        Printf.sprintf "%s %s (fan-in %d)" (Gate_kind.to_string kind) what fanin
      in
      let of_size f = Array.init n (fun k -> f ~size:k kind ~fanin) in
      let delays = of_size (Sized_library.rise_fall_of sized) in
      series ~what:(label "rise delay") ~law:`Down (Array.map fst delays)
      @ series ~what:(label "fall delay") ~law:`Down (Array.map snd delays)
      @ series ~what:(label "area") ~law:`Up (of_size (Sized_library.area sized))
      @ series ~what:(label "capacitance") ~law:`Up
          (of_size (Sized_library.capacitance sized)))
    (instantiated_pairs circuit)

(* ---------- input statistics ---------- *)

let check_spec ~spec circuit =
  List.concat_map
    (fun id ->
      let name = Circuit.net_name circuit id in
      let s : Input_spec.t = spec id in
      let probs =
        Spsta_engine.Invariant.check_prob_sum
          ~what:(Printf.sprintf "source %s probability" name)
          [
            ("p_zero", s.Input_spec.p_zero);
            ("p_one", s.Input_spec.p_one);
            ("p_rise", s.Input_spec.p_rise);
            ("p_fall", s.Input_spec.p_fall);
          ]
        |> List.map (fun (issue : Spsta_engine.Invariant.issue) ->
               finding "spec-probability" ~nets:[ name ] "%s" issue.message)
      in
      let arrivals =
        Spsta_engine.Invariant.check_normal
          ~what:(Printf.sprintf "source %s rise arrival" name)
          s.Input_spec.rise_arrival
        @ Spsta_engine.Invariant.check_normal
            ~what:(Printf.sprintf "source %s fall arrival" name)
            s.Input_spec.fall_arrival
        |> List.map (fun (issue : Spsta_engine.Invariant.issue) ->
               finding "spec-arrival" ~nets:[ name ] "%s" issue.message)
      in
      probs @ arrivals)
    (Circuit.sources circuit)

(* ---------- grid settings ---------- *)

let check_grid ?spec ~dt ~truncate_eps circuit =
  let settings =
    (if not (Spsta_engine.Invariant.finite dt) || dt <= 0.0 then
       [ finding "grid-dt" "grid step dt = %.17g must be finite and positive" dt ]
     else [])
    @
    if
      (not (Spsta_engine.Invariant.finite truncate_eps))
      || truncate_eps < 0.0 || truncate_eps >= 1.0
    then
      [
        finding "grid-eps" "truncation threshold eps = %.17g must lie in [0, 1)"
          truncate_eps;
      ]
    else []
  in
  if settings <> [] then settings
  else
    let bound = 2.0 *. truncate_eps *. float_of_int (Circuit.gate_count circuit) in
    let budget =
      if bound > grid_error_budget then
        [
          finding "grid-error-bound"
            "worst-case accumulated truncation bound 2 * %g * %d gates = %.3g exceeds \
             %g; the tracked error bound cannot certify the reported probabilities"
            truncate_eps (Circuit.gate_count circuit) bound grid_error_budget;
        ]
      else []
    in
    let coarse =
      match spec with
      | None -> []
      | Some spec ->
        List.filter_map
          (fun id ->
            let s : Input_spec.t = spec id in
            let sigma =
              Float.min
                (Spsta_dist.Normal.stddev s.Input_spec.rise_arrival)
                (Spsta_dist.Normal.stddev s.Input_spec.fall_arrival)
            in
            if Spsta_engine.Invariant.finite sigma && sigma > 0.0 && dt > sigma then
              let name = Circuit.net_name circuit id in
              Some
                (finding "grid-dt-coarse" ~nets:[ name ]
                   "grid step dt = %g exceeds source %s arrival sigma %g; the grid \
                    cannot resolve the input distribution"
                   dt name sigma)
            else None)
          (Circuit.sources circuit)
    in
    budget @ coarse

(* ---------- dataflow-powered rules ---------- *)

(* Facts from lib/analysis: static constants, constant-masked
   (unobservable) logic, and reconvergent-fanout regions.  The first two
   report per net like the structural rules; reconvergence is summarised
   in one finding per circuit — real netlists have hundreds of regions
   and the per-region detail belongs to `spsta static`, not lint. *)
let static_passes circuit =
  Spsta_analysis.Static.run ~passes:[ `Constants; `Reconvergence; `Observability ] circuit

let dataflow_findings (result : Spsta_analysis.Static.t) =
  let circuit = result.Spsta_analysis.Static.circuit in
  let name id = Circuit.net_name circuit id in
  let constants =
    match result.Spsta_analysis.Static.constants with
    | None -> []
    | Some c ->
      List.map
        (fun id ->
          let v = match Spsta_analysis.Constprop.const_of c id with
            | Some true -> 1
            | _ -> 0
          in
          finding "constant-logic" ~nets:[ name id ]
            "gate output %s is statically %d; its cone computes nothing" (name id) v)
        (Spsta_analysis.Constprop.constants c)
  in
  let unobservable =
    match result.Spsta_analysis.Static.observability with
    | None -> []
    | Some o ->
      List.map
        (fun id ->
          finding "unobservable-logic" ~nets:[ name id ]
            "gate %s never reaches an endpoint through non-constant logic; it cannot \
             affect any reported arrival"
            (name id))
        (Spsta_analysis.Observability.sharpened o)
  in
  let reconvergent =
    match result.Spsta_analysis.Static.reconvergence with
    | None -> []
    | Some r ->
      (match Spsta_analysis.Reconvergence.regions r with
      | [] -> []
      | regions ->
        let worst =
          List.fold_left
            (fun acc (reg : Spsta_analysis.Reconvergence.region) ->
              match acc with
              | Some (best : Spsta_analysis.Reconvergence.region)
                when best.Spsta_analysis.Reconvergence.width >= reg.width -> acc
              | _ -> Some reg)
            None regions
          |> Option.get
        in
        [
          finding "reconvergent-fanout"
            ~nets:[ name worst.Spsta_analysis.Reconvergence.stem;
                    name worst.Spsta_analysis.Reconvergence.merge ]
            "%d reconvergent fanout regions (%d nets where eq. 5 independence is \
             unsound); widest: stem %s remerges at %s (width %d, depth %d)"
            (List.length regions)
            (Spsta_analysis.Reconvergence.num_tainted r)
            (name worst.Spsta_analysis.Reconvergence.stem)
            (name worst.Spsta_analysis.Reconvergence.merge)
            worst.Spsta_analysis.Reconvergence.width
            worst.Spsta_analysis.Reconvergence.depth;
        ])
  in
  constants @ unobservable @ reconvergent

(* one observability walk serves both rule sets: its structural lane is
   the dead-logic rule *)
let check_circuit ?library ?spec ?grid circuit =
  let static = static_passes circuit in
  let reachable =
    Spsta_analysis.Observability.reachable (Option.get static.Spsta_analysis.Static.observability)
  in
  structure_findings ~reachable circuit
  @ dataflow_findings static
  @ (match library with
    | Some library -> check_library library circuit
    | None -> [])
  @ (match spec with Some spec -> check_spec ~spec circuit | None -> [])
  @
  match grid with
  | Some (dt, truncate_eps) -> check_grid ?spec ~dt ~truncate_eps circuit
  | None -> []

(* ---------- file-level lint ---------- *)

let rule_of_violation = function
  | Circuit.Multiple_drivers -> "multiply-driven-net"
  | Circuit.Undriven -> "undriven-net"
  | Circuit.Cycle -> "combinational-cycle"
  | Circuit.Arity -> "arity-mismatch"

let has_extension path ext =
  Filename.check_suffix (String.lowercase_ascii path) ext

let parse path =
  if has_extension path ".v" then Verilog_io.parse_file path
  else Bench_io.parse_file path

let lint_path ?library ?spec ?grid path =
  match parse path with
  | circuit -> check_circuit ?library ?spec ?grid circuit
  | exception Sys_error message -> [ finding "io-error" "%s" message ]
  | exception Bench_io.Parse_error { line; message } ->
    [ finding "parse-error" "%s:%d: %s" path line message ]
  | exception Verilog_io.Parse_error { line; message } ->
    [ finding "parse-error" "%s:%d: %s" path line message ]
  | exception Circuit.Invalid_circuit { violation; message } ->
    [ finding (rule_of_violation violation) "%s: %s" path message ]

(* ---------- reporting ---------- *)

let count severity findings =
  List.length (List.filter (fun f -> f.severity = severity) findings)

let has_errors findings = List.exists (fun f -> f.severity = Error) findings

let exit_code ?(strict = false) findings =
  if has_errors findings then 3
  else if strict && count Warning findings > 0 then 4
  else 0

let render_text findings =
  String.concat ""
    (List.map
       (fun f ->
         Printf.sprintf "  %-7s [%s] %s\n" (severity_name f.severity) f.rule f.message)
       findings)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let finding_to_json f =
  Printf.sprintf {|{"rule":"%s","severity":"%s","nets":[%s],"message":"%s"}|}
    (json_escape f.rule)
    (severity_name f.severity)
    (String.concat "," (List.map (fun n -> Printf.sprintf {|"%s"|} (json_escape n)) f.nets))
    (json_escape f.message)

let json_of_findings ~subject findings =
  Printf.sprintf
    {|{"subject":"%s","errors":%d,"warnings":%d,"infos":%d,"findings":[%s]}|}
    (json_escape subject) (count Error findings) (count Warning findings)
    (count Info findings)
    (String.concat "," (List.map finding_to_json findings))
