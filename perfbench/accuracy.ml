(* accuracy_err: the paper's accuracy claim as one number.

   Three fixed designs are answered by both [analyze] (SPSTA moments) and
   a 10,000-run [mc]; the error is the mean |mu_SPSTA - mu_MC| in gate
   delays over every endpoint and direction where both see the
   transition.  The serve-mix workload sends these requests to the server
   as part of its stream; the others answer them in-process through the
   same [Engine.execute], so every workload reports the same value. *)

module Json = Spsta_server.Json
module Protocol = Spsta_server.Protocol

let designs ~dir = List.map (Gen.make ~dir ~seed:Settings.accuracy_seed) Settings.accuracy_shapes

let analyze_kind (d : Gen.design) =
  Protocol.Analyze { circuit = d.path; case = Protocol.Case_i; top = 0; check = false }

let mc_kind (d : Gen.design) =
  Protocol.Mc
    { circuit = d.path; case = Protocol.Case_i; runs = Settings.accuracy_mc_runs; seed = 1;
      top = 0; engine = Protocol.Packed }

(* (analyze, mc) request kinds, design by design. *)
let requests designs = List.map (fun d -> (analyze_kind d, mc_kind d)) designs

let endpoints payload =
  match Option.bind (Json.member "endpoints" payload) Json.to_list_opt with
  | Some eps -> eps
  | None -> failwith "payload has no endpoints"

let num e k = Option.value (Option.bind (Json.member k e) Json.to_float_opt) ~default:nan

(* |mu| differences of one design, matched by endpoint name. *)
let errors ~analyze ~mc =
  let mc_by_net = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Option.iter (fun n -> Hashtbl.replace mc_by_net n e) (Option.bind (Json.member "net" e) Json.to_string_opt))
    (endpoints mc);
  List.concat_map
    (fun a ->
      match Option.bind (Option.bind (Json.member "net" a) Json.to_string_opt) (Hashtbl.find_opt mc_by_net) with
      | None -> []
      | Some m ->
        List.filter_map
          (fun dir ->
            let p k e = num e (k ^ "_" ^ dir) in
            if p "p" a > 0.0 && p "p" m > 0.0 then Some (Float.abs (p "mu" a -. p "mu" m)) else None)
          [ "rise"; "fall" ])
    (endpoints analyze)

let of_payloads pairs = Quant.mean (List.concat_map (fun (analyze, mc) -> errors ~analyze ~mc) pairs)

let in_process designs =
  let cache = Spsta_server.Cache.create () in
  let payload kind =
    match Spsta_server.Engine.execute cache { Protocol.id = "acc"; deadline_ms = None; kind } with
    | Protocol.Ok { result; _ } -> result
    | Protocol.Error { message; _ } -> failwith ("accuracy request failed: " ^ message)
  in
  of_payloads (List.map (fun (a, m) -> (payload a, payload m)) (requests designs))
