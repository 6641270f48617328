(* JSONL protocol codec: encode/decode round trips for every request and
   response variant, and decoder rejection of malformed lines with the
   right error code. *)

module Json = Spsta_server.Json
module Protocol = Spsta_server.Protocol

let code = Alcotest.testable (Fmt.of_to_string Protocol.error_code_name) ( = )

let decode_error line =
  match Protocol.request_of_line line with
  | Ok _ -> Alcotest.failf "decoder accepted %s" line
  | Error e -> e

(* ---------- Json ---------- *)

let test_json_round_trip () =
  let samples =
    [ "null"; "true"; "false"; "42"; "-1.5"; "\"hi\""; "[]"; "[1,2,3]"; "{}";
      "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}" ]
  in
  List.iter
    (fun s -> Alcotest.(check string) s s (Json.to_string (Json.of_string s)))
    samples

let test_json_escapes () =
  let v = Json.Str "a\"b\\c\nd\te" in
  let s = Json.to_string v in
  Alcotest.(check string) "escaped" "\"a\\\"b\\\\c\\nd\\te\"" s;
  ( match Json.of_string s with
  | Json.Str decoded -> Alcotest.(check string) "round trip" "a\"b\\c\nd\te" decoded
  | _ -> Alcotest.fail "not a string" );
  match Json.of_string "\"\\u0041\\u00e9\"" with
  | Json.Str decoded -> Alcotest.(check string) "unicode escapes" "A\xc3\xa9" decoded
  | _ -> Alcotest.fail "not a string"

let test_json_rejects () =
  let bad = [ ""; "{"; "[1,"; "{\"a\"}"; "tru"; "1 2"; "{\"a\":1}x"; "'single'" ] in
  List.iter
    (fun s ->
      match Json.of_string_opt s with
      | None -> ()
      | Some _ -> Alcotest.failf "parser accepted %S" s)
    bad

let test_json_numbers () =
  Alcotest.(check (float 0.0)) "int" 42.0 (Option.get (Json.to_float_opt (Json.of_string "42")));
  Alcotest.(check (float 1e-12)) "exp" 1.5e3
    (Option.get (Json.to_float_opt (Json.of_string "1.5e3")));
  Alcotest.(check string) "integral floats print as ints" "7" (Json.to_string (Json.int 7));
  Alcotest.(check string) "non-finite encodes as null" "null"
    (Json.to_string (Json.float Float.nan))

(* ---------- request round trips ---------- *)

let all_requests : Protocol.request list =
  [ { id = "a1"; deadline_ms = None;
      kind = Analyze { circuit = "s344"; case = Protocol.Case_i; top = 0; check = false } };
    { id = "a2"; deadline_ms = Some 12.5;
      kind = Analyze { circuit = "bench/x.bench"; case = Protocol.Case_ii; top = 3; check = true } };
    { id = "s1"; deadline_ms = None; kind = Ssta { circuit = "s1196"; top = 5; check = false } };
    { id = "s2"; deadline_ms = None; kind = Ssta { circuit = "s27"; top = 0; check = true } };
    { id = "m1"; deadline_ms = Some 100.0;
      kind =
        Mc
          { circuit = "s386"; case = Protocol.Case_ii; runs = 2000; seed = 7; top = 0;
            engine = Protocol.Packed } };
    { id = "m2"; deadline_ms = None;
      kind =
        Mc
          { circuit = "s27"; case = Protocol.Case_i; runs = 100; seed = 1; top = 2;
            engine = Protocol.Scalar } };
    { id = "p1"; deadline_ms = None;
      kind =
        Paths
          { circuit = "c17"; k = 8; sigma_global = 0.05; sigma_spatial = 0.1;
            sigma_random = 0.02 } };
    { id = "z1"; deadline_ms = None;
      kind =
        Size
          { circuit = "s344"; quantile = 0.99; target = None; max_moves = 50; candidates = 8;
            sizes = 4; ratio = 1.5; initial = Protocol.Smallest; check = false } };
    { id = "z2"; deadline_ms = Some 5000.0;
      kind =
        Size
          { circuit = "s5378"; quantile = 0.95; target = Some 12.0; max_moves = 200;
            candidates = 4; sizes = 6; ratio = 2.0; initial = Protocol.Largest; check = true } };
    { id = "o1"; deadline_ms = None;
      kind = Session_open { session = "eco"; circuit = "s5378"; sizes = 4; ratio = 1.5 } };
    { id = "o2"; deadline_ms = Some 250.0;
      kind = Session_open { session = "big"; circuit = "bench/x.bench"; sizes = 6; ratio = 2.0 } };
    { id = "mu1"; deadline_ms = None;
      kind = Session_mutate { session = "eco"; mutation = Resize { net = "g12"; size = 2 } } };
    { id = "mu2"; deadline_ms = None;
      kind =
        Session_mutate
          { session = "eco"; mutation = Retype { net = "g7"; gate = Spsta_logic.Gate_kind.Nor } } };
    { id = "mu3"; deadline_ms = None;
      kind =
        Session_mutate
          { session = "eco";
            mutation =
              Set_input
                { net = "pi4"; mu_rise = 0.5; sigma_rise = 0.25; mu_fall = 0.0;
                  sigma_fall = 1.0 } } };
    { id = "q1"; deadline_ms = None; kind = Session_query { session = "eco"; top = 5 } };
    { id = "v1"; deadline_ms = None; kind = Session_verify { session = "eco" } };
    { id = "c1"; deadline_ms = None; kind = Session_close { session = "eco" } };
    { id = "st"; deadline_ms = None; kind = Stats };
    { id = "sd"; deadline_ms = None; kind = Shutdown } ]

let test_request_round_trip () =
  List.iter
    (fun r ->
      let line = Protocol.request_to_line r in
      match Protocol.request_of_line line with
      | Error e -> Alcotest.failf "decode of %s failed: %s" line e.Protocol.message
      | Ok r' ->
        (* re-encoding is canonical, so equality of lines is equality of
           requests *)
        Alcotest.(check string)
          (Protocol.kind_name r.Protocol.kind)
          line (Protocol.request_to_line r'))
    all_requests

let test_request_defaults () =
  match Protocol.request_of_line "{\"id\":\"x\",\"kind\":\"mc\",\"circuit\":\"s27\"}" with
  | Error e -> Alcotest.fail e.Protocol.message
  | Ok { kind = Mc p; deadline_ms; _ } ->
    Alcotest.(check int) "default runs" 10_000 p.Protocol.runs;
    Alcotest.(check int) "default seed" 42 p.Protocol.seed;
    Alcotest.(check int) "default top" 0 p.Protocol.top;
    Alcotest.(check bool) "no deadline" true (deadline_ms = None);
    Alcotest.(check string) "case defaults to I" "I" (Protocol.case_name p.Protocol.case);
    Alcotest.(check string) "engine defaults to packed" "packed"
      (Protocol.mc_engine_name p.Protocol.engine)
  | Ok _ -> Alcotest.fail "wrong kind"

let test_size_defaults () =
  match Protocol.request_of_line "{\"id\":\"x\",\"kind\":\"size\",\"circuit\":\"s27\"}" with
  | Error e -> Alcotest.fail e.Protocol.message
  | Ok { kind = Size p; _ } ->
    Alcotest.(check (float 0.0)) "default quantile" 0.99 p.Protocol.quantile;
    Alcotest.(check bool) "no target" true (p.Protocol.target = None);
    Alcotest.(check int) "default max_moves" 400 p.Protocol.max_moves;
    Alcotest.(check int) "default candidates" 8 p.Protocol.candidates;
    Alcotest.(check int) "default sizes" 4 p.Protocol.sizes;
    Alcotest.(check (float 0.0)) "default ratio" 1.5 p.Protocol.ratio;
    Alcotest.(check string) "initial defaults to smallest" "smallest"
      (Protocol.size_initial_name p.Protocol.initial);
    Alcotest.(check bool) "check defaults off" false p.Protocol.check
  | Ok _ -> Alcotest.fail "wrong kind"

let test_session_defaults () =
  ( match Protocol.request_of_line "{\"id\":\"x\",\"kind\":\"open\",\"session\":\"s\",\"circuit\":\"s27\"}" with
  | Error e -> Alcotest.fail e.Protocol.message
  | Ok { kind = Session_open p; _ } ->
    Alcotest.(check int) "default sizes" 4 p.Protocol.sizes;
    Alcotest.(check (float 0.0)) "default ratio" 1.5 p.Protocol.ratio
  | Ok _ -> Alcotest.fail "wrong kind" );
  ( match
      Protocol.request_of_line
        "{\"id\":\"x\",\"kind\":\"mutate\",\"session\":\"s\",\"op\":\"set_input\",\"net\":\"pi\"}"
    with
  | Error e -> Alcotest.fail e.Protocol.message
  | Ok { kind = Session_mutate { mutation = Set_input { mu_rise; sigma_fall; _ }; _ }; _ } ->
    Alcotest.(check (float 0.0)) "default mu" 0.0 mu_rise;
    Alcotest.(check (float 0.0)) "default sigma" 1.0 sigma_fall
  | Ok _ -> Alcotest.fail "wrong kind" );
  match Protocol.request_of_line "{\"id\":\"x\",\"kind\":\"query\",\"session\":\"s\"}" with
  | Error e -> Alcotest.fail e.Protocol.message
  | Ok { kind = Session_query { top; _ }; _ } -> Alcotest.(check int) "default top" 0 top
  | Ok _ -> Alcotest.fail "wrong kind"

(* ---------- response round trips ---------- *)

let all_responses : Protocol.response list =
  [ Ok
      { id = "r1"; kind = "analyze"; elapsed_ms = 1.25;
        result = Json.Obj [ ("endpoints", Json.List [ Json.int 3 ]) ] };
    Ok { id = "r2"; kind = "stats"; elapsed_ms = 0.0; result = Json.Null };
    Error { id = Some "r3"; code = Protocol.Timeout; message = "deadline exceeded" };
    Error { id = None; code = Protocol.Bad_json; message = "invalid JSON at offset 0" };
    Error { id = Some "r4"; code = Protocol.Circuit_not_found; message = "no such circuit" } ]

let test_response_round_trip () =
  List.iter
    (fun r ->
      let line = Protocol.response_to_line r in
      match Protocol.response_of_line line with
      | Error e -> Alcotest.failf "decode of %s failed: %s" line e.Protocol.message
      | Ok r' -> Alcotest.(check string) line line (Protocol.response_to_line r'))
    all_responses

let test_error_code_names () =
  List.iter
    (fun c ->
      Alcotest.check code "name round trip" c
        (Option.get (Protocol.error_code_of_name (Protocol.error_code_name c))))
    [ Protocol.Bad_json; Protocol.Unknown_kind; Protocol.Missing_field; Protocol.Bad_field;
      Protocol.Circuit_not_found; Protocol.Parse_failure; Protocol.Timeout;
      Protocol.Overloaded; Protocol.Frame_too_large; Protocol.Invalid_utf8;
      Protocol.Unknown_session; Protocol.Session_exists; Protocol.Session_limit;
      Protocol.Internal ]

(* ---------- malformed requests ---------- *)

let test_reject_bad_json () =
  let e = decode_error "this is { not json" in
  Alcotest.check code "bad json" Protocol.Bad_json e.Protocol.code;
  let e = decode_error "[1,2,3]" in
  Alcotest.check code "non-object" Protocol.Bad_json e.Protocol.code

(* nesting is bounded: a 100k-deep frame is a bad_json error, not a
   stack overflow, while ordinary requests are unaffected *)
let test_reject_deep_nesting () =
  let deep = String.make 100_000 '[' in
  let e = decode_error deep in
  Alcotest.check code "100k-deep frame" Protocol.Bad_json e.Protocol.code;
  let nest n = String.make n '[' ^ String.make n ']' in
  Alcotest.(check bool) "512 levels parse" true
    (Option.is_some (Spsta_server.Json.of_string_opt (nest 512)));
  Alcotest.(check bool) "513 levels rejected" true
    (Option.is_none (Spsta_server.Json.of_string_opt (nest 513)));
  match Protocol.request_of_line "{\"id\":\"r1\",\"kind\":\"analyze\",\"circuit\":\"s27\"}" with
  | Ok r -> Alcotest.(check string) "ordinary request decodes" "r1" r.Protocol.id
  | Error _ -> Alcotest.fail "ordinary request rejected"

let test_reject_unknown_kind () =
  let e = decode_error "{\"id\":\"x\",\"kind\":\"frobnicate\"}" in
  Alcotest.check code "unknown kind" Protocol.Unknown_kind e.Protocol.code;
  Alcotest.(check (option string)) "id preserved" (Some "x") e.Protocol.id

let test_reject_missing_field () =
  let e = decode_error "{\"kind\":\"analyze\",\"circuit\":\"s27\"}" in
  Alcotest.check code "missing id" Protocol.Missing_field e.Protocol.code;
  let e = decode_error "{\"id\":\"x\"}" in
  Alcotest.check code "missing kind" Protocol.Missing_field e.Protocol.code;
  let e = decode_error "{\"id\":\"x\",\"kind\":\"analyze\"}" in
  Alcotest.check code "missing circuit" Protocol.Missing_field e.Protocol.code;
  Alcotest.(check (option string)) "id preserved" (Some "x") e.Protocol.id

let test_reject_bad_field () =
  let cases =
    [ "{\"id\":7,\"kind\":\"stats\"}";
      "{\"id\":\"x\",\"kind\":\"analyze\",\"circuit\":17}";
      "{\"id\":\"x\",\"kind\":\"analyze\",\"circuit\":\"s27\",\"case\":\"XVII\"}";
      "{\"id\":\"x\",\"kind\":\"mc\",\"circuit\":\"s27\",\"runs\":-4}";
      "{\"id\":\"x\",\"kind\":\"mc\",\"circuit\":\"s27\",\"runs\":\"many\"}";
      "{\"id\":\"x\",\"kind\":\"mc\",\"circuit\":\"s27\",\"mc_engine\":\"quantum\"}";
      "{\"id\":\"x\",\"kind\":\"mc\",\"circuit\":\"s27\",\"mc_engine\":3}";
      "{\"id\":\"x\",\"kind\":\"paths\",\"circuit\":\"s27\",\"k\":0}";
      "{\"id\":\"x\",\"kind\":\"paths\",\"circuit\":\"s27\",\"sigma_global\":-1}";
      "{\"id\":\"x\",\"kind\":\"paths\",\"circuit\":\"s27\",\"sigma_random\":1e999}";
      "{\"id\":\"x\",\"kind\":\"size\",\"circuit\":\"s27\",\"quantile\":1.5}";
      "{\"id\":\"x\",\"kind\":\"size\",\"circuit\":\"s27\",\"target\":0}";
      "{\"id\":\"x\",\"kind\":\"size\",\"circuit\":\"s27\",\"ratio\":1.0}";
      "{\"id\":\"x\",\"kind\":\"size\",\"circuit\":\"s27\",\"ratio\":1e999}";
      "{\"id\":\"x\",\"kind\":\"size\",\"circuit\":\"s27\",\"initial\":\"medium\"}";
      "{\"id\":\"x\",\"kind\":\"stats\",\"deadline_ms\":-1}";
      "{\"id\":\"x\",\"kind\":\"stats\",\"deadline_ms\":\"soon\"}";
      "{\"id\":\"x\",\"kind\":\"open\",\"session\":\"\",\"circuit\":\"s27\"}";
      "{\"id\":\"x\",\"kind\":\"open\",\"session\":\"s\",\"circuit\":\"s27\",\"sizes\":0}";
      "{\"id\":\"x\",\"kind\":\"open\",\"session\":\"s\",\"circuit\":\"s27\",\"ratio\":1.0}";
      "{\"id\":\"x\",\"kind\":\"open\",\"session\":\"s\",\"circuit\":\"s27\",\"ratio\":1e999}";
      "{\"id\":\"x\",\"kind\":\"mutate\",\"session\":\"s\",\"op\":\"resize\",\"net\":\"g\",\"size\":-1}";
      "{\"id\":\"x\",\"kind\":\"mutate\",\"session\":\"s\",\"op\":\"retype\",\"net\":\"g\",\"gate\":\"FROB\"}";
      "{\"id\":\"x\",\"kind\":\"mutate\",\"session\":\"s\",\"op\":\"set_input\",\"net\":\"g\",\"sigma_rise\":-0.5}";
      "{\"id\":\"x\",\"kind\":\"mutate\",\"session\":\"s\",\"op\":\"transmogrify\",\"net\":\"g\"}" ]
  in
  List.iter
    (fun line ->
      let e = decode_error line in
      Alcotest.check code line Protocol.Bad_field e.Protocol.code)
    cases

let suite =
  [
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
    Alcotest.test_case "json escapes" `Quick test_json_escapes;
    Alcotest.test_case "json rejects" `Quick test_json_rejects;
    Alcotest.test_case "json numbers" `Quick test_json_numbers;
    Alcotest.test_case "request round trip" `Quick test_request_round_trip;
    Alcotest.test_case "request defaults" `Quick test_request_defaults;
    Alcotest.test_case "size request defaults" `Quick test_size_defaults;
    Alcotest.test_case "session request defaults" `Quick test_session_defaults;
    Alcotest.test_case "response round trip" `Quick test_response_round_trip;
    Alcotest.test_case "error code names" `Quick test_error_code_names;
    Alcotest.test_case "reject bad json" `Quick test_reject_bad_json;
    Alcotest.test_case "reject deep nesting" `Quick test_reject_deep_nesting;
    Alcotest.test_case "reject unknown kind" `Quick test_reject_unknown_kind;
    Alcotest.test_case "reject missing field" `Quick test_reject_missing_field;
    Alcotest.test_case "reject bad field" `Quick test_reject_bad_field;
  ]
