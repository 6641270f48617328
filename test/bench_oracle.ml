(* The line-based [.bench] reader as it stood before the index scan,
   kept verbatim as the differential oracle the scanner is checked
   against: it splits the text into a list of lines, then each line into
   substrings and an argument list.  Only the module aliases and the
   exception (the library's, so outcomes compare structurally) differ
   from the original. *)

module Circuit = Spsta_netlist.Circuit

exception Parse_error = Spsta_netlist.Bench_io.Parse_error

let parse_fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  || c = '.' || c = '[' || c = ']' || c = '$' || c = '-' || c = '/'

let check_ident lineno s =
  if s = "" then parse_fail lineno "empty net name";
  String.iter (fun c -> if not (is_ident_char c) then parse_fail lineno "invalid character %C in net name %s" c s) s;
  s

(* "HEAD(arg1, arg2, ...)" -> (HEAD, [args]) *)
let parse_call lineno s =
  match String.index_opt s '(' with
  | None -> parse_fail lineno "expected '(' in %S" s
  | Some open_paren ->
    if String.length s = 0 || s.[String.length s - 1] <> ')' then
      parse_fail lineno "expected trailing ')' in %S" s;
    let head = String.trim (String.sub s 0 open_paren) in
    let args_str = String.sub s (open_paren + 1) (String.length s - open_paren - 2) in
    let args =
      String.split_on_char ',' args_str
      |> List.map String.trim
      |> List.filter (fun a -> a <> "")
    in
    (head, args)

let parse_string ?(name = "") text =
  let builder = Circuit.Builder.create ~name () in
  let handle_line lineno raw =
    let line =
      match String.index_opt raw '#' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    let line = String.trim line in
    if line <> "" then begin
      match String.index_opt line '=' with
      | None -> begin
        (* INPUT(x) or OUTPUT(x) *)
        let head, args = parse_call lineno line in
        let arg =
          match args with
          | [ a ] -> check_ident lineno a
          | [] | _ :: _ -> parse_fail lineno "%s expects exactly one net" head
        in
        match String.uppercase_ascii head with
        | "INPUT" -> Circuit.Builder.add_input builder arg
        | "OUTPUT" -> Circuit.Builder.add_output builder arg
        | other -> parse_fail lineno "unknown declaration %s" other
      end
      | Some eq -> begin
        let output = check_ident lineno (String.trim (String.sub line 0 eq)) in
        let rhs = String.trim (String.sub line (eq + 1) (String.length line - eq - 1)) in
        let head, args = parse_call lineno rhs in
        let args = List.map (check_ident lineno) args in
        match String.uppercase_ascii head with
        | "DFF" -> begin
          match args with
          | [ d ] -> Circuit.Builder.add_dff builder ~q:output ~d
          | [] | _ :: _ -> parse_fail lineno "DFF expects exactly one data net"
        end
        | head_name -> begin
          match Spsta_logic.Gate_kind.of_string head_name with
          | Some kind -> Circuit.Builder.add_gate builder ~output kind args
          | None -> parse_fail lineno "unknown gate type %s" head_name
        end
      end
    end
  in
  List.iteri (fun i l -> handle_line (i + 1) l) (String.split_on_char '\n' text);
  Circuit.Builder.finalize builder
