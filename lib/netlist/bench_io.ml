exception Parse_error of { line : int; message : string }

let parse_fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  || c = '.' || c = '[' || c = ']' || c = '$' || c = '-' || c = '/'

let check_ident lineno s =
  if s = "" then parse_fail lineno "empty net name";
  for k = 0 to String.length s - 1 do
    if not (is_ident_char s.[k]) then
      parse_fail lineno "invalid character %C in net name %s" s.[k] s
  done;
  s

let rec check_idents lineno = function
  | [] -> ()
  | a :: rest ->
    ignore (check_ident lineno a);
    check_idents lineno rest

(* The reader scans the text by index, one line at a time, and
   allocates only net names and gate heads: no per-line substring, no
   list of lines.  Positions below are half-open ranges [i, j) of
   [text]; whitespace is [String.trim]'s. *)
let is_space c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

(* first [c] in [i, j), or [j] *)
let rec index_in text c i j = if i < j && text.[i] <> c then index_in text c (i + 1) j else i

(* last [c] in [i, j), or [i - 1] *)
let rec rindex_in text c i j =
  if j > i && text.[j - 1] <> c then rindex_in text c i (j - 1) else j - 1

let rec skip_space text i j = if i < j && is_space text.[i] then skip_space text (i + 1) j else i
let rec trim_end text i j = if j > i && is_space text.[j - 1] then trim_end text i (j - 1) else j
let sub text i j = String.sub text i (j - i)

(* the trimmed, non-empty comma-separated fields of [first, stop), in
   order: they are taken right to left and consed onto [acc] *)
let rec fields text first stop acc =
  let comma = rindex_in text ',' first stop in
  let a = skip_space text (comma + 1) stop in
  let b = trim_end text a stop in
  let acc = if a < b then sub text a b :: acc else acc in
  if comma < first then acc else fields text first comma acc

(* "HEAD(arg1, arg2, ...)" in the trimmed range [i, j) -> (HEAD,
   [args]), each argument trimmed and empty ones skipped *)
let parse_call text lineno i j =
  let open_paren = index_in text '(' i j in
  if open_paren = j then parse_fail lineno "expected '(' in %S" (sub text i j);
  if text.[j - 1] <> ')' then parse_fail lineno "expected trailing ')' in %S" (sub text i j);
  (sub text i (trim_end text i open_paren), fields text (open_paren + 1) (j - 1) [])

(* case-insensitive "DFF", without an upper-cased copy per gate line *)
let is_dff head =
  String.length head = 3
  && Char.uppercase_ascii head.[0] = 'D'
  && Char.uppercase_ascii head.[1] = 'F'
  && Char.uppercase_ascii head.[2] = 'F'

let parse_line builder text lineno i j =
  let eq = index_in text '=' i j in
  if eq = j then begin
    (* INPUT(x) or OUTPUT(x) *)
    let head, args = parse_call text lineno i j in
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
  else begin
    let output = check_ident lineno (sub text i (trim_end text i eq)) in
    let head, args = parse_call text lineno (skip_space text (eq + 1) j) j in
    check_idents lineno args;
    if is_dff head then begin
      match args with
      | [ d ] -> Circuit.Builder.add_dff builder ~q:output ~d
      | [] | _ :: _ -> parse_fail lineno "DFF expects exactly one data net"
    end
    else begin
      match Spsta_logic.Gate_kind.of_string head with
      | Some kind -> Circuit.Builder.add_gate builder ~output kind args
      | None -> parse_fail lineno "unknown gate type %s" (String.uppercase_ascii head)
    end
  end

let parse_string ?(name = "") text =
  let builder = Circuit.Builder.create ~name () in
  let len = String.length text in
  (* lines are the '\n'-separated segments, the last one possibly empty;
     each is cut at its first '#' and trimmed *)
  let rec lines start lineno =
    let stop = index_in text '\n' start len in
    let cut = index_in text '#' start stop in
    let i = skip_space text start cut in
    let j = trim_end text i cut in
    if i < j then parse_line builder text lineno i j;
    if stop < len then lines (stop + 1) (lineno + 1)
  in
  lines 0 1;
  Circuit.Builder.finalize builder

let basename_no_ext path =
  let base = Filename.basename path in
  match Filename.chop_suffix_opt ~suffix:".bench" base with
  | Some stem -> stem
  | None -> ( try Filename.chop_extension base with Invalid_argument _ -> base )

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string ~name:(basename_no_ext path) text

let to_string circuit =
  let buf = Buffer.create 4096 in
  if Circuit.name circuit <> "" then
    Buffer.add_string buf (Printf.sprintf "# %s\n" (Circuit.name circuit));
  let net = Circuit.net_name circuit in
  List.iter
    (fun i -> Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" (net i)))
    (Circuit.primary_inputs circuit);
  List.iter
    (fun i -> Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" (net i)))
    (Circuit.primary_outputs circuit);
  List.iter
    (fun (q, d) -> Buffer.add_string buf (Printf.sprintf "%s = DFF(%s)\n" (net q) (net d)))
    (Circuit.dffs circuit);
  Array.iter
    (fun g ->
      match Circuit.driver circuit g with
      | Circuit.Gate { kind; inputs } ->
        let args = String.concat ", " (Array.to_list (Array.map net inputs)) in
        Buffer.add_string buf
          (Printf.sprintf "%s = %s(%s)\n" (net g) (Spsta_logic.Gate_kind.to_string kind) args)
      | Circuit.Input | Circuit.Dff_output _ -> assert false)
    (Circuit.topo_gates circuit);
  Buffer.contents buf

let write_file circuit path =
  let oc = open_out path in
  output_string oc (to_string circuit);
  close_out oc
