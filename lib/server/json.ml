(* A minimal, dependency-free JSON value type with a strict parser and a
   compact printer.  The server protocol is JSON-lines, so the parser
   additionally rejects trailing garbage after the top-level value; numbers
   are kept as floats (delay statistics dominate the payloads). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of { pos : int; message : string }

let fail pos fmt = Printf.ksprintf (fun message -> raise (Parse_error { pos; message })) fmt

(* ---------- printing ---------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x ->
    (* NaN / infinities are not representable in JSON; encode as null *)
    if not (Float.is_finite x) then Buffer.add_string buf "null"
    else Buffer.add_string buf (number_to_string x)
  | Str s -> escape buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ---------- parsing ---------- *)

type cursor = { text : string; mutable pos : int }

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.text
    && match c.text.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail c.pos "expected %c, found %c" ch x
  | None -> fail c.pos "expected %c, found end of input" ch

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos "invalid literal"

let parse_string_body c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c.pos "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' ->
      c.pos <- c.pos + 1;
      ( match peek c with
      | None -> fail c.pos "unterminated escape"
      | Some e ->
        c.pos <- c.pos + 1;
        ( match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if c.pos + 4 > String.length c.text then fail c.pos "truncated \\u escape";
          let hex = String.sub c.text c.pos 4 in
          let code =
            try int_of_string ("0x" ^ hex) with _ -> fail c.pos "bad \\u escape %s" hex
          in
          c.pos <- c.pos + 4;
          (* encode the code point as UTF-8; surrogate pairs are passed
             through as two separate 3-byte sequences, which suffices for
             the ASCII-dominated protocol *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | e -> fail c.pos "invalid escape \\%c" e ) );
      loop ()
    | Some ch ->
      c.pos <- c.pos + 1;
      Buffer.add_char buf ch;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while match peek c with Some ch when is_num_char ch -> true | _ -> false do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.text start (c.pos - start) in
  match float_of_string_opt s with
  | Some x -> Num x
  | None -> fail start "invalid number %s" s

(* Arrays and objects nest at most this deep: the parser recurses once
   per level, and a hostile frame of a hundred thousand ['[']s must end
   in a [Parse_error] (a [bad_json] response), not a stack overflow. *)
let max_depth = 512

let rec parse_value ?(depth = 0) c =
  skip_ws c;
  let nested () =
    if depth >= max_depth then fail c.pos "nesting deeper than %d levels" max_depth;
    c.pos <- c.pos + 1
  in
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '{' ->
    nested ();
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws c;
        let key = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value ~depth:(depth + 1) c in
        fields := (key, v) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          members ()
        | Some '}' -> c.pos <- c.pos + 1
        | _ -> fail c.pos "expected , or } in object"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    nested ();
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      List []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value ~depth:(depth + 1) c in
        items := v :: !items;
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          elements ()
        | Some ']' -> c.pos <- c.pos + 1
        | _ -> fail c.pos "expected , or ] in array"
      in
      elements ();
      List (List.rev !items)
    end
  | Some '"' -> Str (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c.pos "unexpected character %c" ch

let of_string s =
  let c = { text = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c.pos "trailing garbage after JSON value";
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

(* ---------- accessors ---------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_float_opt = function Num x -> Some x | _ -> None

let to_int_opt = function
  | Num x when Float.is_integer x -> Some (int_of_float x)
  | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None

let string s = Str s
let float x = Num x
let int i = Num (float_of_int i)
let bool b = Bool b
