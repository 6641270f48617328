(* Child processes and the client side of the JSONL socket protocol.

   The server workloads run the real server, [Spsta_server.Transport.run]
   on a Unix socket, in a child process: this executable re-run with
   [--serve-child].  The benchmark talks to it as any client would, one
   request per line.  Every child is registered so an early exit still
   kills and reaps it. *)

let now = Unix.gettimeofday

(* ---------- memory ---------- *)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb -> kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Words allocated so far by this domain: minor plus direct major
   allocations (promotions are not new allocations). *)
let alloc_words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

(* ---------- children ---------- *)

let live = ref []

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let spawn ?(stdout = Unix.stderr) args =
  let null = devnull () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      null stdout Unix.stderr
  in
  Unix.close null;
  live := pid :: !live;
  pid

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
    | _, status -> status
  in
  let status = wait () in
  live := List.filter (( <> ) pid) !live;
  status

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap pid)

let () = at_exit (fun () -> List.iter kill !live)

(* Runs this executable with [args] and returns its standard output. *)
let run_capture args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = spawn ~stdout:w args in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  match reap pid with
  | Unix.WEXITED 0 -> out
  | _ -> failwith (Printf.sprintf "child %s failed" (String.concat " " args))

(* ---------- connections ---------- *)

type conn = { fd : Unix.file_descr; mutable pending : string }

exception Timeout

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b and off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let send conn line = write_all conn.fd (line ^ "\n")

let chunk = Bytes.create 65536

(* Reads what is available and returns the complete lines, in order. *)
let read_lines conn =
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "server closed the connection"
  | n ->
    let data = conn.pending ^ Bytes.sub_string chunk 0 n in
    let parts = String.split_on_char '\n' data in
    let rec split acc = function
      | [ last ] ->
        conn.pending <- last;
        List.rev acc
      | line :: rest -> split (line :: acc) rest
      | [] -> List.rev acc
    in
    split [] parts

(* Blocks for the next line; [Timeout] after [timeout] seconds. *)
let rec recv ?(timeout = 120.0) conn =
  match String.index_opt conn.pending '\n' with
  | Some i ->
    let line = String.sub conn.pending 0 i in
    conn.pending <- String.sub conn.pending (i + 1) (String.length conn.pending - i - 1);
    line
  | None -> (
    match Unix.select [ conn.fd ] [] [] timeout with
    | [], _, _ -> raise Timeout
    | _ -> (
      match read_lines conn with
      | [] -> recv ~timeout conn
      | first :: rest ->
        conn.pending <- String.concat "\n" (rest @ [ conn.pending ]);
        first ) )

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* ---------- the server child ---------- *)

type server = { pid : int; socket : string }

(* Starts a server and returns it with a connection once its socket
   accepts, and the seconds that took. *)
let start_server ~socket ~workers =
  let t0 = now () in
  let pid = spawn [ "--serve-child"; socket; string_of_int workers ] in
  let rec attempt () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> { fd; pending = "" }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if now () -. t0 > 60.0 then failwith "server did not start";
      Unix.sleepf 0.0005;
      attempt ()
  in
  let conn = attempt () in
  ({ pid; socket }, conn, now () -. t0)

let connect server =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX server.socket);
  { fd; pending = "" }

(* Graceful stop: a [shutdown] request drains the server, which then
   exits 0.  Anything else kills it. *)
let stop_server server conn =
  (try
     send conn {|{"id":"shutdown","kind":"shutdown"}|};
     ignore (recv ~timeout:60.0 conn)
   with _ -> ( try Unix.kill server.pid Sys.sigkill with Unix.Unix_error _ -> () ));
  close conn;
  match reap server.pid with
  | Unix.WEXITED 0 -> true
  | _ -> false
