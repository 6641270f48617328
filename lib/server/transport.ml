(* Socket and stdio transports for the JSONL protocol.

   One single-threaded [Unix.select] event loop owns every connection:
   it accepts clients, assembles newline-delimited frames from partial
   reads, and dispatches decoded requests to the server's worker pool.
   Responses are written by the *completing worker domain* under a
   per-connection write mutex, so a slow analysis never blocks the
   loop and frames from different requests never interleave.

   Admission control, outermost first:

   - frames are bounded ([max_frame_bytes]): a connection that exceeds
     the bound without a newline gets a [frame_too_large] error and is
     closed — an unbounded line is indistinguishable from an attack on
     the loop's memory;
   - frames must be valid UTF-8: a violating frame gets an
     [invalid_utf8] error, but the connection survives (the framing
     itself was intact);
   - each connection may have at most [max_inflight] requests queued or
     running; excess requests are refused with [overloaded];
   - the pool itself admits non-blockingly ({!Pool.try_submit}); a
     refusal — full queue, or a session's affinity chain at capacity —
     is also [overloaded].  The transport never blocks on the pool:
     back-pressure is made visible to the client instead of stalling
     every other connection's reads;
   - sessions idle longer than the configured timeout are evicted by a
     periodic sweep (skipping any session with work in flight).

   Graceful shutdown: a [shutdown] request, SIGTERM or SIGINT (when
   [signals] is on) flips one atomic flag.  The loop then stops
   accepting and reading, drains the pool — every accepted request
   still gets its response — flushes and closes the persistent store,
   acknowledges any pending [shutdown] request, and returns, so the CLI
   exits 0.

   Stdio mode is the degenerate transport: one pre-accepted connection
   on a borrowed (input, output) descriptor pair, and EOF plays the role
   of the shutdown signal.  [spsta serve] without a socket flag runs it
   on stdin/stdout; the in-process mode of [spsta session] runs it on a
   pipe pair. *)

type listen = Unix_socket of string | Tcp of int | Stdio of Unix.file_descr * Unix.file_descr

type conn = {
  in_fd : Unix.file_descr;
  out_fd : Unix.file_descr;
  peer : string;
  mutable pending : string; (* bytes of an incomplete trailing frame *)
  write_mutex : Mutex.t;
  inflight : int Atomic.t;
  mutable eof : bool; (* no more reads; close once inflight drains *)
  stdio : bool; (* borrowed fds: never actually closed *)
}

let make_conn ?(stdio = false) ~peer ~in_fd ~out_fd () =
  { in_fd; out_fd; peer; pending = ""; write_mutex = Mutex.create ();
    inflight = Atomic.make 0; eof = false; stdio }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd b !written (n - !written)
  done

(* Worker domains and the loop both write here; EPIPE (client went
   away) just marks the connection for reaping. *)
let write_response conn response =
  let line = Protocol.response_to_line response ^ "\n" in
  Mutex.lock conn.write_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.write_mutex)
    (fun () ->
      try write_all conn.out_fd line
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        conn.eof <- true)

let error_response ?id code message = Protocol.Error { id; code; message }

type t = {
  server : Server.t;
  stop : bool Atomic.t;
  mutable conns : conn list;
  (* shutdown requests are acknowledged only after the drain completes,
     matching the stdio loop's "drained: true" semantics *)
  mutable pending_shutdown : (conn * string) list;
  log : string -> unit;
}

let logf t fmt = Printf.ksprintf t.log fmt

(* ---------- frame handling ---------- *)

let handle_request t conn line =
  let server = t.server in
  match Protocol.request_of_line line with
  | Error e ->
    Server.record_invalid server;
    write_response conn (Protocol.error_response e)
  | Ok request -> (
    let id = request.Protocol.id in
    match request.Protocol.kind with
    | Protocol.Stats -> write_response conn (Server.stats_response server ~id)
    | Protocol.Shutdown ->
      Atomic.set t.stop true;
      t.pending_shutdown <- (conn, id) :: t.pending_shutdown
    | _ ->
      if Atomic.get conn.inflight >= (Server.config server).Server.max_inflight then
        write_response conn
          (error_response ~id Protocol.Overloaded
             (Printf.sprintf "connection already has %d requests in flight"
                (Atomic.get conn.inflight)))
      else begin
        Atomic.incr conn.inflight;
        let on_response response =
          write_response conn response;
          Atomic.decr conn.inflight
        in
        match Server.try_submit ~on_response server request with
        | Some _ticket -> ()
        | None ->
          Atomic.decr conn.inflight;
          write_response conn
            (error_response ~id Protocol.Overloaded "server queue is full")
      end )

let handle_frame t conn line =
  if line = "" then ()
  else if not (String.is_valid_utf_8 line) then
    write_response conn (error_response Protocol.Invalid_utf8 "frame is not valid UTF-8")
  else handle_request t conn line

(* Split complete frames off the accumulated bytes; a partial frame
   over the bound is fatal for the connection. *)
let process_pending t conn =
  let max_frame = (Server.config t.server).Server.max_frame_bytes in
  let continue = ref true in
  while !continue do
    match String.index_opt conn.pending '\n' with
    | Some i ->
      let line = String.sub conn.pending 0 i in
      conn.pending <- String.sub conn.pending (i + 1) (String.length conn.pending - i - 1);
      let line =
        (* tolerate CRLF framing *)
        if String.length line > 0 && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      if String.length line > max_frame then begin
        write_response conn
          (error_response Protocol.Frame_too_large
             (Printf.sprintf "frame of %d bytes exceeds the %d byte bound"
                (String.length line) max_frame));
        conn.pending <- "";
        conn.eof <- true;
        continue := false
      end
      else handle_frame t conn line
    | None ->
      if String.length conn.pending > max_frame then begin
        write_response conn
          (error_response Protocol.Frame_too_large
             (Printf.sprintf "frame exceeds the %d byte bound without a newline" max_frame));
        conn.pending <- "";
        conn.eof <- true
      end;
      continue := false
  done

let read_chunk_size = 65536

let handle_readable t conn =
  let chunk = Bytes.create read_chunk_size in
  match Unix.read conn.in_fd chunk 0 read_chunk_size with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> conn.eof <- true
  | 0 -> conn.eof <- true
  | n ->
    conn.pending <- conn.pending ^ Bytes.sub_string chunk 0 n;
    process_pending t conn

(* ---------- connection lifecycle ---------- *)

let close_conn conn =
  if not conn.stdio then begin
    (try Unix.close conn.in_fd with Unix.Unix_error _ -> ());
    if conn.out_fd != conn.in_fd then
      try Unix.close conn.out_fd with Unix.Unix_error _ -> ()
  end

(* A connection is reaped once it has hit EOF (or a fatal framing
   error) and its last in-flight response has been written. *)
let reap t =
  let dead, live =
    List.partition (fun c -> c.eof && Atomic.get c.inflight = 0) t.conns
  in
  List.iter
    (fun c ->
      logf t "transport: closing %s" c.peer;
      close_conn c)
    dead;
  t.conns <- live

let accept t listener =
  match Unix.accept listener with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | fd, addr ->
    let peer =
      match addr with
      | Unix.ADDR_UNIX _ -> "unix client"
      | Unix.ADDR_INET (host, port) ->
        Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port
    in
    logf t "transport: accepted %s" peer;
    t.conns <- make_conn ~peer ~in_fd:fd ~out_fd:fd () :: t.conns

(* ---------- main loop ---------- *)

let select_timeout_s = 0.25
let sweep_interval_s = 2.0

let open_listener = function
  | Stdio _ -> None
  | Unix_socket path ->
    if Sys.file_exists path then Sys.remove path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 16;
    Some fd
  | Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 16;
    Some fd

let run ?config ?(signals = true) ?(log = fun _ -> ()) listen =
  let server = Server.create ?config () in
  let t =
    { server; stop = Atomic.make false; conns = []; pending_shutdown = []; log }
  in
  if signals then begin
    let handler = Sys.Signal_handle (fun _ -> Atomic.set t.stop true) in
    ignore (Sys.signal Sys.sigterm handler);
    ignore (Sys.signal Sys.sigint handler)
  end;
  (* a client that disconnects mid-response must not kill the process *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  let listener = open_listener listen in
  ( match listen with
  | Stdio (in_fd, out_fd) -> t.conns <- [ make_conn ~stdio:true ~peer:"stdio" ~in_fd ~out_fd () ]
  | Unix_socket path -> logf t "transport: listening on %s" path
  | Tcp port -> logf t "transport: listening on 127.0.0.1:%d" port );
  let last_sweep = ref (Unix.gettimeofday ()) in
  let finished () =
    Atomic.get t.stop
    ||
    (* stdio mode ends at EOF once the last response is out *)
    match listen with
    | Stdio _ -> t.conns = []
    | Unix_socket _ | Tcp _ -> false
  in
  while not (finished ()) do
    let read_fds =
      (match listener with Some fd -> [ fd ] | None -> [])
      @ List.filter_map (fun c -> if c.eof then None else Some c.in_fd) t.conns
    in
    ( match Unix.select read_fds [] [] select_timeout_s with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun fd ->
          if listener = Some fd then accept t fd
          else
            match List.find_opt (fun c -> c.in_fd == fd) t.conns with
            | Some conn -> handle_readable t conn
            | None -> ())
        ready );
    reap t;
    let now = Unix.gettimeofday () in
    if now -. !last_sweep >= sweep_interval_s then begin
      last_sweep := now;
      let idle_timeout_s = (Server.config server).Server.idle_timeout_s in
      match Session.evict_idle (Server.sessions server) ~idle_timeout_s with
      | [] -> ()
      | victims ->
        logf t "transport: evicted idle sessions %s" (String.concat ", " victims)
    end
  done;
  (* graceful drain: stop accepting, finish everything admitted, make
     the store durable, ack pending shutdowns, close everything *)
  logf t "transport: draining";
  (match listener with Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
  Server.drain server;
  List.iter
    (fun (conn, id) -> write_response conn (Server.shutdown_response ~id))
    t.pending_shutdown;
  List.iter close_conn t.conns;
  t.conns <- [];
  ( match listen with
  | Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
  | Tcp _ | Stdio _ -> () );
  logf t "transport: stopped";
  server
