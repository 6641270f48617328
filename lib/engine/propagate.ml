module Circuit = Spsta_netlist.Circuit
module Parallel = Spsta_util.Parallel

module Sanitize = struct
  type 'state check = Circuit.t -> Circuit.id -> 'state -> (string * string) option

  exception
    Violation of {
      circuit : string;
      net : string;
      driver : string;
      level : int;
      rule : string;
      message : string;
    }

  let () =
    Printexc.register_printer (function
      | Violation { circuit; net; driver; level; rule; message } ->
        Some
          (Printf.sprintf "sanitizer violation [%s] at net %S (%s, level %d) in circuit %S: %s"
             rule net driver level circuit message)
      | _ -> None)

  let driver_label circuit id =
    match Circuit.driver circuit id with
    | Circuit.Input -> "input"
    | Circuit.Dff_output _ -> "dff"
    | Circuit.Gate { kind; _ } -> Spsta_logic.Gate_kind.to_string kind

  let enabled_by_env () =
    match Sys.getenv_opt "SPSTA_CHECK" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> false

  let resolve = function Some enabled -> enabled | None -> enabled_by_env ()

  let fail ~circuit id ~rule ~message =
    raise
      (Violation
         { circuit = Circuit.name circuit;
           net = Circuit.net_name circuit id;
           driver = driver_label circuit id;
           level = Circuit.level circuit id;
           rule;
           message })
end

(* Mark the union of fanout cones of the changed nets — through
   combinational edges only.  A flip-flop's Q net is a *source* of
   the levelized timing graph: its seed does not read the D arrival,
   so crossing the D -> Q structural edge would re-derive bit-identical
   values while flooding the dirty set through every register (on the
   sequential ISCAS circuits a critical gate's structural cone is the
   whole netlist; its combinational cone is a few percent).  Callers
   whose *seed* changed — a Q net after a sequential iteration, a
   source with new input statistics — name that net in [changed] and it
   is marked as a root here. *)
let dirty_cone circuit ~changed =
  let n = Circuit.num_nets circuit in
  (* a byte per net, not a word: initialising the mark store is part of
     every update's fixed cost, and at 100k+ nets the word-array
     [Array.make n false] was the single largest term for small cones *)
  let dirty = Bytes.make n '\000' in
  (* collect the dirty *gates* while marking: re-evaluation then costs
     O(cone log cone), not the O(circuit) floor of scanning every gate
     in topo order for its dirty bit — at a million gates that scan
     ate the entire incremental win *)
  let cone = ref [] in
  let rec mark id =
    if Bytes.get dirty id = '\000' then begin
      Bytes.set dirty id '\001';
      (match Circuit.driver circuit id with
      | Circuit.Gate _ -> cone := id :: !cone
      | Circuit.Input | Circuit.Dff_output _ -> ());
      Array.iter
        (fun out ->
          match Circuit.driver circuit out with
          | Circuit.Dff_output _ -> ()
          | Circuit.Gate _ | Circuit.Input -> mark out)
        (Circuit.fanout circuit id)
    end
  in
  List.iter mark changed;
  let cone = Array.of_list !cone in
  (* sequential evaluation order, restricted to the cone: sorting on
     the topo position replays exactly the full sweep's order *)
  Array.sort
    (fun a b -> compare (Circuit.topo_position circuit a) (Circuit.topo_position circuit b))
    cone;
  cone

(* ------------------------------------------------------------------ *)
(* The scheduler: sequential sweep, levelized-parallel sweep (persistent
   pool, chunk claiming, narrow-level fusion) and dirty-cone update,
   over CSR gate-index ranges. *)

module type KERNEL = sig
  type t
  type scratch

  val circuit : t -> Circuit.t
  val scratch : t -> scratch
  val seed : t -> scratch -> Circuit.id -> unit
  val eval : t -> scratch -> int -> unit
end

module Sweep (K : KERNEL) = struct
  (* Narrow levels aren't worth a barrier; the cutoff only affects
     scheduling, never values. *)
  let wide_cutoff domains = max 16 (2 * domains)

  let seq_range t scratch glo ghi =
    for k = glo to ghi - 1 do
      K.eval t scratch k
    done

  (* One wide level across the persistent domain pool: the level is cut
     into chunks (several per domain, each a contiguous gate range of at
     least ~8 gates) claimed through an atomic work index, so uneven
     per-gate costs load-balance while the chunk decomposition — hence
     the result — stays a pure function of (width, domains). *)
  let par_range ~domains t glo ghi =
    let width = ghi - glo in
    let chunks = min width (max domains (min (4 * domains) (width / 8))) in
    let bounds = Parallel.ranges ~chunks width in
    Parallel.run_chunks ~domains ~chunks:(Array.length bounds) (fun c ->
        (* per-chunk scratch: chunks of one level run concurrently *)
        let scratch = K.scratch t in
        let lo, hi = bounds.(c) in
        seq_range t scratch (glo + lo) (glo + hi))

  let sweep ~domains t =
    let csr = Circuit.csr (K.circuit t) in
    let level_off = csr.Circuit.level_off in
    let nlev = Array.length level_off - 1 in
    let scratch = K.scratch t in
    if domains = 1 then seq_range t scratch 0 (Array.length csr.Circuit.gate_net)
    else begin
      (* runs of adjacent narrow levels are fused into one sequential
         batch on the calling domain; levels are contiguous CSR ranges,
         so a fused run is just a longer range *)
      let cutoff = wide_cutoff domains in
      let l = ref 0 in
      while !l < nlev do
        let glo = level_off.(!l) in
        if level_off.(!l + 1) - glo >= cutoff then begin
          par_range ~domains t glo level_off.(!l + 1);
          incr l
        end
        else begin
          incr l;
          while !l < nlev && level_off.(!l + 1) - level_off.(!l) < cutoff do
            incr l
          done;
          seq_range t scratch glo level_off.(!l)
        end
      done
    end

  let run ?domains t =
    let domains = match domains with Some d -> Parallel.check_domains d | None -> 1 in
    let circuit = K.circuit t in
    (match Circuit.sources circuit with
    | [] ->
      (* acyclicity forces every non-empty circuit to have a minimal
         net, and minimal nets are sources *)
      if Circuit.num_nets circuit > 0 then
        invalid_arg "Propagate.run: circuit has nets but no sources"
    | sources ->
      let scratch = K.scratch t in
      List.iter (K.seed t scratch) sources);
    sweep ~domains t

  let update t ~changed =
    let circuit = K.circuit t in
    let cone = dirty_cone circuit ~changed in
    let scratch = K.scratch t in
    (* refresh changed sources (their seed is what changed); marking
       never reaches a source — fanout targets are always gates or
       register D pins — so the changed roots are the only candidates *)
    List.iter
      (fun id ->
        match Circuit.driver circuit id with
        | Circuit.Input | Circuit.Dff_output _ -> K.seed t scratch id
        | Circuit.Gate _ -> ())
      changed;
    Array.iter (fun id -> K.eval t scratch (Circuit.topo_position circuit id)) cone
end

(* ------------------------------------------------------------------ *)
(* The record engine: one boxed state per net, as a kernel whose
   per-worker scratch is the gate step itself, closed over that
   worker's operand buffers. *)

type 'state result = { circuit : Circuit.t; per_net : 'state array }

module Record = struct
  type t = { circuit : Circuit.t; seed : Circuit.id -> unit; worker : unit -> int -> unit }
  type scratch = int -> unit

  let circuit t = t.circuit
  let scratch t = t.worker ()
  let seed t _ id = t.seed id
  let eval _ step k = step k
end

module R = Sweep (Record)

let kernel ?check circuit per_net ~source ~eval =
  let store id state =
    (match check with
    | None -> ()
    | Some check -> (
      match check circuit id state with
      | None -> ()
      | Some (rule, message) -> Sanitize.fail ~circuit id ~rule ~message));
    per_net.(id) <- state
  in
  let csr = Circuit.csr circuit in
  let worker () =
    (* operand buffers, one per fan-in arity, reused across this
       worker's gates instead of a fresh array per gate *)
    let bufs = Array.make (csr.Circuit.max_fanin + 1) [||] in
    fun k ->
      let g = csr.Circuit.gate_net.(k) in
      match Circuit.driver circuit g with
      | Circuit.Gate { inputs; _ } as driver ->
        let n = Array.length inputs in
        (* finalize rejects zero-arity gates, so [inputs.(0)] exists *)
        if Array.length bufs.(n) <> n then bufs.(n) <- Array.make n per_net.(inputs.(0));
        let ops = bufs.(n) in
        for j = 0 to n - 1 do
          ops.(j) <- per_net.(inputs.(j))
        done;
        store g (eval circuit g driver ops)
      | Circuit.Input | Circuit.Dff_output _ -> assert false
  in
  { Record.circuit; seed = (fun id -> store id (source id)); worker }

let run ?check ?domains circuit ~source ~eval =
  let per_net =
    match Circuit.sources circuit with
    | [] -> [||] (* {!Sweep.run} rejects nets without sources *)
    | s0 :: _ ->
      (* the fill value is arbitrary: every net is either a source
         (seeded) or a gate (written before it is ever read) *)
      Array.make (Circuit.num_nets circuit) (source s0)
  in
  R.run ?domains (kernel ?check circuit per_net ~source ~eval);
  { circuit; per_net }

let update ?check r ~source ~eval ~changed =
  R.update (kernel ?check r.circuit r.per_net ~source ~eval) ~changed
