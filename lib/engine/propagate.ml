module Circuit = Spsta_netlist.Circuit
module Parallel = Spsta_util.Parallel

type 'state result = { circuit : Circuit.t; per_net : 'state array }

module type DOMAIN = sig
  type state

  val source : Circuit.id -> state
  val eval : Circuit.t -> Circuit.id -> Circuit.driver -> state array -> state
end

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

  let checked circuit check id state =
    match check circuit id state with
    | None -> state
    | Some (rule, message) -> fail ~circuit id ~rule ~message

  let wrap (type s) ~circuit ~(check : s check) (module D : DOMAIN with type state = s) :
      (module DOMAIN with type state = s) =
    (module struct
      type state = s

      let source id = checked circuit check id (D.source id)
      let eval c id driver operands = checked circuit check id (D.eval c id driver operands)
    end)
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
   is marked as a root here.

   Shared by the record engine's {!Make.update} and the flat kernels in
   {!Flat}: one marking pass, one set of register-boundary semantics. *)
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

module Make (D : DOMAIN) = struct
  (* Reusable operand buffers, one per fan-in arity, replacing the
     fresh [Array.map] allocation [step] used to pay per gate: on a
     million-gate sweep those throwaway arrays were a measurable slice
     of the minor-heap churn that serializes parallel domains on GC.
     One scratch per worker — never shared across domains. *)
  type scratch = D.state array array ref

  let scratch_create () : scratch = ref [||]

  let operand_buf (scratch : scratch) n init =
    let tbl =
      if Array.length !scratch <= n then begin
        let t = Array.make (n + 1) [||] in
        Array.blit !scratch 0 t 0 (Array.length !scratch);
        scratch := t;
        t
      end
      else !scratch
    in
    if Array.length tbl.(n) <> n then tbl.(n) <- Array.make n init;
    tbl.(n)

  (* One gate of the propagation, reading operands from [per_net] and
     writing its own slot.  Gates within one level never read each
     other, so a whole level can run this step concurrently; [D.eval]
     is pure and must not retain the operand buffer, which makes the
     parallel schedule bit-identical to the sequential one. *)
  let step circuit per_net scratch g =
    match Circuit.driver circuit g with
    | Circuit.Gate { inputs; _ } as driver ->
      let n = Array.length inputs in
      (* finalize rejects zero-arity gates, so [inputs.(0)] exists *)
      let ops = operand_buf scratch n per_net.(inputs.(0)) in
      for j = 0 to n - 1 do
        ops.(j) <- per_net.(inputs.(j))
      done;
      per_net.(g) <- D.eval circuit g driver ops
    | Circuit.Input | Circuit.Dff_output _ -> assert false

  (* Narrow levels aren't worth a barrier; the cutoff only affects
     scheduling, never values. *)
  let wide_cutoff domains = max 16 (2 * domains)

  (* One wide level across the persistent domain pool: the level is cut
     into chunks (several per domain, each a contiguous gate range of at
     least ~8 gates) claimed through an atomic work index, so uneven
     per-gate costs load-balance while the chunk decomposition — hence
     the result — stays a pure function of (width, domains). *)
  let par_level ~domains circuit per_net gates =
    let width = Array.length gates in
    let chunks = min width (max domains (min (4 * domains) (width / 8))) in
    let bounds = Parallel.ranges ~chunks width in
    Parallel.run_chunks ~domains ~chunks:(Array.length bounds) (fun k ->
        (* per-chunk scratch: chunks of one level run concurrently *)
        let scratch = scratch_create () in
        let lo, hi = bounds.(k) in
        for i = lo to hi - 1 do
          step circuit per_net scratch gates.(i)
        done)

  (* runs of adjacent narrow levels are fused into one sequential batch
     on the calling domain — zero scheduler interaction — so only the
     genuinely wide levels pay a barrier *)
  let sweep_levels ~domains circuit per_net =
    let by_level = Circuit.gates_by_level circuit in
    let cutoff = wide_cutoff domains in
    let scratch = scratch_create () in
    let nlev = Array.length by_level in
    let i = ref 0 in
    while !i < nlev do
      let gates = by_level.(!i) in
      if Array.length gates >= cutoff then begin
        par_level ~domains circuit per_net gates;
        incr i
      end
      else begin
        Array.iter (step circuit per_net scratch) gates;
        incr i;
        while !i < nlev && Array.length by_level.(!i) < cutoff do
          Array.iter (step circuit per_net scratch) by_level.(!i);
          incr i
        done
      end
    done

  let run ?domains circuit =
    let domains =
      match domains with Some d -> Parallel.check_domains d | None -> 1
    in
    let n = Circuit.num_nets circuit in
    match Circuit.sources circuit with
    | [] ->
      (* acyclicity forces every non-empty circuit to have a minimal
         net, and minimal nets are sources *)
      if n > 0 then invalid_arg "Propagate.run: circuit has nets but no sources";
      { circuit; per_net = [||] }
    | s0 :: _ as sources ->
      (* the fill value is arbitrary: every net is either a source
         (seeded below) or a gate (written before it is ever read) *)
      let per_net = Array.make n (D.source s0) in
      List.iter (fun s -> per_net.(s) <- D.source s) sources;
      if domains = 1 then begin
        let scratch = scratch_create () in
        Array.iter (step circuit per_net scratch) (Circuit.topo_gates circuit)
      end
      else sweep_levels ~domains circuit per_net;
      { circuit; per_net }

  let update r ~changed =
    let circuit = r.circuit in
    let cone = dirty_cone circuit ~changed in
    let per_net = r.per_net in
    (* refresh changed sources (their seed is what changed); marking
       itself never reaches a source — fanout targets are always gates
       or register D pins — so the changed roots are the only
       candidates *)
    List.iter
      (fun id ->
        match Circuit.driver circuit id with
        | Circuit.Input | Circuit.Dff_output _ -> per_net.(id) <- D.source id
        | Circuit.Gate _ -> ())
      changed;
    let scratch = scratch_create () in
    Array.iter (step circuit per_net scratch) cone
end
