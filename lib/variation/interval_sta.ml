module Circuit = Spsta_netlist.Circuit
module Propagate = Spsta_engine.Propagate

(* Each net carries its affine enclosure plus the plain-interval
   ("naive") enclosure propagated alongside for comparison. *)
type state = { affine : Affine.t; naive : float * float }

type result = state Propagate.result

(* Deterministic noise-symbol allocation: net [id] owns the id range
   [base.(id), base.(id) + capacity id), where the capacity covers every
   symbol its evaluation can mint (one for a source's arrival window;
   one for a gate's delay plus up to fanin - 1 Chebyshev symbols from
   the join_max fold).  Each evaluation draws from a private context
   seeded at its own base, so symbol ids depend only on the net — never
   on the traversal schedule — which keeps the parallel sweep race-free
   and bit-identical to the sequential one. *)
let symbol_bases circuit =
  let n = Circuit.num_nets circuit in
  let base = Array.make n 0 in
  let next = ref 0 in
  for id = 0 to n - 1 do
    base.(id) <- !next;
    let capacity =
      match Circuit.driver circuit id with
      | Circuit.Input | Circuit.Dff_output _ -> 1
      | Circuit.Gate { inputs; _ } -> Array.length inputs
    in
    next := !next + capacity
  done;
  base

(* Sanitizer checker: both enclosures must stay finite ordered
   intervals, and they must overlap — each is guaranteed to contain the
   true arrival, so an empty intersection means one of them is wrong. *)
let state_check : state Propagate.Sanitize.check =
 fun _circuit _id s ->
  let open Spsta_engine.Invariant in
  let alo, ahi = Affine.interval s.affine in
  let nlo, nhi = s.naive in
  match
    first
      (check_interval ~what:"affine enclosure" (alo, ahi)
      @ check_interval ~what:"naive enclosure" (nlo, nhi))
  with
  | Some _ as violation -> violation
  | None ->
    if Float.max alo nlo > Float.min ahi nhi +. prob_tolerance then
      Some
        ( "inverted-interval",
          Printf.sprintf
            "affine enclosure [%.17g, %.17g] and naive enclosure [%.17g, %.17g] do not \
             intersect"
            alo ahi nlo nhi )
    else None

let gate_delay = Spsta_netlist.Cell_library.unit_gate_delay

let analyze ?(delay_radius = 0.0) ?(input_radius = 3.0) ?check ?domains
    circuit =
  if delay_radius < 0.0 || input_radius < 0.0 then
    invalid_arg "Interval_sta.analyze: negative radius";
  let base = symbol_bases circuit in
  let source s =
    let ctx = Affine.create_context ~first:base.(s) () in
    { affine = Affine.make ctx ~center:0.0 ~radius:input_radius;
      naive = (-.input_radius, input_radius) }
  in
  let eval _circuit g driver operands =
    match driver with
    | Circuit.Gate _ ->
      let ctx = Affine.create_context ~first:base.(g) () in
      let affines = List.map (fun s -> s.affine) (Array.to_list operands) in
      let delay = Affine.make ctx ~center:gate_delay ~radius:delay_radius in
      let affine = Affine.add (Affine.join_max_many ctx affines) delay in
      let lo = Array.fold_left (fun acc s -> Float.max acc (fst s.naive)) neg_infinity operands in
      let hi = Array.fold_left (fun acc s -> Float.max acc (snd s.naive)) neg_infinity operands in
      { affine; naive = (lo +. gate_delay -. delay_radius, hi +. gate_delay +. delay_radius) }
    | Circuit.Input | Circuit.Dff_output _ -> assert false
  in
  let check = if Propagate.Sanitize.resolve check then Some state_check else None in
  Propagate.run ?check ?domains circuit ~source ~eval

let arrival (r : result) id = r.Propagate.per_net.(id).affine

(* intersect the affine enclosure with the naive one: both are
   guaranteed, so their intersection is too and is never wider *)
let arrival_interval (r : result) id =
  let alo, ahi = Affine.interval r.per_net.(id).affine in
  let nlo, nhi = r.per_net.(id).naive in
  (Float.max alo nlo, Float.min ahi nhi)

let endpoints_exn (r : result) =
  match Circuit.endpoints r.circuit with
  | [] -> invalid_arg "Interval_sta: circuit has no endpoints"
  | endpoints -> endpoints

let chip_interval r =
  let endpoints = endpoints_exn r in
  (* interval of the max: combine endpoint enclosures conservatively *)
  List.fold_left
    (fun (lo, hi) e ->
      let elo, ehi = arrival_interval r e in
      (Float.max lo elo, Float.max hi ehi))
    (neg_infinity, neg_infinity) endpoints

let naive_chip_interval (r : result) =
  List.fold_left
    (fun (lo, hi) e ->
      let elo, ehi = r.per_net.(e).naive in
      (Float.max lo elo, Float.max hi ehi))
    (neg_infinity, neg_infinity) (endpoints_exn r)
