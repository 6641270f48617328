(* Statistical gate sizing with incremental SPSTA.

   A toy optimisation loop in the style the paper's intro gestures at
   ("efficient, incremental, and suitable for optimization"):

   - every gate starts in its slow, low-power variant (delay 1.3);
   - each round, upsize (delay 0.8) the yet-unsized gate most critical to
     the chip-delay distribution;
   - re-analyse *incrementally* (only the resized gate's fanout cone) and
     stop when the clock needed for 99% timing yield meets the target.

   The criticality signal and the yield metric both come from SPSTA's
   chip-delay distribution — statistics SSTA cannot provide.

     dune exec examples/gate_sizing.exe [-- circuit-name] *)

module Circuit = Spsta_netlist.Circuit
module Chip_delay = Spsta_core.Chip_delay
module A = Spsta_core.Analyzer.Moments
module Workloads = Spsta_experiments.Workloads

let slow = 1.3
let fast = 0.8

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "s298" in
  let circuit = Spsta_experiments.Benchmarks.load name in
  Format.printf "circuit: %a@." Circuit.pp_summary circuit;
  let spec = Workloads.spec_fn Workloads.Case_i in
  let sized = Hashtbl.create 64 in
  let delay_rf g = if Hashtbl.mem sized g then (fast, fast) else (slow, slow) in
  let clock_99 () =
    let r = Chip_delay.compute ~delay_rf circuit ~spec in
    Chip_delay.clock_for_yield r 0.99
  in
  let baseline_all_fast =
    let r = Chip_delay.compute ~delay_rf:(fun _ -> (fast, fast)) circuit ~spec in
    Chip_delay.clock_for_yield r 0.99
  in
  let start = clock_99 () in
  (* aim 30% of the way from all-slow to all-fast *)
  let target = start -. (0.3 *. (start -. baseline_all_fast)) in
  Printf.printf
    "99%%-yield clock: all-slow %.3f, all-fast %.3f, target %.3f\n" start baseline_all_fast target;
  (* the analysis result is maintained incrementally across resizings *)
  let analysis = ref (A.analyze ~delay_rf circuit ~spec) in
  let resized = ref 0 in
  let rec optimise current =
    if current <= target then ()
    else begin
      (* criticality: endpoint with the largest mean rise arrival, then
         the deepest unsized gate on its input cone *)
      let e = A.critical_endpoint !analysis `Rise in
      let rec pick g =
        if not (Hashtbl.mem sized g) then Some g
        else
          match Circuit.driver circuit g with
          | Circuit.Gate { inputs; _ } ->
            let candidates = Array.to_list inputs in
            let best =
              List.fold_left
                (fun acc i ->
                  match Circuit.driver circuit i with
                  | Circuit.Gate _ -> (
                    match acc with
                    | Some b when Circuit.level circuit b >= Circuit.level circuit i -> acc
                    | Some _ | None -> Some i )
                  | Circuit.Input | Circuit.Dff_output _ -> acc)
                None candidates
            in
            ( match best with None -> None | Some i -> pick i )
          | Circuit.Input | Circuit.Dff_output _ -> None
      in
      match pick e with
      | None -> Printf.printf "no more gates to resize on the critical cone\n"
      | Some g ->
        Hashtbl.replace sized g ();
        incr resized;
        (* incremental: only g's fanout cone is recomputed *)
        analysis := A.update ~delay_rf !analysis ~changed:[ g ] ~spec;
        let now = clock_99 () in
        Printf.printf "  upsized %-10s -> 99%% clock %.3f\n" (Circuit.net_name circuit g) now;
        optimise now
    end
  in
  optimise start;
  Printf.printf "met target with %d of %d gates upsized (%.0f%%)\n" !resized
    (Circuit.gate_count circuit)
    (100.0 *. float_of_int !resized /. float_of_int (Circuit.gate_count circuit))
