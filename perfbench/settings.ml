(* Sizes and knobs of every workload, full and smoke. *)

let run_seconds = 30

(* Runtime files (designs, the server socket, traces) live here, under
   the checkout, and are git-ignored.  The socket path is relative on
   purpose: Unix socket paths are limited to ~100 bytes. *)
let work_dir = "perfbench/_work"

type size = Full | Smoke

(* Each workload draws its designs from its own seed, so the signoff and
   session designs differ even under one [--seed]. *)
let design_seed ~workload seed = Hashtbl.hash (workload, seed) land 0x3fffffff

let signoff_shape = function
  | Full -> { Gen.name = "signoff"; width = 2500; depth = 40; reach = 3 }
  | Smoke -> { Gen.name = "signoff"; width = 120; depth = 12; reach = 3 }

let eco_shape = function
  | Full -> { Gen.name = "eco"; width = 2500; depth = 40; reach = 3 }
  | Smoke -> { Gen.name = "eco"; width = 120; depth = 12; reach = 3 }

(* A dozen designs from ~1k to ~20k gates, log-spaced, depths 12..32. *)
let mix_shapes = function
  | Full ->
    List.init 12 (fun i ->
        let gates = 1000.0 *. (20.0 ** (float_of_int i /. 11.0)) in
        let depth = 12 + (i * 7 mod 21) in
        { Gen.name = Printf.sprintf "mix%02d" i;
          width = max 8 (int_of_float (gates /. float_of_int depth));
          depth; reach = 2 + (i mod 2) })
  | Smoke ->
    List.init 4 (fun i ->
        { Gen.name = Printf.sprintf "mix%02d" i; width = 24 + (8 * i); depth = 8 + i; reach = 2 })

(* [size] requests go to these fixed designs, three of the mix shapes
   written from one constant seed, not to the seeded mix designs.  On
   some designs rounding in [Signal_prob] pushes a probability just past
   1 and the sizer's transition-density step raises, failing every
   [size] request on the design; a seeded design could hit that on some
   [--seed].  These designs size cleanly, which the self-test checks, so
   which requests are sent never depends on the code under test. *)
let sizing_seed = 1008

let sizing_shapes size =
  List.filteri (fun i _ -> i mod 2 = 1 && i < 6) (mix_shapes size)
  |> List.map (fun (s : Gen.shape) -> { s with Gen.name = "size-" ^ s.Gen.name })

(* The accuracy designs are fixed: accuracy_err must not depend on the
   seed, and every workload reports the same value. *)
let accuracy_seed = 2008

let accuracy_shapes =
  [ { Gen.name = "acc-a"; width = 24; depth = 10; reach = 2 };
    { Gen.name = "acc-b"; width = 32; depth = 16; reach = 3 };
    { Gen.name = "acc-c"; width = 40; depth = 20; reach = 3 } ]

let accuracy_mc_runs = 10_000

(* Set-ups per run; setup_s is their median. *)
let setup_trials ~workload size =
  match (size, workload) with
  | Smoke, _ -> 2
  | Full, "serve-mix" -> 9
  | Full, _ -> 3

let eco_workers = 1
let mix_workers = 2

(* Work counters are summed over this many leading ops of the traced run,
   which every run completes, so they repeat exactly for a seed. *)
let counter_prefix ~workload size =
  match (size, workload) with
  | Smoke, "signoff" -> 2
  | Smoke, _ -> 16
  | Full, "signoff" -> 2
  | Full, "eco-session" -> 128
  | Full, _ -> 48

(* A traced server run first replays the stream in-process for the first
   share of [--seconds], then drives the real server over the socket for
   the second (for transport.overhead_ms and the server's own counters).
   The serve-mix socket phase is as long as an untraced run, so the memo
   fills past its capacity as it does there. *)
let traced_shares ~workload =
  match workload with "serve-mix" -> (0.5, 1.0) | _ -> (2.0 /. 3.0, 1.0 /. 3.0)
