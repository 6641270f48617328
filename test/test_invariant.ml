(* Sanitizer predicates ({!Spsta_engine.Invariant}): unit coverage of each
   checker plus QCheck properties showing the Discrete grid operations
   the SPSTA backend performs — scale, add, convolve, max/min — conserve
   mass within the tracked truncation bound, i.e. exactly the invariant
   the engine-wired sanitizer enforces per gate. *)

module Invariant = Spsta_engine.Invariant
module Discrete = Spsta_dist.Discrete
module Normal = Spsta_dist.Normal

let rules issues = List.map (fun i -> i.Invariant.rule) issues

(* ---------- unit checks ---------- *)

let test_finite () =
  Alcotest.(check bool) "1.0" true (Invariant.finite 1.0);
  Alcotest.(check bool) "nan" false (Invariant.finite Float.nan);
  Alcotest.(check bool) "inf" false (Invariant.finite Float.infinity)

let test_check_finite () =
  Alcotest.(check (list string)) "healthy" [] (rules (Invariant.check_finite ~what:"x" 0.5));
  Alcotest.(check (list string)) "nan" [ "non-finite" ]
    (rules (Invariant.check_finite ~what:"x" Float.nan))

let test_check_nonnegative () =
  Alcotest.(check (list string)) "healthy" [] (rules (Invariant.check_nonnegative ~what:"m" 0.0));
  Alcotest.(check (list string)) "negative" [ "negative-mass" ]
    (rules (Invariant.check_nonnegative ~what:"m" (-0.1)))

let test_check_prob () =
  Alcotest.(check (list string)) "healthy" [] (rules (Invariant.check_prob ~what:"p" 1.0));
  Alcotest.(check (list string)) "above one" [ "probability-range" ]
    (rules (Invariant.check_prob ~what:"p" 1.1));
  (* within tolerance of the boundary is healthy *)
  Alcotest.(check (list string)) "tolerated overshoot" []
    (rules (Invariant.check_prob ~what:"p" (1.0 +. (Invariant.prob_tolerance /. 2.0))))

let test_check_prob_sum () =
  Alcotest.(check (list string)) "sums to one" []
    (rules (Invariant.check_prob_sum ~what:"v" [ ("a", 0.25); ("b", 0.75) ]));
  Alcotest.(check (list string)) "short sum" [ "probability-sum" ]
    (rules (Invariant.check_prob_sum ~what:"v" [ ("a", 0.25); ("b", 0.5) ]))

let test_check_normal () =
  Alcotest.(check (list string)) "healthy" []
    (rules (Invariant.check_normal ~what:"a" Normal.standard));
  Alcotest.(check (list string)) "nan mean" [ "non-finite" ]
    (rules (Invariant.check_normal ~what:"a" { Normal.mu = Float.nan; sigma = 1.0 }));
  Alcotest.(check (list string)) "negative sigma" [ "negative-sigma" ]
    (rules (Invariant.check_normal ~what:"a" { Normal.mu = 0.0; sigma = -1.0 }))

let test_check_interval () =
  Alcotest.(check (list string)) "ordered" []
    (rules (Invariant.check_interval ~what:"w" (0.0, 1.0)));
  Alcotest.(check (list string)) "inverted" [ "inverted-interval" ]
    (rules (Invariant.check_interval ~what:"w" (1.0, 0.0)))

let test_check_cdf () =
  Alcotest.(check (list string)) "monotone" []
    (rules (Invariant.check_cdf ~what:"F" [| 0.0; 0.4; 1.0 |]));
  Alcotest.(check bool) "non-monotone flagged" true
    (List.mem "non-monotone-cdf" (rules (Invariant.check_cdf ~what:"F" [| 0.0; 0.5; 0.4 |])))

let test_mass_conserved () =
  Alcotest.(check bool) "exact" true
    (Invariant.mass_conserved ~expected:1.0 ~total:1.0 ~dropped:0.0 ());
  Alcotest.(check bool) "within dropped" true
    (Invariant.mass_conserved ~expected:1.0 ~total:0.99 ~dropped:0.02 ());
  Alcotest.(check bool) "lost more than dropped" false
    (Invariant.mass_conserved ~expected:1.0 ~total:0.9 ~dropped:1e-6 ());
  Alcotest.(check bool) "mass appeared" false
    (Invariant.mass_conserved ~expected:1.0 ~total:1.1 ~dropped:0.0 ());
  Alcotest.(check (list string)) "issue rule" [ "mass-conservation" ]
    (rules (Invariant.check_mass_conservation ~what:"t.o.p." ~expected:1.0 ~total:0.5 ~dropped:0.0))

(* ---------- QCheck: Discrete operations vs the sanitizer invariant ---------- *)

(* a random sub-probability mass function on a random grid *)
let dist_arb =
  QCheck.map
    (fun (mu, sigma, mass, dt) -> Discrete.of_normal ~dt ~mass (Normal.make ~mu ~sigma))
    QCheck.(
      quad (float_range (-2.0) 2.0) (float_range 0.1 1.5) (float_range 0.05 1.0)
        (float_range 0.02 0.3))

let healthy what d = Invariant.check_discrete ~what d = []

let conserves what ~expected d =
  healthy what d
  && Invariant.mass_conserved ~expected ~total:(Discrete.total d)
       ~dropped:(Discrete.dropped_mass d) ()

let prop_of_normal_healthy =
  QCheck.Test.make ~name:"of_normal is a healthy sub-probability" ~count:200 dist_arb
    (fun d -> conserves "of_normal" ~expected:(Discrete.total d) d)

let prop_scale_conserves =
  QCheck.Test.make ~name:"scale conserves mass" ~count:200
    QCheck.(pair dist_arb (float_range 0.0 1.0))
    (fun (d, w) ->
      let s = Discrete.scale d w in
      conserves "scale" ~expected:(w *. Discrete.total d) s)

let prop_truncate_tracks_dropped =
  QCheck.Test.make ~name:"truncate moves mass into the dropped bound" ~count:200
    QCheck.(pair dist_arb (float_range 1e-9 1e-3))
    (fun (d, eps) ->
      let t = Discrete.truncate ~eps d in
      conserves "truncate" ~expected:(Discrete.total d) t)

let prop_detects_corruption =
  (* Discrete's constructors refuse negative masses outright, so the
     reachable corruption is mass appearing from nowhere: a WEIGHTED SUM
     whose weights sum above 1 — exactly the bug class the sanitizer's
     total <= 1 check exists for *)
  QCheck.Test.make ~name:"check_discrete flags super-unit mass" ~count:100
    (QCheck.map
       (fun (mu, sigma, mass) ->
         Discrete.of_normal ~dt:0.1 ~mass (Normal.make ~mu ~sigma))
       QCheck.(triple (float_range (-2.0) 2.0) (float_range 0.1 1.5) (float_range 0.7 1.0)))
    (fun d ->
      let corrupted = Discrete.add d d in
      List.exists
        (fun (i : Invariant.issue) -> i.Invariant.rule = "probability-range")
        (Invariant.check_discrete ~what:"corrupted" corrupted)
      || Invariant.check_discrete ~what:"corrupted" corrupted <> [])

(* pairwise operations require a shared grid, so the binary properties
   pin dt instead of drawing it *)
let pinned_dt = 0.1

let pinned_arb =
  QCheck.map
    (fun (mu, sigma, mass) -> Discrete.of_normal ~dt:pinned_dt ~mass (Normal.make ~mu ~sigma))
    QCheck.(triple (float_range (-2.0) 2.0) (float_range 0.1 1.5) (float_range 0.05 1.0))

let prop_add_conserves_pinned =
  QCheck.Test.make ~name:"add conserves mass (shared grid)" ~count:200
    QCheck.(triple pinned_arb pinned_arb (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (a, b, (wa, u)) ->
      (* convex weights, as in the analyzer's WEIGHTED SUM: wa + wb <= 1 *)
      let wb = (1.0 -. wa) *. u in
      let s = Discrete.add (Discrete.scale a wa) (Discrete.scale b wb) in
      conserves "add" ~expected:((wa *. Discrete.total a) +. (wb *. Discrete.total b)) s)

let prop_max_min_conserve_pinned =
  QCheck.Test.make ~name:"max/min return unit mass (shared grid)" ~count:200
    QCheck.(pair pinned_arb pinned_arb)
    (fun (a, b) ->
      (* max/min normalize their operands: the result is a unit-mass
         distribution whose dropped bound carries the relative truncation *)
      let mx = Discrete.max_independent a b and mn = Discrete.min_independent a b in
      conserves "max" ~expected:1.0 mx && conserves "min" ~expected:1.0 mn)

let prop_convolve_conserves =
  QCheck.Test.make ~name:"convolve conserves product mass (SUM)" ~count:200
    QCheck.(pair pinned_arb pinned_arb)
    (fun (a, b) ->
      let s = Discrete.convolve a b in
      (* convolution touches every bin pair; allow the slightly larger
         float slack that entails *)
      healthy "convolve" s
      && Invariant.mass_conserved ~tol:1e-5
           ~expected:(Discrete.total a *. Discrete.total b)
           ~total:(Discrete.total s) ~dropped:(Discrete.dropped_mass s) ())

let suite =
  [
    Alcotest.test_case "finite" `Quick test_finite;
    Alcotest.test_case "check_finite" `Quick test_check_finite;
    Alcotest.test_case "check_nonnegative" `Quick test_check_nonnegative;
    Alcotest.test_case "check_prob" `Quick test_check_prob;
    Alcotest.test_case "check_prob_sum" `Quick test_check_prob_sum;
    Alcotest.test_case "check_normal" `Quick test_check_normal;
    Alcotest.test_case "check_interval" `Quick test_check_interval;
    Alcotest.test_case "check_cdf" `Quick test_check_cdf;
    Alcotest.test_case "mass_conserved" `Quick test_mass_conserved;
    QCheck_alcotest.to_alcotest prop_of_normal_healthy;
    QCheck_alcotest.to_alcotest prop_scale_conserves;
    QCheck_alcotest.to_alcotest prop_truncate_tracks_dropped;
    QCheck_alcotest.to_alcotest prop_detects_corruption;
    QCheck_alcotest.to_alcotest prop_add_conserves_pinned;
    QCheck_alcotest.to_alcotest prop_max_min_conserve_pinned;
    QCheck_alcotest.to_alcotest prop_convolve_conserves;
  ]
