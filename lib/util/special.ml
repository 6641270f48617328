(* erfc via the rational Chebyshev fit of Numerical Recipes (erfcc); its
   ~1e-7 relative accuracy is ample for moment-matching formulas. *)
(* The Horner chain is written out by hand rather than folded over a
   coefficient array: this sits inside every Clark MAX/MIN of the SSTA
   sweeps, and a polymorphic fold over a float array boxes each
   coefficient (tens of millions of minor-heap words per million-gate
   sweep).  The nesting order matches the former
   [Array.fold_right (fun c acc -> c +. t *. acc) coeffs 0.0] exactly,
   so results are bit-identical.  Inlined into [normal_cdf], which would
   otherwise box the argument and result of this call per Clark step. *)
let[@inline] erfc x =
  let z = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.5 *. z)) in
  let poly =
    -1.26551223
    +. t
       *. (1.00002368
          +. t
             *. (0.37409196
                +. t
                   *. (0.09678418
                      +. t
                         *. (-0.18628806
                            +. t
                               *. (0.27886807
                                  +. t
                                     *. (-1.13520398
                                        +. t
                                           *. (1.48851587
                                              +. t *. (-0.82215223 +. (t *. 0.17087277)))))))))
  in
  let ans = t *. exp ((-.z *. z) +. poly) in
  if x >= 0.0 then ans else 2.0 -. ans

let erf x = 1.0 -. erfc x

let inv_sqrt_2pi = 1.0 /. sqrt (2.0 *. Float.pi)

let normal_pdf x = inv_sqrt_2pi *. exp (-0.5 *. x *. x)

let sqrt_2 = sqrt 2.0

let normal_cdf x = 0.5 *. erfc (-.x /. sqrt_2)

(* Acklam's inverse-normal rational approximation with one Halley step,
   giving near machine-precision quantiles across (0,1). *)
let normal_quantile p =
  if not (p > 0.0 && p < 1.0) then
    invalid_arg "Special.normal_quantile: p outside (0,1)";
  let ratio num den q =
    let top = Array.fold_left (fun acc c -> (acc *. q) +. c) 0.0 num in
    let bot = Array.fold_left (fun acc c -> (acc *. q) +. c) 0.0 den in
    top /. bot
  in
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01; 1.0 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00; 1.0 |]
  in
  let p_low = 0.02425 in
  let x =
    if p < p_low then
      let q = sqrt (-2.0 *. log p) in
      ratio c d q
    else if p <= 1.0 -. p_low then
      let q = p -. 0.5 in
      let r = q *. q in
      q *. ratio a b r
    else
      let q = sqrt (-2.0 *. log (1.0 -. p)) in
      -.ratio c d q
  in
  let e = normal_cdf x -. p in
  let u = e *. sqrt (2.0 *. Float.pi) *. exp (x *. x /. 2.0) in
  x -. (u /. (1.0 +. (x *. u /. 2.0)))
