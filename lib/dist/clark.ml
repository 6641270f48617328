type moments = { mean : float; variance : float }

type mv = {
  mutable mv_mean : float;
  mutable mv_var : float;
  mutable mv_mean2 : float;
  mutable mv_var2 : float;
  mutable mv_cov : float;
}

let mv_create () = { mv_mean = 0.0; mv_var = 0.0; mv_mean2 = 0.0; mv_var2 = 0.0; mv_cov = 0.0 }

(* theta^2 = var1 + var2 - 2 cov is the variance of (t1 - t2); when it
   vanishes the two arrivals differ by a constant and the MAX is exactly
   the one with the larger mean.  Inlined: as a call it would box its
   three float arguments and its result on every Clark step. *)
let[@inline] theta_v ~cov v1 v2 = sqrt (Float.max (v1 +. v2 -. (2.0 *. cov)) 0.0)
let theta ~cov (a : Normal.t) (b : Normal.t) = theta_v ~cov (Normal.variance a) (Normal.variance b)

let tightness ?(cov = 0.0) (a : Normal.t) (b : Normal.t) =
  let th = theta ~cov a b in
  if th <= 0.0 then if Normal.mean a >= Normal.mean b then 1.0 else 0.0
  else Spsta_util.Special.normal_cdf ((Normal.mean a -. Normal.mean b) /. th)

(* The one Clark formula, at float level: both operands, the covariance
   and the result travel through a caller-owned all-float buffer, so the
   flat engine's folds cross this module boundary without boxing a single
   float (pointer + immediate bool only) and without allocating.

   MIN(t1, t2) = -MAX(-t1, -t2), with the negations folded into the
   arithmetic under [neg] instead of allocating mirrored operands:
   negation is exact in IEEE arithmetic, so every intermediate carries
   the same bits as the negate-then-MAX formulation. *)
let clark_mv (b : mv) ~min:neg =
  let va = b.mv_var and vb = b.mv_var2 in
  let th = theta_v ~cov:b.mv_cov va vb in
  let mu1 = if neg then -.b.mv_mean else b.mv_mean in
  let mu2 = if neg then -.b.mv_mean2 else b.mv_mean2 in
  if th <= 0.0 then begin
    if mu1 >= mu2 then ()
    else begin
      b.mv_mean <- (if neg then -.mu2 else mu2);
      b.mv_var <- vb
    end
  end
  else begin
    let lambda = (mu1 -. mu2) /. th in
    let p = Spsta_util.Special.normal_pdf lambda in
    let q = Spsta_util.Special.normal_cdf lambda in
    let mean = (mu1 *. q) +. (mu2 *. (1.0 -. q)) +. (th *. p) in
    let second =
      (((mu1 *. mu1) +. va) *. q)
      +. (((mu2 *. mu2) +. vb) *. (1.0 -. q))
      +. ((mu1 +. mu2) *. th *. p)
    in
    b.mv_mean <- (if neg then -.mean else mean);
    b.mv_var <- Float.max (second -. (mean *. mean)) 0.0
  end

let max_mv b = clark_mv b ~min:false
let min_mv b = clark_mv b ~min:true

(* The record API is re-expressed through the float core so there is
   exactly one formula; the per-call buffer is cheap here because these
   entry points already allocate their result. *)
let moments_via ~min ~cov (a : Normal.t) (b : Normal.t) =
  let buf =
    {
      mv_mean = Normal.mean a;
      mv_var = Normal.variance a;
      mv_mean2 = Normal.mean b;
      mv_var2 = Normal.variance b;
      mv_cov = cov;
    }
  in
  clark_mv buf ~min;
  { mean = buf.mv_mean; variance = buf.mv_var }

let max_moments ?(cov = 0.0) a b = moments_via ~min:false ~cov a b
let min_moments ?(cov = 0.0) a b = moments_via ~min:true ~cov a b

let to_normal (m : moments) = Normal.make ~mu:m.mean ~sigma:(sqrt m.variance)

let max_normal ?(cov = 0.0) a b = to_normal (max_moments ~cov a b)
let min_normal ?(cov = 0.0) a b = to_normal (min_moments ~cov a b)

let fold_many name op = function
  | [] -> invalid_arg (name ^ ": empty list")
  | first :: rest -> List.fold_left (fun acc n -> op acc n) first rest

let max_normal_many dists = fold_many "Clark.max_normal_many" (max_normal ~cov:0.0) dists
let min_normal_many dists = fold_many "Clark.min_normal_many" (min_normal ~cov:0.0) dists

(* Array counterparts used by the per-gate hot path: same left-to-right
   pairwise folds as the [_many] list versions (hence bit-identical
   results), minus the per-gate [Array.to_list] / [List.map] garbage. *)

let fold_map name op f xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg (name ^ ": empty array");
  let acc = ref (f xs.(0)) in
  for i = 1 to n - 1 do
    acc := op !acc (f xs.(i))
  done;
  !acc

let max_normal_map f xs =
  fold_map "Clark.max_normal_map" (fun acc n -> max_normal acc n) f xs

let min_normal_map f xs =
  fold_map "Clark.min_normal_map" (fun acc n -> min_normal acc n) f xs

let max_normal_map2 f g xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Clark.max_normal_map2: empty array";
  let acc = ref (f xs.(0)) in
  acc := max_normal !acc (g xs.(0));
  for i = 1 to n - 1 do
    acc := max_normal !acc (f xs.(i));
    acc := max_normal !acc (g xs.(i))
  done;
  !acc
