type component = { weight : float; dist : Normal.t }

type t = component list

let weight_epsilon = 1e-15

let empty = []

let singleton ~weight dist =
  if weight < 0.0 then invalid_arg "Mixture.singleton: negative weight";
  if weight <= weight_epsilon then [] else [ { weight; dist } ]

let components t = t

let of_components cs =
  List.filter
    (fun c ->
      if c.weight < 0.0 then invalid_arg "Mixture.of_components: negative weight";
      c.weight > weight_epsilon)
    cs

let total_weight t = List.fold_left (fun acc c -> acc +. c.weight) 0.0 t
let is_empty t = total_weight t <= weight_epsilon

let scale t k =
  if k < 0.0 then invalid_arg "Mixture.scale: negative factor";
  if k <= weight_epsilon then []
  else List.map (fun c -> { c with weight = c.weight *. k }) t

let add a b = a @ b
let sum ts = List.concat ts

let add_delay t d = List.map (fun c -> { c with dist = Normal.add_constant c.dist d }) t

let add_normal_delay t d = List.map (fun c -> { c with dist = Normal.sum c.dist d }) t

(* The float-level cores.  Every moment computation below — the
   normalised moments, the moment-matched normal and the pairwise merge
   inside [compact] — runs through [moments_add]/[moments_finish], and
   [compact] runs through [compact_slots]; the flat SPSTA kernel calls
   the same functions on its float arena, so both representations share
   one formula and agree bit for bit. *)

type moments_buf = {
  mutable mb_weight : float;
  mutable mb_mu : float;
  mutable mb_sigma : float;
  mutable mb_total : float;
  mutable mb_m1 : float;
  mutable mb_m2 : float;
}

let moments_buf () =
  { mb_weight = 0.0; mb_mu = 0.0; mb_sigma = 0.0; mb_total = 0.0; mb_m1 = 0.0; mb_m2 = 0.0 }

let moments_clear b =
  b.mb_total <- 0.0;
  b.mb_m1 <- 0.0;
  b.mb_m2 <- 0.0

(* the second raw moment of a normal component: mu^2 + sigma^2 *)
let moments_start b =
  let w = b.mb_weight and mu = b.mb_mu and sigma = b.mb_sigma in
  b.mb_total <- w;
  b.mb_m1 <- w *. mu;
  b.mb_m2 <- w *. ((mu *. mu) +. (sigma *. sigma))

let moments_add b =
  let w = b.mb_weight and mu = b.mb_mu and sigma = b.mb_sigma in
  b.mb_total <- b.mb_total +. w;
  b.mb_m1 <- b.mb_m1 +. (w *. mu);
  b.mb_m2 <- b.mb_m2 +. (w *. ((mu *. mu) +. (sigma *. sigma)))

let moments_finish b =
  let w = b.mb_total in
  let m1 = b.mb_m1 /. w and m2 = b.mb_m2 /. w in
  b.mb_m1 <- m1;
  b.mb_m2 <- m2;
  b.mb_weight <- w;
  b.mb_mu <- m1;
  b.mb_sigma <- sqrt (Float.max (m2 -. (m1 *. m1)) 0.0)

let load b c =
  b.mb_weight <- c.weight;
  b.mb_mu <- Normal.mean c.dist;
  b.mb_sigma <- Normal.stddev c.dist

let raw_moments t =
  (* first and second raw moments of the normalised mixture *)
  let b = moments_buf () in
  List.iter
    (fun c ->
      load b c;
      moments_add b)
    t;
  if b.mb_total <= weight_epsilon then None
  else begin
    moments_finish b;
    Some (b.mb_m1, b.mb_m2)
  end

let mean t = match raw_moments t with None -> 0.0 | Some (m1, _) -> m1

let variance t =
  match raw_moments t with
  | None -> 0.0
  | Some (m1, m2) -> Float.max (m2 -. (m1 *. m1)) 0.0

let stddev t = sqrt (variance t)

(* third raw moment of a normal: mu^3 + 3 mu sigma^2 *)
let skewness t =
  match raw_moments t with
  | None -> 0.0
  | Some (m1, m2) ->
    let var = Float.max (m2 -. (m1 *. m1)) 0.0 in
    if var <= 0.0 then 0.0
    else begin
      let w = total_weight t in
      let m3 = ref 0.0 in
      let accumulate c =
        let mu = Normal.mean c.dist and v = Normal.variance c.dist in
        m3 := !m3 +. (c.weight *. ((mu *. mu *. mu) +. (3.0 *. mu *. v)))
      in
      List.iter accumulate t;
      let m3 = !m3 /. w in
      let central3 = m3 -. (3.0 *. m1 *. m2) +. (2.0 *. m1 *. m1 *. m1) in
      central3 /. (var ** 1.5)
    end

let normalized_moments t =
  match raw_moments t with
  | None -> None
  | Some (m1, m2) -> Some { Clark.mean = m1; variance = Float.max (m2 -. (m1 *. m1)) 0.0 }

let as_normal t =
  match normalized_moments t with
  | None -> None
  | Some m -> Some (Normal.make ~mu:m.Clark.mean ~sigma:(sqrt m.Clark.variance))

(* Moment-preserving merge of adjacent slots [i] and [i + 1] into [i]:
   the first component starts the accumulator (no 0.0 seed), the second
   is added, and the matched normal replaces both. *)
let merge_slots b arena i =
  let j = 3 * i in
  b.mb_weight <- Float.Array.get arena j;
  b.mb_mu <- Float.Array.get arena (j + 1);
  b.mb_sigma <- Float.Array.get arena (j + 2);
  moments_start b;
  b.mb_weight <- Float.Array.get arena (j + 3);
  b.mb_mu <- Float.Array.get arena (j + 4);
  b.mb_sigma <- Float.Array.get arena (j + 5);
  moments_add b;
  moments_finish b;
  Float.Array.set arena j b.mb_weight;
  Float.Array.set arena (j + 1) b.mb_mu;
  Float.Array.set arena (j + 2) b.mb_sigma

(* slot [src] -> slot [dst], both absolute slot indices *)
let[@inline] move_slot arena ~src ~dst =
  let s = 3 * src and d = 3 * dst in
  Float.Array.set arena d (Float.Array.get arena s);
  Float.Array.set arena (d + 1) (Float.Array.get arena (s + 1));
  Float.Array.set arena (d + 2) (Float.Array.get arena (s + 2))

let[@inline] slot_mean arena s = Float.Array.get arena ((3 * s) + 1)

let compact_slots b arena ~off ~len ~max_components =
  (* drop negligible components, keeping order *)
  let n = ref 0 in
  for s = off to off + len - 1 do
    if Float.Array.get arena (3 * s) > weight_epsilon then begin
      if s <> off + !n then move_slot arena ~src:s ~dst:(off + !n);
      incr n
    end
  done;
  if !n <= max_components then !n
  else begin
    let last = off + !n - 1 in
    (* stable insertion sort by mean: the same permutation as a stable
       [List.sort compare] on the means, [Float.compare] being a total
       order *)
    for s = off + 1 to last do
      let j = 3 * s in
      let w = Float.Array.get arena j
      and mu = Float.Array.get arena (j + 1)
      and sigma = Float.Array.get arena (j + 2) in
      let d = ref (s - 1) in
      while !d >= off && Float.compare (slot_mean arena !d) mu > 0 do
        move_slot arena ~src:!d ~dst:(!d + 1);
        decr d
      done;
      let j = 3 * (!d + 1) in
      Float.Array.set arena j w;
      Float.Array.set arena (j + 1) mu;
      Float.Array.set arena (j + 2) sigma
    done;
    (* repeatedly merge the adjacent pair with the closest means (the
       first such pair on ties) *)
    let last = ref last in
    while !last - off + 1 > max_components do
      let best = ref off and best_gap = ref infinity in
      for s = off to !last - 1 do
        let gap = slot_mean arena (s + 1) -. slot_mean arena s in
        if gap < !best_gap then begin
          best := s;
          best_gap := gap
        end
      done;
      merge_slots b arena !best;
      for s = !best + 1 to !last - 1 do
        move_slot arena ~src:(s + 1) ~dst:s
      done;
      decr last
    done;
    !last - off + 1
  end

let compact ?(max_components = 64) t =
  let t = List.filter (fun c -> c.weight > weight_epsilon) t in
  if List.length t <= max_components then t
  else begin
    let arena = Float.Array.create (3 * List.length t) in
    List.iteri
      (fun s c ->
        Float.Array.set arena (3 * s) c.weight;
        Float.Array.set arena ((3 * s) + 1) (Normal.mean c.dist);
        Float.Array.set arena ((3 * s) + 2) (Normal.stddev c.dist))
      t;
    let n =
      compact_slots (moments_buf ()) arena ~off:0 ~len:(List.length t) ~max_components
    in
    List.init n (fun s ->
        { weight = Float.Array.get arena (3 * s);
          dist =
            Normal.make ~mu:(Float.Array.get arena ((3 * s) + 1))
              ~sigma:(Float.Array.get arena ((3 * s) + 2)) })
  end

let cdf t x =
  let w = total_weight t in
  if w <= weight_epsilon then 0.0
  else List.fold_left (fun acc c -> acc +. (c.weight *. Normal.cdf c.dist x)) 0.0 t /. w

let quantile t p =
  if not (p > 0.0 && p < 1.0) then invalid_arg "Mixture.quantile: p outside (0,1)";
  if is_empty t then invalid_arg "Mixture.quantile: empty mixture";
  (* bracket the quantile across all components' 8-sigma envelopes *)
  let lo, hi =
    List.fold_left
      (fun (lo, hi) c ->
        ( Float.min lo (Normal.mean c.dist -. (8.0 *. Normal.stddev c.dist) -. 1.0),
          Float.max hi (Normal.mean c.dist +. (8.0 *. Normal.stddev c.dist) +. 1.0) ))
      (infinity, neg_infinity) t
  in
  let rec bisect lo hi i =
    if i = 0 then (lo +. hi) /. 2.0
    else begin
      let mid = (lo +. hi) /. 2.0 in
      if cdf t mid < p then bisect mid hi (i - 1) else bisect lo mid (i - 1)
    end
  in
  bisect lo hi 60

let sample rng t =
  let w = total_weight t in
  if w <= weight_epsilon then None
  else begin
    let arr = Array.of_list t in
    let weights = Array.map (fun c -> c.weight) arr in
    let i = Spsta_util.Rng.choose_index rng weights in
    Some (Normal.sample rng arr.(i).dist)
  end
