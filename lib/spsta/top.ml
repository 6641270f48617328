module Timing_rule = Spsta_logic.Timing_rule
module Normal = Spsta_dist.Normal
module Mixture = Spsta_dist.Mixture
module Discrete = Spsta_dist.Discrete
module Clark = Spsta_dist.Clark

module type BACKEND = sig
  type top

  val empty : top
  val of_normal : weight:float -> Normal.t -> top
  val total : top -> float
  val scale : top -> float -> top
  val add : top -> top -> top
  val shift : top -> float -> top
  val convolve_normal : top -> Normal.t -> top
  val combine : Timing_rule.t -> top list -> top
  val mean : top -> float
  val stddev : top -> float
  val compact : top -> top
  val dropped : top -> float
  val check : what:string -> top -> (string * string) option

  module Acc : sig
    type t

    val create : unit -> t
    val add : t -> top -> unit
    val to_top : t -> top
  end
end

let moment_max_components = 16

module Moment_backend : BACKEND with type top = Mixture.t = struct
  type top = Mixture.t

  let empty = Mixture.empty
  let of_normal ~weight dist = Mixture.singleton ~weight dist
  let total = Mixture.total_weight
  let scale = Mixture.scale
  let add = Mixture.add
  let shift = Mixture.add_delay
  let convolve_normal = Mixture.add_normal_delay

  (* moment-match each operand's normalised mixture to a normal, then
     Clark-fold; exact for single operands *)
  let combine rule tops =
    let as_normal top =
      match Mixture.as_normal top with
      | Some n -> n
      | None -> invalid_arg "Top.Moment_backend.combine: zero-mass operand"
    in
    let normals = List.map as_normal tops in
    let folded =
      match rule with
      | Timing_rule.Max -> Clark.max_normal_many normals
      | Timing_rule.Min -> Clark.min_normal_many normals
    in
    Mixture.singleton ~weight:1.0 folded

  let mean = Mixture.mean
  let stddev = Mixture.stddev
  let compact top = Mixture.compact ~max_components:moment_max_components top
  let dropped _ = 0.0
  let check ~what top = Spsta_engine.Invariant.(first (check_mixture ~what top))

  (* mixtures are persistent component lists; the accumulator is just a
     fold cell (Mixture.add is already O(|new components|)) *)
  module Acc = struct
    type t = Mixture.t ref

    let create () = ref Mixture.empty
    let add acc top = acc := Mixture.add !acc top
    let to_top acc = !acc
  end
end

let discrete_backend ?(truncate_eps = 1e-9) ?(cache_normals = true) ~dt () :
    (module BACKEND with type top = Discrete.t) =
  (module struct
    type top = Discrete.t

    let empty = Discrete.zero ~dt
    let of_normal ~weight dist = Discrete.of_normal ~cache:cache_normals ~dt ~mass:weight dist
    let total = Discrete.total
    let scale = Discrete.scale
    let add = Discrete.add
    let shift = Discrete.shift

    let convolve_normal top delay =
      if Discrete.total top <= 0.0 then top
      else Discrete.convolve top (Discrete.of_normal ~cache:cache_normals ~dt ~mass:1.0 delay)

    let combine rule tops =
      match tops with
      | [] -> invalid_arg "Top.discrete_backend.combine: no operands"
      | first :: rest ->
        let op =
          match rule with
          | Timing_rule.Max -> Discrete.max_independent
          | Timing_rule.Min -> Discrete.min_independent
        in
        let normalise top =
          let w = Discrete.total top in
          if w <= 0.0 then invalid_arg "Top.discrete_backend.combine: zero-mass operand";
          Discrete.scale top (1.0 /. w)
        in
        List.fold_left (fun acc top -> op acc (normalise top)) (normalise first) rest

    let mean = Discrete.mean
    let stddev = Discrete.stddev

    (* epsilon-truncation is where deep-circuit supports stop growing:
       each gate output sheds its negligible tails, and the dropped mass
       stays accounted for in Discrete.dropped_mass *)
    let compact top =
      if truncate_eps > 0.0 then Discrete.truncate ~eps:truncate_eps top else top

    let dropped = Discrete.dropped_mass
    let check ~what top = Spsta_engine.Invariant.(first (check_discrete ~what top))

    module Acc = struct
      type t = Discrete.Accum.t

      let create () = Discrete.Accum.create ~dt
      let add = Discrete.Accum.add
      let to_top = Discrete.Accum.to_dist
    end
  end)
