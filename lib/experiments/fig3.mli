(** Fig. 3 of the paper: signal probability and signal toggling rate
    computation for a two-input AND gate (eq. 5 and eq. 6). *)

type result = {
  p_inputs : float * float;
  rho_inputs : float * float;
  p_output : float;  (** P(y) = P(x1) P(x2) *)
  boolean_diff_probs : float * float;  (** P(dy/dx1), P(dy/dx2) *)
  rho_output : float;  (** eq. 6 *)
}

val run : unit -> result
(** The paper's example: both input probabilities and toggling rates 0.5. *)

val render : result -> string
