module Truth = Spsta_logic.Truth
module Gate_kind = Spsta_logic.Gate_kind

type result = {
  p_inputs : float * float;
  rho_inputs : float * float;
  p_output : float;
  boolean_diff_probs : float * float;
  rho_output : float;
}

let run () =
  let p1 = 0.5 and p2 = 0.5 and rho1 = 0.5 and rho2 = 0.5 in
  let gate = Truth.of_gate Gate_kind.And ~arity:2 in
  let probs = [| p1; p2 |] in
  let diff i = Truth.prob_one (Truth.boolean_difference gate i) probs in
  let d1 = diff 0 and d2 = diff 1 in
  {
    p_inputs = (p1, p2);
    rho_inputs = (rho1, rho2);
    p_output = Truth.prob_one gate probs;
    boolean_diff_probs = (d1, d2);
    rho_output = (d1 *. rho1) +. (d2 *. rho2);
  }

let render r =
  let p1, p2 = r.p_inputs and rho1, rho2 = r.rho_inputs in
  let d1, d2 = r.boolean_diff_probs in
  Printf.sprintf
    "Fig 3: AND gate signal probability / toggling rate\n\
     inputs: P(x1)=%.3f P(x2)=%.3f rho(x1)=%.3f rho(x2)=%.3f\n\
     P(y) = P(x1) P(x2) = %.3f\n\
     P(dy/dx1) = P(x2) = %.3f, P(dy/dx2) = P(x1) = %.3f\n\
     rho(y) = P(dy/dx1) rho(x1) + P(dy/dx2) rho(x2) = %.3f\n"
    p1 p2 rho1 rho2 r.p_output d1 d2 r.rho_output
