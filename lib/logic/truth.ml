type t = { arity : int; bits : Bytes.t }

let max_arity = 20

let arity t = t.arity

let table_size arity = 1 lsl arity

let byte_size arity = (table_size arity + 7) / 8

let get_bit bits i = Char.code (Bytes.get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit bits i =
  let j = i lsr 3 in
  Bytes.set bits j (Char.chr (Char.code (Bytes.get bits j) lor (1 lsl (i land 7))))

let create ~arity f =
  if arity < 0 || arity > max_arity then invalid_arg "Truth.create: arity out of range";
  let bits = Bytes.make (byte_size arity) '\000' in
  for a = 0 to table_size arity - 1 do
    if f a then set_bit bits a
  done;
  { arity; bits }

let eval t assignment = get_bit t.bits (assignment land (table_size t.arity - 1))

let of_gate kind ~arity =
  let eval_assignment a =
    let inputs = List.init arity (fun i -> a land (1 lsl i) <> 0) in
    Gate_kind.eval_bool kind inputs
  in
  create ~arity eval_assignment

let var ~arity i =
  if i < 0 || i >= arity then invalid_arg "Truth.var: index out of range";
  create ~arity (fun a -> a land (1 lsl i) <> 0)

let const ~arity b = create ~arity (fun _ -> b)

let check_same_arity a b = if a.arity <> b.arity then invalid_arg "Truth: arity mismatch"

let lnot t = create ~arity:t.arity (fun a -> not (eval t a))

let lift2 op a b =
  check_same_arity a b;
  create ~arity:a.arity (fun x -> op (eval a x) (eval b x))

let land2 = lift2 ( && )
let lor2 = lift2 ( || )
let lxor2 = lift2 (fun x y -> x <> y)

let equal a b = a.arity = b.arity && Bytes.equal a.bits b.bits

let cofactor t i b =
  if i < 0 || i >= t.arity then invalid_arg "Truth.cofactor: index out of range";
  let mask = 1 lsl i in
  create ~arity:t.arity (fun a ->
      let a' = if b then a lor mask else a land Int.lognot mask in
      eval t a')

let boolean_difference t i = lxor2 (cofactor t i true) (cofactor t i false)

let depends_on t i = not (equal (cofactor t i true) (cofactor t i false))

let prob_one t p =
  if Array.length p <> t.arity then invalid_arg "Truth.prob_one: probability arity mismatch";
  Array.iter
    (fun x -> if not (x >= 0.0 && x <= 1.0) then invalid_arg "Truth.prob_one: probability outside [0,1]")
    p;
  let total = ref 0.0 in
  for a = 0 to table_size t.arity - 1 do
    if eval t a then begin
      let w = ref 1.0 in
      for i = 0 to t.arity - 1 do
        let pi = if a land (1 lsl i) <> 0 then p.(i) else 1.0 -. p.(i) in
        w := !w *. pi
      done;
      total := !total +. !w
    end
  done;
  (* the row products sum to 1 only up to rounding (OR3 of 0.9952...,
     0.0670..., 0.999999999999996 sums to 1.0000000000000002): clamp, so
     the result is a probability a downstream gate accepts *)
  Float.min 1.0 (Float.max 0.0 !total)

let count_ones t =
  let n = ref 0 in
  for a = 0 to table_size t.arity - 1 do
    if eval t a then incr n
  done;
  !n
