type t = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  zeta2 : float;
}

(* The generalized harmonic number H(n, theta): O(n), ~50 ms at a
   million keys, and every keyed stand-up asks for the same few, so each
   (n, theta) is summed once per process. The sum is a pure function of
   its arguments, so a remembered value is bit-identical to a fresh one. *)
let zetas : (int * float, float) Hashtbl.t = Hashtbl.create 8

let zeta n theta =
  match Hashtbl.find_opt zetas (n, theta) with
  | Some z -> z
  | None ->
      let sum = ref 0. in
      for i = 1 to n do
        sum := !sum +. (1. /. Float.pow (float_of_int i) theta)
      done;
      Hashtbl.add zetas (n, theta) !sum;
      !sum

let create ?(theta = 0.99) ~n () =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if not (theta >= 0. && theta < 1.) then
    invalid_arg "Zipf.create: theta outside [0, 1)";
  let zetan = zeta n theta in
  let zeta2 = zeta 2 theta in
  let alpha = 1. /. (1. -. theta) in
  let eta =
    (1. -. Float.pow (2. /. float_of_int n) (1. -. theta))
    /. (1. -. (zeta2 /. zetan))
  in
  { n; theta; alpha; zetan; eta; zeta2 = zeta2 }

let sample t rng =
  let u = Hovercraft_sim.Rng.float rng in
  let uz = u *. t.zetan in
  if uz < 1. then 0
  else if uz < 1. +. Float.pow 0.5 t.theta then 1
  else begin
    let v =
      float_of_int t.n
      *. Float.pow ((t.eta *. u) -. t.eta +. 1.) t.alpha
    in
    min (t.n - 1) (max 0 (int_of_float v))
  end

let n t = t.n
