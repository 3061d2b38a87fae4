type t =
  | Fixed of Timebase.t
  | Exponential of Timebase.t
  | Uniform of Timebase.t * Timebase.t
  | Bimodal of { mean : Timebase.t; long_fraction : float; ratio : float }

let bimodal_modes ~mean ~long_fraction ~ratio =
  let p = long_fraction in
  let short = float_of_int mean /. ((1. -. p) +. (p *. ratio)) in
  (short, short *. ratio)

let mean = function
  | Fixed d -> float_of_int d
  | Exponential m -> float_of_int m
  | Uniform (lo, hi) -> float_of_int (lo + hi) /. 2.
  | Bimodal { mean; _ } -> float_of_int mean

let to_time v = max 0 (int_of_float (Float.round v))

let sample t rng =
  let v =
    match t with
    | Fixed d -> float_of_int d
    | Exponential m ->
        let u = 1.0 -. Rng.float rng in
        -.float_of_int m *. log u
    | Uniform (lo, hi) -> float_of_int lo +. (Rng.float rng *. float_of_int (hi - lo))
    | Bimodal { mean; long_fraction; ratio } ->
        let short, long = bimodal_modes ~mean ~long_fraction ~ratio in
        if Rng.bool rng long_fraction then long else short
  in
  to_time v

let support = function
  | Fixed d -> [| to_time (float_of_int d) |]
  | Bimodal { mean; long_fraction; ratio } ->
      let short, long = bimodal_modes ~mean ~long_fraction ~ratio in
      [| to_time short; to_time long |]
  | Exponential _ | Uniform _ -> [||]

let pp fmt = function
  | Fixed d -> Format.fprintf fmt "fixed(%a)" Timebase.pp d
  | Exponential m -> Format.fprintf fmt "exp(mean=%a)" Timebase.pp m
  | Uniform (lo, hi) -> Format.fprintf fmt "uniform(%a,%a)" Timebase.pp lo Timebase.pp hi
  | Bimodal { mean; long_fraction; ratio } ->
      Format.fprintf fmt "bimodal(mean=%a,p=%.2f,ratio=%.1f)" Timebase.pp mean
        long_fraction ratio
