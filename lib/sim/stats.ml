type t = {
  mutable samples : int array;
  mutable size : int;
  mutable sorted : bool;
}

let create () = { samples = Array.make 1024 0; size = 0; sorted = true }

let add t v =
  if t.size = Array.length t.samples then begin
    let bigger = Array.make (2 * t.size) 0 in
    Array.blit t.samples 0 bigger 0 t.size;
    t.samples <- bigger
  end;
  t.samples.(t.size) <- v;
  t.size <- t.size + 1;
  t.sorted <- false

let count t = t.size

let mean t =
  if t.size = 0 then 0.
  else begin
    let sum = ref 0. in
    for i = 0 to t.size - 1 do
      sum := !sum +. float_of_int t.samples.(i)
    done;
    !sum /. float_of_int t.size
  end

let max_sample t =
  let m = ref 0 in
  for i = 0 to t.size - 1 do
    if t.samples.(i) > !m then m := t.samples.(i)
  done;
  !m

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.samples 0 t.size in
    Array.sort Int.compare live;
    Array.blit live 0 t.samples 0 t.size;
    t.sorted <- true
  end

let percentile t p =
  if t.size = 0 then invalid_arg "Stats.percentile: empty recorder";
  if p < 0. || p > 1. then invalid_arg "Stats.percentile: rank out of range";
  ensure_sorted t;
  (* Nearest-rank: the smallest sample with cumulative frequency >= p.
     A single ceil, then clamp into the live window — rounding the ceiled
     value again can bump the rank past [size] when the product lands just
     above an integer (p=1.0 on small windows). *)
  let rank = int_of_float (ceil (p *. float_of_int t.size)) in
  let idx = min (t.size - 1) (max 0 (rank - 1)) in
  t.samples.(idx)

let merge a b =
  let t = create () in
  for i = 0 to a.size - 1 do
    add t a.samples.(i)
  done;
  for i = 0 to b.size - 1 do
    add t b.samples.(i)
  done;
  t

let clear t =
  t.size <- 0;
  t.sorted <- true

module Summary = struct
  type t = { mutable n : int; mutable mu : float; mutable m2 : float }

  let create () = { n = 0; mu = 0.; m2 = 0. }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mu in
    t.mu <- t.mu +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mu))

  let count t = t.n
  let mean t = t.mu
  let stddev t = if t.n < 2 then 0. else sqrt (t.m2 /. float_of_int (t.n - 1))
end
