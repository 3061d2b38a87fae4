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

(* LSD radix sort of the non-negative keys [a.(0 .. n-1)], whose bits
   are all in [top], [digit_bits] at a time through one scratch array; a
   pass whose digit is the same for every key is skipped. *)
let digit_bits = 11
let digit_mask = (1 lsl digit_bits) - 1

let radix_sort a n ~top =
  let counts = Array.make (digit_mask + 1) 0 in
  let src = ref a and dst = ref (Array.make n 0) in
  let shift = ref 0 in
  while !shift < Sys.int_size && top lsr !shift <> 0 do
    let s = !src and d = !dst and sh = !shift in
    Array.fill counts 0 (digit_mask + 1) 0;
    for i = 0 to n - 1 do
      let k = (Array.unsafe_get s i lsr sh) land digit_mask in
      Array.unsafe_set counts k (Array.unsafe_get counts k + 1)
    done;
    if counts.((s.(0) lsr sh) land digit_mask) < n then begin
      (* Counts become each digit's first output position. *)
      let pos = ref 0 in
      for k = 0 to digit_mask do
        let c = Array.unsafe_get counts k in
        Array.unsafe_set counts k !pos;
        pos := !pos + c
      done;
      for i = 0 to n - 1 do
        let v = Array.unsafe_get s i in
        let k = (v lsr sh) land digit_mask in
        let p = Array.unsafe_get counts k in
        Array.unsafe_set d p v;
        Array.unsafe_set counts k (p + 1)
      done;
      src := d;
      dst := s
    end;
    shift := sh + digit_bits
  done;
  if !src != a then Array.blit !src 0 a 0 n

(* Sorted ints are the same whichever sort produced them, so percentiles
   do not depend on the choice. A negative sample (none on a monotone
   clock) falls back to the comparison sort. *)
let ensure_sorted t =
  if not t.sorted then begin
    let n = t.size in
    let top = ref 0 in
    for i = 0 to n - 1 do
      top := !top lor t.samples.(i)
    done;
    if n > 1 then
      if !top < 0 then begin
        let live = Array.sub t.samples 0 n in
        Array.stable_sort Int.compare live;
        Array.blit live 0 t.samples 0 n
      end
      else radix_sort t.samples n ~top:!top;
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
