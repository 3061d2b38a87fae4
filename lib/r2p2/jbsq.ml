open Hovercraft_sim

type policy = Jbsq | Random_choice

let pp_policy fmt = function
  | Jbsq -> Format.pp_print_string fmt "JBSQ"
  | Random_choice -> Format.pp_print_string fmt "RANDOM"

type t = {
  policy : policy;
  bound : int;
  depths : int array;
  rng : Rng.t;
  scratch : int array;  (* candidate buffer reused across picks *)
}

let create policy ~bound ~n ~rng =
  if bound <= 0 then invalid_arg "Jbsq.create: bound must be positive";
  if n <= 0 then invalid_arg "Jbsq.create: need at least one server";
  {
    policy;
    bound;
    depths = Array.make n 0;
    rng;
    scratch = Array.make n 0;
  }

let n t = Array.length t.depths
let bound t = t.bound
let depth t i = t.depths.(i)
let eligible t i = t.depths.(i) < t.bound

let pick t =
  match t.policy with
  | Random_choice ->
      let count = ref 0 in
      for i = 0 to n t - 1 do
        if eligible t i then begin
          t.scratch.(!count) <- i;
          incr count
        end
      done;
      if !count = 0 then None else Some t.scratch.(Rng.int t.rng !count)
  | Jbsq ->
      (* Shortest eligible queue; ties broken uniformly. *)
      let best = ref max_int and count = ref 0 in
      for i = 0 to n t - 1 do
        if eligible t i then
          if t.depths.(i) < !best then begin
            best := t.depths.(i);
            t.scratch.(0) <- i;
            count := 1
          end
          else if t.depths.(i) = !best then begin
            t.scratch.(!count) <- i;
            incr count
          end
      done;
      if !count = 0 then None else Some t.scratch.(Rng.int t.rng !count)

let assign t i =
  if not (eligible t i) then invalid_arg "Jbsq.assign: server not eligible";
  t.depths.(i) <- t.depths.(i) + 1

let complete t i =
  if t.depths.(i) <= 0 then invalid_arg "Jbsq.complete: depth already zero";
  t.depths.(i) <- t.depths.(i) - 1
