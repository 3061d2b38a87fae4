open Hovercraft_sim

type spec = {
  service : Dist.t;
  req_bytes : int;
  rep_bytes : int;
  read_fraction : float;
}

let spec ?(service = Dist.Fixed (Timebase.us 1)) ?(req_bytes = 24)
    ?(rep_bytes = 8) ?(read_fraction = 0.) () =
  if read_fraction < 0. || read_fraction > 1. then
    invalid_arg "Service.spec: read_fraction outside [0,1]";
  { service; req_bytes; rep_bytes; read_fraction }

let synth t cost read_only =
  Op.Synth { cost; read_only; req_bytes = t.req_bytes; rep_bytes = t.rep_bytes }

let rec index_of costs cost i =
  if i = Array.length costs then -1
  else if costs.(i) = cost then i
  else index_of costs cost (i + 1)

(* When the service time takes finitely many values, every request with
   the same (cost, read_only) shares one body, built with the sampler:
   the nodes that retain a request then hold no body of their own. *)
let sample t =
  let costs = Dist.support t.service in
  let bodies =
    Array.init (2 * Array.length costs) (fun i -> synth t costs.(i / 2) (i mod 2 = 1))
  in
  fun rng ->
    let cost = Dist.sample t.service rng in
    let read_only = t.read_fraction > 0. && Rng.bool rng t.read_fraction in
    let i = index_of costs cost 0 in
    if i < 0 then synth t cost read_only else bodies.((2 * i) + Bool.to_int read_only)

let pp_spec fmt t =
  Format.fprintf fmt "synth{S=%a, req=%dB, rep=%dB, ro=%.0f%%}" Dist.pp
    t.service t.req_bytes t.rep_bytes (100. *. t.read_fraction)

(* --- snapshots --- *)

module type Snapshottable = sig
  type state
  type image

  val snapshot : state -> image
  val install : state -> image -> unit
  val image_bytes : image -> int
end

(* Both replicated services satisfy the interface; binding them here is a
   compile-time proof, and what the SMR layer checkpoints is [Machine]
   (the synthetic service's digest state rides inside [Op.image] next to
   the store). *)
module Machine : Snapshottable with type state = Op.state and type image = Op.image =
  Op

module Store :
  Snapshottable with type state := Kvstore.t and type image := Kvstore.image =
  Kvstore
