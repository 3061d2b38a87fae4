(** The synthetic service of §7: configurable CPU service time, request and
    reply sizes, and read-only fraction. Used by every microbenchmark to
    exercise one bottleneck at a time. *)

open Hovercraft_sim

type spec = {
  service : Dist.t;  (** CPU execution time distribution. *)
  req_bytes : int;
  rep_bytes : int;
  read_fraction : float;  (** Probability a request is read-only. *)
}

val spec :
  ?service:Dist.t ->
  ?req_bytes:int ->
  ?rep_bytes:int ->
  ?read_fraction:float ->
  unit ->
  spec
(** Defaults are the paper's baseline microbenchmark: S = 1 µs fixed,
    24-byte requests, 8-byte replies, no read-only operations. *)

val sample : spec -> Rng.t -> Op.t
(** Draw one operation. [sample spec] builds the sampler once: under a
    [Fixed] or [Bimodal] service time it hands out one shared body per
    (cost, read-only) pair, so apply it once per load generator. *)

val pp_spec : Format.formatter -> spec -> unit

(** {1 Snapshottable state machines}

    What the snapshot subsystem requires of a replicated service: cut a
    detached image of the applied state, install one in place, and
    estimate its serialized size (which drives chunked transfer). The
    synthetic service's replicated state is its write digest; it is
    checkpointed through {!Machine} (i.e. {!Op}'s whole-machine image,
    which carries the digest alongside the kv store). *)

module type Snapshottable = sig
  type state
  type image

  val snapshot : state -> image
  val install : state -> image -> unit
  val image_bytes : image -> int
end

module Machine : Snapshottable with type state = Op.state and type image = Op.image
(** The full replica state machine (synthetic digest + kv store): this is
    what HovercRaft checkpoints and ships. *)

module Store : Snapshottable with type state := Kvstore.t and type image := Kvstore.image
(** The kv store alone, for direct store-level tests. *)
