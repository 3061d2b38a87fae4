(** Network addresses.

    The simulated datacenter has four kinds of addressable endpoints plus
    multicast groups, mirroring the paper's deployment: cluster servers,
    clients, the in-network aggregator (an IP-connected device that can sit
    anywhere in the datacenter, §6.4) and the flow-control middlebox
    (§6.3). *)

type t =
  | Node of int  (** Cluster server (leader or follower), 0-based id. *)
  | Client of int  (** Load-generating client. *)
  | Netagg  (** The in-network append_entries aggregator. *)
  | Middlebox  (** Flow-control middlebox fronting the multicast group. *)
  | Router  (** R2P2 request router for non-replicated requests. *)
  | Group of int  (** IP multicast group. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** By {!kind}, then by {!index}. *)

val kind : t -> int
(** The constructor's number, [0] to [kinds - 1], in declaration
    order. *)

val kinds : int

val index : t -> int
(** The constructor's argument; [0] for [Netagg], [Middlebox] and
    [Router]. [kind] and [index] together determine the address. *)

val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val cluster_group : int
(** Well-known multicast group id for the fault-tolerance group. *)
