(** R2P2: a transport protocol with RPC semantics (Kogias et al., ATC'19),
    extended for SMR as described in HovercRaft §6.1.

    Two properties of R2P2 are load-bearing for HovercRaft:

    - every RPC is uniquely identified by the (req_id, src_ip, src_port)
      triple carried in the header, which lets followers match multicast
      request bodies against ordering metadata; and
    - the source of a reply may differ from the destination of the request,
      which lets any replica answer the client.

    The [POLICY] header field gains two values ([Replicated_req],
    [Replicated_req_r]) marking requests that must be totally ordered, and
    the message-type field gains values for Raft RPCs, recovery, the
    aggregator's commit announcement, flow-control [Feedback] and [Nack]. *)

(** Load-balancing / consistency policy requested by the client. *)
type policy =
  | Unrestricted  (** Plain R2P2 request; may be served stale, not ordered. *)
  | Replicated_req  (** Read-write: must be totally ordered and applied. *)
  | Replicated_req_r  (** Read-only: totally ordered, executed by replier only. *)

val policy_read_only : policy -> bool
(** [true] only for [Replicated_req_r]. *)

(** R2P2 message types, including the HovercRaft extensions. *)
type msg_type =
  | Request  (** Client -> service. *)
  | Response  (** Service -> client (source may differ from request dst). *)
  | Raft_request  (** Consensus RPC carried over R2P2. *)
  | Raft_response
  | Recovery_request  (** Follower asking for a missed multicast body. *)
  | Recovery_response
  | Agg_commit  (** Aggregator -> group: new commit index + credits. *)
  | Feedback  (** Reply-completion signal to the flow-control middlebox. *)
  | Nack  (** Middlebox -> client: system full, retry later. *)

(** The unique RPC identity triple (§3.2). Clients guarantee uniqueness;
    the namespace is large enough in practice. *)
type req_id = { id : int; src_addr : Hovercraft_net.Addr.t; src_port : int }

val req_id_equal : req_id -> req_id -> bool
val req_id_compare : req_id -> req_id -> int
val req_id_hash : req_id -> int
val pp_req_id : Format.formatter -> req_id -> unit

module Rid_tbl : Hashtbl.S with type key = req_id
(** Hash tables keyed by request id, hashed with {!req_id_hash}. *)

val header_bytes : int
(** Size of the R2P2 header added to every message's payload. *)

(** Client-side generator of unique request ids. *)
module Id_source : sig
  type t

  val create : src_addr:Hovercraft_net.Addr.t -> src_port:int -> t
  val next : t -> req_id
end
