(** The R2P2 request router for non-replicated requests.

    §6.1 notes that marking only consistency-critical requests as
    REPLICATED lets the same servers also serve plain requests — possibly
    stale, never ordered — and that those "can also be load balanced based
    on the techniques described in [R2P2]". This device is that router: it
    fronts the cluster for [Unrestricted] requests, forwarding each to one
    server chosen by JBSQ over per-server outstanding counts, which
    FEEDBACK messages from the repliers decrement.

    Like the other in-network devices it costs no CPU, only port
    serialization and fabric latency. *)

open Hovercraft_sim

type t

val create :
  Engine.t ->
  Protocol.payload Hovercraft_net.Fabric.t ->
  n:int ->
  ?bound:int ->
  ?seed:int ->
  rate_gbps:float ->
  unit ->
  t
(** Attach at {!Hovercraft_net.Addr.Router}, balancing across
    [Node 0 .. Node (n-1)]. [bound] is the JBSQ queue bound per server
    (default 16). *)

val forwarded : t -> int
val rejected : t -> int
(** Requests NACKed because every server was at its bound. *)

val outstanding : t -> int -> int
