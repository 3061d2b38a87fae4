(** Builds a complete simulated deployment: the fabric, the cluster nodes
    in one of the four modes, and (as required by the mode) the in-network
    aggregator and the flow-control middlebox. Also the fault-injection
    and membership-change surface used by the failure, chaos and
    reconfiguration experiments. *)

open Hovercraft_sim
open Hovercraft_core
module Addr = Hovercraft_net.Addr
module Fabric = Hovercraft_net.Fabric

(** Everything needed to stand up a cluster, in one value. Build it with
    the {!config} smart constructor (which validates), not by record
    literal; tweak individual knobs afterwards with [{ cfg with ... }]. *)
type config = {
  fabric_latency : Timebase.t;
      (** One-way wire latency between any two fabric ports. *)
  flow_cap : int option;
      (** Attach the flow-control middlebox with this in-flight cap
          (HovercRaft's switch-based flow control); [None] = no box. *)
  router_bound : int option;
      (** Attach the JBSQ router for unrestricted reads with this
          per-server bound; [None] = no router. *)
  switch_gbps : float;  (** Link rate of every middlebox port. *)
  trace : Hovercraft_obs.Trace.t option;
      (** Shared trace ring; [None] = the deployment creates its own. *)
  engine : Engine.t option;
      (** Share an existing event engine instead of creating a fresh one;
          how a sharded deployment co-schedules several Raft groups in one
          simulated timeline. [None] = classic one-engine-per-deployment. *)
  bootstrap : int;
      (** Node id that opens the first election (default 0). Staggering
          this across co-located groups spreads initial leaders over
          distinct hosts. *)
  params : Hnode.params;  (** Per-node parameters (mode, n, costs, timers). *)
}

val config :
  ?fabric_latency:Timebase.t ->
  ?flow_cap:int ->
  ?router_bound:int ->
  ?switch_gbps:float ->
  ?trace:Hovercraft_obs.Trace.t ->
  ?engine:Engine.t ->
  ?bootstrap:int ->
  Hnode.params ->
  config
(** [config params] builds a validated deployment config. Defaults: 1 us
    fabric latency, 100 Gbps middlebox links, no flow control, no router,
    fresh trace, fresh engine, bootstrap node 0. Raises
    [Invalid_argument] on nonsensical values (negative latency,
    non-positive rates or caps, a bootstrap id outside the initial
    membership) and re-validates [params], so backend-inapplicable knob
    combinations (e.g. [Rabia] with any mode but [Hover], or with leader
    leases) are rejected here. *)

type t = {
  engine : Engine.t;
  fabric : Protocol.payload Fabric.t;
  mutable nodes : Hnode.t array;
      (** Index = node id. Grows on {!add_node}; removed nodes stay in
          place, dead, so ids are never reused. *)
  aggregator : Aggregator.t option;  (** Present in HovercRaft++ mode. *)
  flow : Flow_control.t option;  (** Present when [flow_cap] was given. *)
  router : Router.t option;  (** Present when [router_bound] was given. *)
  params : Hnode.params;
  cfg : config;  (** The config this deployment was built from. *)
  trace : Hovercraft_obs.Trace.t;
      (** Shared by all nodes: one cluster-wide event timeline. *)
  removed : (int, unit) Hashtbl.t;
      (** Fully decommissioned node ids; see {!is_removed}. *)
  mutable last_leader : int option;
      (** Most recent node {!leader} observed leading; lets failure
          injection target "the leader" even mid-election. *)
}

val followers_group : int
(** Multicast group id the aggregator manages (all nodes minus leader). *)

val create : config -> t
(** Build the deployment. The [bootstrap] node is elected initial leader and
    the engine is advanced (a few simulated ms) until leadership and — for
    HovercRaft++ — the aggregator handshake are established, so callers
    start from a quiesced cluster at a well-defined simulated time. *)

val leader : t -> Hnode.t option
(** The current leader among live nodes, if any. *)

val live_nodes : t -> Hnode.t list

val client_target : t -> Addr.t
(** Where clients address their requests in this deployment: the leader
    for unreplicated/VanillaRaft, the flow-control middlebox when present,
    the cluster multicast group otherwise. Leaderless (mid-election)
    unicast deployments fall back to a live node's leader hint, else any
    live node — never a dead port. *)

val total_replies : t -> int
val total_executed : t -> int

val consistent : t -> bool
(** All live replicas' application fingerprints agree (replicas may lag;
    this drains nothing — call after quiescing). *)

val quiesce : t -> ?extra:Timebase.t -> unit -> unit
(** Run the engine forward with no client load so in-flight replication,
    application, recoveries and reconfigurations drain. *)

val kill_node : t -> int -> unit

val restart_node : t -> int -> unit
(** Bring a killed node back as a follower ({!Hnode.restart}): it rejoins
    the fabric and catches up from its surviving log. *)

val kill_leader : t -> int option
(** Kill the current leader; returns its id. Called mid-election (no
    current leader) it kills the last-known leader instead — or, if that
    node is already dead, the live node with the highest term — so that
    failure experiments cannot silently run with zero faults injected.
    [None] only when no node is left alive. *)

val is_removed : t -> int -> bool
(** True once [remove_node i] fully decommissioned node [i]: it is out of
    the configuration for good and must never be restarted. *)

val add_node : t -> int
(** Grow the cluster by one voter. Creates a fresh node under the next
    unused id, joins it to the fabric, and starts an engine-driven loop
    that re-proposes the configuration change through whichever node
    currently leads until the addition lands (a single proposal can be
    lost to a leader change, a partition, or the one-change-at-a-time
    rule). Returns the new node's id immediately; the membership change
    completes asynchronously as the engine runs. When the leader holds a
    snapshot, the newcomer catches up by installing the image rather than
    replaying history — the leader need not retain any entry below its
    compaction base on its behalf. *)

val remove_node : t -> int -> unit
(** Shrink the cluster by one voter. The leader itself is a valid target:
    it keeps leading until the entry commits, then steps down (Raft
    §4.2.2). Drives the proposal like {!add_node}; once the leader has
    applied the removal the node is killed if it did not already halt
    itself — effective-on-append means a removed follower may never see
    the entry, and this decommission closes that zombie window. *)

val transfer_leadership : t -> target:int -> unit
(** Ask the current leader to hand off to [target] (no-op if leaderless or
    [target] already leads). Completion is asynchronous: the leader
    freezes client commands, catches the target up, sends TimeoutNow, and
    the target starts an immediate election. *)

val total_pending_recoveries : t -> int
(** Bodies the cluster is still trying to recover; zero after a clean
    quiesce — a stuck rid here is exactly the wedge the recovery
    escalation path exists to prevent. *)

val trace : t -> Hovercraft_obs.Trace.t

val snapshot : t -> Hovercraft_obs.Json.t
(** Cluster-wide roll-up: per-node {!Hnode.snapshot}s, membership
    ([voters] / [config_index] / [last_transfer] from the leader's applied
    view), per-link fabric counters and the shared trace ring. *)
