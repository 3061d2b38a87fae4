(** Multi-Raft sharding: S independent HovercRaft groups co-located on
    the same simulated hosts, partitioning the key space by a versioned
    {!Shard_map}, with live slot migration between groups.

    Each group is a full {!Hovercraft_cluster.Deploy} (own fabric, own
    middlebox/aggregator instances) sharing ONE event engine — a single
    simulated timeline. Co-location budget: every group runs on a 1/S
    slice of the per-host NIC rate and of the switch port rate, while
    each group instance keeps its own CPU — the multi-core headroom that
    makes sharding pay. Election seeds are staggered per group (group 0
    keeps the caller's seed) and group g bootstraps node [g mod n], so
    initial leaders spread across hosts.

    Migration reuses the PR-4 snapshot machinery for its bulk transfer
    and rides the target's LOG for installation (an {!Hovercraft_apps.Op}
    [Merge] carrying the sub-range image plus the source's completion
    records), so exactly-once answers survive the handoff. Single-shard
    operations only; cross-shard transactions are out of scope
    (DESIGN.md, Sharding). *)

open Hovercraft_sim
open Hovercraft_core
module Deploy = Hovercraft_cluster.Deploy

type config = {
  shards : int;  (** Groups co-located on the hosts, dormant ones included. *)
  active : int;  (** Groups initially owning slots (the rest are split targets). *)
  slots : int;
  partitioner : Shard_map.partitioner;
  flow_cap : int option;
  fabric_latency : Timebase.t;
  switch_gbps : float;  (** Per-host middlebox/aggregator budget, pre-split. *)
  migration_gbps : float;  (** Background QoS rate of migration transfers. *)
  params : Hnode.params;  (** Per-group node parameters, pre-split budget. *)
}

val config :
  ?active:int ->
  ?slots:int ->
  ?partitioner:Shard_map.partitioner ->
  ?flow_cap:int ->
  ?fabric_latency:Timebase.t ->
  ?switch_gbps:float ->
  ?migration_gbps:float ->
  shards:int ->
  Hnode.params ->
  config
(** Defaults: all shards active, 64 slots, hash partitioning, no flow
    control, 1 us latency, 100 Gbps switch budget, 40 Gbps migration
    class. Validates like {!Deploy.config}. *)

type t

val create : config -> t
(** Stand up all S groups on one engine, install every node's shard
    filter, and attach the per-group migration driver endpoints. *)

val engine : t -> Engine.t
val map : t -> Shard_map.t

val groups : t -> Deploy.t array
(** The S group deployments, index = group id. Per-group fault injection
    (kill, partition, restart) goes through these directly. *)

val shards : t -> int
val migrating : t -> bool
val migrations : t -> int

val notes : t -> (Timebase.t * string) list
(** Migration/driver log: (simulated time, message), oldest first. *)

val client_target : t -> key:string -> int * Hovercraft_net.Addr.t
(** Where a request for [key] goes under the current map: the owning
    group's index and that group's {!Deploy.client_target}. *)

val record_access : t -> key:string -> unit
(** Tally one client routing decision against [key]'s slot in the heat
    map ({!Shard_loadgen} calls this per keyed transmission). *)

val slot_heat : t -> int array
(** Cumulative per-slot access tallies (index = slot), as a fresh copy.
    Samplers diff successive snapshots for per-interval heat, so
    multiple consumers can watch the same deployment. *)

val preload : t -> Hovercraft_apps.Op.t list -> unit
(** Preload by ownership: each keyed op lands on every replica of the
    group owning its key; keyless ops land on every group. *)

val refresh_filters : t -> unit
(** Re-install every node's shard filter. Required after growing a group
    ({!Deploy.add_node}): a node born after {!create} has no filter until
    the next map flip would install one. *)

val move_shard :
  t -> ?on_done:(unit -> unit) -> slots:int list -> target:int -> unit -> unit
(** Start a live migration of [slots] (all owned by one group) to
    [target]: fence, cut, extract, paced chunk transfer, [Merge] into the
    target's log, map flip, [Prune] at the source. Runs on the engine;
    [on_done] fires after the prune commits. One migration at a time;
    raises [Invalid_argument] while one is running, on an empty or
    mixed-ownership slot list, or if [target] already owns the slots. *)

val split_shard :
  t -> ?on_done:(unit -> unit) -> source:int -> target:int -> unit -> unit
(** {!Shard_map.split_plan} + {!move_shard}: move the upper half of
    [source]'s slots to [target] (typically a dormant group). *)
