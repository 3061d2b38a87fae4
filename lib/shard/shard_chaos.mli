(** Chaos testing for sharded deployments: per-group fault schedules and
    live migrations under shard-routed load, with a shard-aware history
    checker.

    Per group, the {!Hovercraft_cluster.Chaos} invariants hold (prefix
    agreement, per-replica exactly-once, catch-up). Across the map, every
    write a client saw answered must appear in EXACTLY one group's
    committed history — a migration's dual-ownership fence may delay a
    request, but can neither double-execute it (both sides of a move) nor
    lose it (the flip dropping an acknowledged write). A rid carried by a
    [Merge]'s completion records counts as executed at the source. *)

open Hovercraft_sim
open Hovercraft_core

type migration =
  | Split of { source : int; target : int }
      (** {!Shard_deploy.split_shard}: move the upper half of [source]'s
          slots to [target]. *)
  | Move of { slots : int list; target : int }
      (** {!Shard_deploy.move_shard} of an explicit slot list. *)

val pp_migration : Format.formatter -> migration -> unit

val settle_and_check :
  Shard_deploy.t ->
  snapshots:bool ->
  completed_writes:Hovercraft_r2p2.R2p2.req_id list ->
  string list * bool * bool * bool * bool
(** The post-run epilogue shared by every sharded runner, after its own
    heal-and-restart: quiesce for at most 50 rounds until no migration is
    in flight, no body recovery is pending and every live replica has
    applied its group's commit index; then run the per-group
    {!Hovercraft_cluster.Chaos.check} (compaction-aware with
    [snapshots]), the map-level check over the client-completed writes
    (none in more than one group's committed history, none lost; needs
    [log_retain] pinned high so full histories are scannable) and the
    fingerprint comparison. Returns [(violations, exactly_once_ok,
    committed_preserved, caught_up, consistent)], per-group violations
    ["shardN: "]-prefixed. *)

type outcome = {
  report : Hovercraft_cluster.Loadgen.report;
  events : (float * string) list;
      (** Faults applied (["shardN: ..."]-prefixed), migration phases, and
          skipped entries, (seconds from start, description), time-sorted. *)
  violations : string list;  (** Empty on a correct run. *)
  exactly_once_ok : bool;
      (** Per-replica counts AND no write executed in more than one
          group. *)
  committed_preserved : bool;
      (** Every client-completed write is in some group's committed log
          (or vouched for by migrated completion records). *)
  caught_up : bool;
  consistent : bool;
  retried : int;  (** Timeout retransmissions (same rid). *)
  rerouted : int;  (** [Wrong_shard]-triggered re-sends. *)
  migrations : int;  (** Completed migrations. *)
  map_version : int;  (** Final shard-map version (1 = never moved). *)
  pending_recoveries : int;
}

val run :
  ?params:Hnode.params ->
  ?n:int ->
  shards:int ->
  ?active:int ->
  ?rate_rps:float ->
  ?flow_cap:int ->
  ?duration:Timebase.t ->
  ?drain:Timebase.t ->
  ?reconfig:bool ->
  ?schedule:Hovercraft_cluster.Chaos.step list ->
  ?migrations:(Timebase.t * migration) list ->
  ?preload:Hovercraft_apps.Op.t list ->
  workload:(Rng.t -> Hovercraft_apps.Op.t) ->
  seed:int ->
  unit ->
  outcome
(** Drive [schedule] (default {!Hovercraft_cluster.Chaos.random_schedule}
    with [shards]) plus [migrations] (each started at its offset; skipped
    with a note if another is still in flight) against a fresh
    {!Shard_deploy} under shard-routed load with client retries, then
    heal, restart, converge — waiting out any in-flight migration — and
    check.

    Raises [Invalid_argument] on [shards < 2]: a one-group run is
    {!Hovercraft_cluster.Chaos.run}. *)
