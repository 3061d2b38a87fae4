(** Chaos testing for sharded deployments: per-group fault schedules and
    live migrations under shard-routed load, judged by the one
    {!Hovercraft_cluster.Chaos} history checker over every group.

    Per group the checker's invariants hold (prefix agreement,
    per-replica exactly-once, catch-up, fingerprints, no wedged
    recovery). Across the map, every write a client saw answered must
    appear in EXACTLY one group's committed history — a migration's
    dual-ownership fence may delay a request, but can neither
    double-execute it (both sides of a move) nor lose it (the flip
    dropping an acknowledged write). A rid carried by a [Merge]'s
    completion records counts as executed at the source. *)

open Hovercraft_sim
open Hovercraft_core

type migration =
  | Split of { source : int; target : int }
      (** {!Shard_deploy.split_shard}: move the upper half of [source]'s
          slots to [target]. *)
  | Move of { slots : int list; target : int }
      (** {!Shard_deploy.move_shard} of an explicit slot list. *)

val pp_migration : Format.formatter -> migration -> unit

type outcome = {
  report : Hovercraft_cluster.Loadgen.report;
  events : (float * string) list;
      (** Faults applied (["shardN: ..."]-prefixed), migration phases, and
          skipped entries, (seconds from start, description), time-sorted. *)
  verdict : Hovercraft_cluster.Chaos.verdict;
      (** Per-group violations ["shardN: "]-prefixed. *)
  retried : int;  (** Timeout retransmissions (same rid). *)
  rerouted : int;  (** [Wrong_shard]-triggered re-sends. *)
  migrations : int;  (** Completed migrations. *)
  map_version : int;  (** Final shard-map version (1 = never moved). *)
}

val run :
  ?params:Hnode.params ->
  ?n:int ->
  shards:int ->
  ?active:int ->
  ?rate_rps:float ->
  ?duration:Timebase.t ->
  ?schedule:Hovercraft_cluster.Chaos.step list ->
  ?migrations:(Timebase.t * migration) list ->
  ?preload:Hovercraft_apps.Op.t list ->
  workload:(Rng.t -> Hovercraft_apps.Op.t) ->
  seed:int ->
  unit ->
  outcome
(** Drive [schedule] (default {!Hovercraft_cluster.Chaos.random_schedule}
    with [shards]; dispatched by {!Hovercraft_cluster.Chaos.arm}) plus
    [migrations] (each started at its offset; skipped with a note if
    another is still in flight) against a fresh {!Shard_deploy} under
    shard-routed load with client retries and the
    {!Hovercraft_cluster.Chaos} flow cap and drain, then
    {!Hovercraft_cluster.Chaos.conclude}: recover every group, converge —
    waiting out any in-flight migration — and check.

    Raises [Invalid_argument] on [shards < 2]: a one-group run is
    {!Hovercraft_cluster.Chaos.run}. *)
