(** Sharded capacity experiments: the [shardscale] study — achievable
    throughput under a p99 SLO as the shard count grows on a fixed
    per-host budget, found by {!Hovercraft_cluster.Experiment.knee} over
    sharded probes. *)

open Hovercraft_sim

val shardscale :
  ?quality:Hovercraft_cluster.Experiment.quality ->
  ?slo:Timebase.t ->
  ?shard_counts:int list ->
  ?n:int ->
  ?seed:int ->
  unit ->
  (int * float) list
(** [(shards, knee_rps)] for each count in [shard_counts] (default
    [1; 2; 4; 8]) on YCSB-B, per-host NIC/switch budget held FIXED — each
    group runs on a 1/S slice — so the measured scaling is the multi-core
    one the paper's single-group design leaves on the table. *)
