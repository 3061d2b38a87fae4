(** The failure-timeline experiment (Fig. 12): fixed offered load on a
    HovercRaft++ cluster with flow control, leader killed mid-run, per-
    bucket throughput / p99 / NACK series out. *)

open Hovercraft_sim
open Hovercraft_core

type bucket = {
  t_s : float;  (** Bucket start, seconds from measurement start. *)
  krps : float;  (** Completed replies per second in the bucket. *)
  p99_us : float option;
  nacks : int;
}

val print_series : bucket list -> unit
(** Print a series as the [t (s) / kRPS / p99 us / NACKs] table. *)

type outcome = {
  series : bucket list;
  killed_at_s : float;
  killed_node : int option;
  new_leader : int option;
  total_nacked : int;
  consistent : bool;  (** Surviving replicas agree after drain. *)
}

val merge_series :
  bucket_width:Timebase.t ->
  completions:Series.bucket list ->
  nacks:Series.bucket list ->
  bucket list
(** Join the completion and NACK series on the {e union} of their bucket
    keys. A bucket with NACKs but zero completions (a total blackout
    window) still appears, with [krps = 0.] and its NACK count intact. *)

val run :
  ?params:Hnode.params ->
  ?rate_rps:float ->
  ?flow_cap:int ->
  ?bucket:Timebase.t ->
  ?duration:Timebase.t ->
  ?kill_after:Timebase.t ->
  workload:(Rng.t -> Hovercraft_apps.Op.t) ->
  seed:int ->
  unit ->
  outcome
