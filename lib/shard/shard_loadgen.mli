(** Shard routing for {!Hovercraft_cluster.Loadgen}.

    A constructor only: the generator is the ordinary one, driving every
    group's fabric, with each request routed by its key through the live
    {!Shard_map} to the owning group (keyless requests to a group derived
    from the request id) and every keyed transmission tallied in the
    deployment's slot-heat map ({!Shard_deploy.slot_heat}). Read the
    windows and counters through {!Hovercraft_cluster.Loadgen}. *)

open Hovercraft_sim

type t = Hovercraft_cluster.Loadgen.t

val create :
  Shard_deploy.t ->
  clients:int ->
  rate_rps:float ->
  ?profile:Hovercraft_cluster.Traffic.profile ->
  workload:(Rng.t -> Hovercraft_apps.Op.t) ->
  ?retry:Timebase.t * int ->
  ?on_reply:
    (rid:Hovercraft_r2p2.R2p2.req_id ->
    op:Hovercraft_apps.Op.t ->
    sent_at:Timebase.t ->
    latency:Timebase.t ->
    unit) ->
  ?on_nack:(at:Timebase.t -> unit) ->
  seed:int ->
  unit ->
  t
(** Attach [clients] endpoints, each with a port on every group's fabric.
    [profile]/[retry]/[on_reply]/[on_nack] as in
    {!Hovercraft_cluster.Loadgen.create}. *)

val run :
  t ->
  warmup:Timebase.t ->
  duration:Timebase.t ->
  ?drain:Timebase.t ->
  unit ->
  Hovercraft_cluster.Loadgen.report
(** {!Hovercraft_cluster.Loadgen.run}. *)
