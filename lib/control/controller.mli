(** The SLO-driven autoscaling control loop.

    Samples the observability surface of a sharded deployment — per-group
    windowed p99 from the load generator's client-side SLI, per-slot key
    heat from the router tallies, leader commit/apply backlog, and node
    liveness — once per tick, and reacts through the existing
    reconfiguration verbs:

    - a breached group that is {e hot} (heat share above its fair share,
      or a deep apply backlog) sheds load: {!Shard_deploy.split_shard}
      onto a dormant group when one exists, else
      {!Shard_deploy.move_shard} of its hottest slots to the coolest
      group;
    - a breached group that is {e not} hot points at a slow node on the
      ordering path: leadership is transferred to the most caught-up
      follower (try-and-observe; the node just demoted is never the next
      target);
    - a node dead for [breach_ticks] consecutive ticks is replaced:
      {!Hovercraft_cluster.Deploy.remove_node} of the corpse first (a
      dead voter contributes to no quorum, so this costs no headroom),
      then [add_node] — add-first would put the empty newcomer in every
      quorum until the removal commits, stalling commits behind its
      catch-up replay.

    Stability invariants (DESIGN.md §4g): {e hysteresis} — a group must
    breach the SLO for [breach_ticks] consecutive windows before any
    action; {e one action in flight per group} — a group with a pending
    migration/repair/transfer takes no further action, and migrations
    additionally serialize globally through the migration fence;
    {e cooldown} — after an action completes its group(s) stay quiet for
    [cooldown], so the next decision sees post-action windows only.

    The controller never schedules itself: the owner of the measurement
    cadence (the scenario runner, which also rotates the latency windows)
    calls {!tick}. *)

open Hovercraft_sim
module Shard_deploy = Hovercraft_shard.Shard_deploy
module Loadgen = Hovercraft_cluster.Loadgen

type config = {
  slo_p99 : Timebase.t;  (** The latency objective per window. *)
  breach_ticks : int;
      (** Consecutive breached windows (or ticks seen dead) before
          acting — the hysteresis. *)
  cooldown : Timebase.t;  (** Per-group quiet period after an action. *)
  min_samples : int;
      (** Windows with fewer samples are not judged (an idle group's
          noise must not trigger migrations). *)
  hot_share : float;
      (** A group is hot when its heat exceeds this multiple of the fair
          (per-active-group) share. *)
  backlog_limit : int;
      (** Leader commit-minus-applied depth that also counts as
          saturation. *)
  transfer_ticks : int;
      (** Patience for a leadership transfer to land before the group is
          released (into cooldown) anyway. *)
  max_actions : int;  (** Hard ceiling on actions per run (safety valve). *)
}

val config :
  ?slo_p99:Timebase.t ->
  ?breach_ticks:int ->
  ?cooldown:Timebase.t ->
  ?min_samples:int ->
  ?hot_share:float ->
  ?backlog_limit:int ->
  ?transfer_ticks:int ->
  ?max_actions:int ->
  unit ->
  config
(** Defaults: 500 us SLO, 2-tick hysteresis, 300 ms cooldown, 32-sample
    minimum, 1.25x hot share, 4096-entry backlog limit, 5-tick transfer
    patience, 32 actions. Validates ranges. *)

type t

val create : ?cfg:config -> Shard_deploy.t -> Loadgen.t -> t
(** Attach to a deployment and the load generator whose windowed
    latencies are the SLI. Takes a heat baseline at creation, so the
    first tick sees only post-attach demand. *)

val tick : t -> unit
(** One control decision, reading the windows the caller just rotated
    ({!Hovercraft_obs.Metrics.rotate}): update in-flight action state,
    replace long-dead nodes, then run the SLO policy per group. *)

val actions : t -> (Timebase.t * string) list
(** Every action taken, (simulated time, description), oldest first —
    deterministic under a fixed seed. *)

val ticks : t -> int
val action_count : t -> int

val busy : t -> bool
(** Any action still in flight (epilogues wait for quiet). *)
