(** Chaos testing: timed crash / restart / partition / slow-node
    schedules driven against one or more Raft groups under load, with one
    history checker over the replicas' committed logs and the
    client-observed completions.

    After a heal-and-restart epilogue the checker verifies, in each group:

    - {e exactly-once execution}: each replica's execution counter equals
      what its applied log prefix prescribes: a write at its first
      ordering (a retried write ordered twice still executed once), a
      read at every ordering whose replier is that replica;
    - {e prefix agreement}: live replicas agree (term and request id) at
      every shared committed index;
    - {e catch-up}: every live replica (including restarted ones) has
      applied everything any replica committed;
    - {e consistency}: live replicas' application fingerprints agree;
    - {e no wedged recovery}: no body recovery is still pending once the
      run has settled.

    Across groups, every write whose reply a client received was executed
    by exactly one group's longest live committed log, or is covered by a
    shard migration's [Merge] completion records — a migration's fence can
    neither run a request on both sides nor lose it. With one group this
    is committed-stays-committed: no crash, election or partition
    un-commits an acknowledged write.

    A run passes iff the violation list is empty; every failed invariant,
    a pending recovery included, adds a line to it.

    Runs are deterministic per seed: equal seeds replay the same schedule
    against the same simulated load, byte for byte. *)

open Hovercraft_sim
open Hovercraft_core
open Hovercraft_r2p2

type event =
  | Kill_leader  (** Crash the current leader ({!Deploy.kill_leader}). *)
  | Kill of int  (** Crash a node by id; skipped if already dead. *)
  | Restart of int  (** {!Hnode.restart} a node; skipped if alive. *)
  | Partition of int list list
      (** Split the fabric into node islands; nodes absent from every
          island (and clients, middleboxes, the aggregator) keep global
          reachability. *)
  | Heal  (** Remove the partition. *)
  | Add_node
      (** Grow the cluster by one voter ({!Deploy.add_node}); the new node
          gets the next unused id. *)
  | Remove_node of int
      (** Drive a node out of the configuration and decommission it
          ({!Deploy.remove_node}); the current leader is a legal target. *)
  | Transfer of int
      (** Cooperative leadership transfer to a node id; skipped if the
          target is dead or removed. *)
  | Slow of { node : int; delay : Timebase.t }
      (** Make a node slow but alive: every link between it and the
          aggregator, the flow-control middlebox and each other node
          gains [delay] extra wire latency in both directions. The node
          keeps answering, just late (the failure mode leadership
          transfer exists for). {!conclude} clears it. *)
  | Shard of int * event
      (** Route the inner event to Raft group [g] of a sharded (multi-
          group) deployment; see {!arm}. *)

type step = { at : Timebase.t; event : event }
(** [at] is relative to the start of the chaos run. *)

val pp_event : Format.formatter -> event -> unit

val random_schedule :
  ?events:int ->
  ?reconfig:bool ->
  ?shards:int ->
  n:int ->
  duration:Timebase.t ->
  seed:int ->
  unit ->
  step list
(** Generate a seeded schedule of up to [events] faults over the first
    70% of [duration], keeping (on the generator's model) a quorum of
    members alive at all times, never killing into a partition, and ending
    with a cleanup tail that heals and restarts everything so the run can
    converge. With [reconfig] (default false) the mix also includes
    [Add_node] / [Remove_node] / [Transfer] membership churn, tracked in
    the same model (removals only while everything is healthy and at least
    four members remain); without it, schedules are identical to what
    older seeds produced. Deterministic per [seed]. Requires [n >= 3].

    [shards] (default 1) targets a sharded deployment: each group [g] of
    [shards] gets an independent schedule of up to [events] faults under a
    seed derived from [seed], wrapped in [Shard g] and merged in time
    order. [shards = 1] is a strict no-op — the caller's seed drives the
    single-group generator directly, with zero extra RNG draws, so every
    historical seed replays byte for byte. *)

type verdict = {
  violations : string list;
      (** Empty on a correct run. Per-group lines are prefixed
          ["shardG: "] when there is more than one group. *)
  exactly_once_ok : bool;
      (** Per-replica execution counts AND no write executed by more
          than one group. *)
  committed_preserved : bool;
      (** Every client-completed write is in some group's committed log
          (or vouched for by migrated completion records). *)
  caught_up : bool;
  consistent : bool;
  pending_recoveries : int;
      (** {!Deploy.total_pending_recoveries} summed over the groups after
          the final settle; nonzero means a body recovery wedged. *)
}
(** The history checker's result. *)

type outcome = {
  series : Failure.bucket list;
      (** Per-bucket throughput / p99 / NACKs, as in {!Failure.run}. *)
  events : (float * string) list;
      (** What was actually applied, (seconds from start, description) —
          includes schedule entries skipped as illegal and the epilogue's
          heals/restarts. *)
  verdict : verdict;
  report : Loadgen.report;
  retried : int;  (** Client retransmissions (same rid, exactly-once). *)
  final_members : int list;
      (** The leader's applied configuration after the epilogue — what the
          membership churn converged to. *)
  max_log_base : int;
      (** Highest compaction base across live nodes after the epilogue;
          0 unless the run compacted (snapshot runs should see it advance
          past crash points). *)
  installs : int;
      (** Total snapshots installed across live nodes — catch-ups served
          via [Install_snapshot] rather than entry replay. *)
}

val drain : Timebase.t
(** 100 ms: how long every fault run drains stragglers after its load
    window, before the epilogue. *)

val flow_cap : int
(** 1000: the flow-control middlebox's in-flight cap in every fault run. *)

val arm :
  Deploy.t array ->
  t0:Timebase.t ->
  timelines:(float * string) list ref array ->
  step list ->
  unit
(** Schedule every step on the groups' shared engine. [Shard (g, e)]
    applies [e] to group [g]; an untagged event goes to group 0; a tag
    that names no group is noted as skipped on group 0's timeline. Each
    applied event appends a note (seconds since [t0], description) to its
    group's timeline, including events skipped as illegal (dead target,
    unknown node, membership churn under Rabia). *)

val tagged_events : (float * string) list ref array -> (float * string) list
(** The groups' timelines as one list, oldest first, each note prefixed
    ["shardG: "] by its group [G]; ties keep group order. *)

val widen :
  Hnode.params -> duration:Timebase.t -> snapshots:int option -> Hnode.params
(** The parameter widening {!run} applies for a [duration] run (see
    there), exposed so runners that stand up their own deployments keep
    crashes recoverable the same way. *)

val check : Deploy.t array -> completed_writes:R2p2.req_id list -> verdict
(** Run the history checker against quiesced groups (one {!Deploy.t} per
    Raft group). [completed_writes] are the request ids of non-read
    operations whose replies clients received. Exposed for tests;
    {!conclude} calls it for you. With no live replica left in any group,
    any completed write is a violation.

    The checker is compaction-aware: exact log-derived execution counts
    apply only to nodes whose full history is scannable (base 0, no
    installs); catch-up via install is verified through state
    fingerprints instead of raw log prefixes, and a completed write
    missing from every log is a violation only while no group's longest
    log has compacted. Compacting with snapshots off leaves nothing
    behind the base to vouch for it, so a live node with [log_base > 0]
    in a group whose [snapshot_interval = 0] raises [Invalid_argument]
    rather than passing vacuously. *)

val conclude :
  ?busy:(unit -> bool) ->
  Deploy.t array ->
  t0:Timebase.t ->
  timelines:(float * string) list ref array ->
  completed_writes:R2p2.req_id list ->
  verdict
(** The epilogue of every fault run. For each group: heal any partition,
    clear link faults and restart every dead node still in the
    configuration, noting each heal and restart on the group's timeline.
    Then quiesce the shared engine 200 ms at a time, for at most 50 more
    rounds after the first, until [busy ()] (default: never) is false and
    every group has no pending body recovery and every live replica has
    applied its group's commit index; a wedge still ends the loop, and
    the checker then fails it. Last, {!check}. *)

val run :
  ?params:Hnode.params ->
  ?n:int ->
  ?rate_rps:float ->
  ?duration:Timebase.t ->
  ?reconfig:bool ->
  ?snapshots:int ->
  ?schedule:step list ->
  workload:(Rng.t -> Hovercraft_apps.Op.t) ->
  seed:int ->
  unit ->
  outcome
(** Drive [schedule] (default: {!random_schedule} from [seed], with
    membership churn when [reconfig] is set) against a
    fresh deployment (default: HovercRaft++, [n] = 5, flow control capped
    at 1000 in-flight requests) under open-loop load with client retries;
    the series is bucketed at 100 ms. [params]' body-retention and log
    windows are widened so crashes stay recoverable and the checker can
    scan full logs: [gc_ordered] covers the run and [log_retain] disables
    compaction for its duration. With [snapshots = Some interval] the run
    instead checkpoints every [interval] applied entries and retains only
    [interval] log entries, forcing lagging or restarted nodes through
    the [Install_snapshot] path. After the load window and a 100 ms
    drain, {!conclude} runs. *)
