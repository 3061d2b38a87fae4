(** The Raft consensus state machine, pure with respect to time and IO.

    [handle] consumes one input (a received message, an expired timer, a
    client command, or an application-progress report) and returns the
    resulting actions. The embedder owns clocks, transport, randomized
    timeout durations and the applying thread; this module owns terms,
    voting, log consistency and commit safety. That split is what lets the
    property-based tests drive thousands of adversarial schedules through
    the exact code that runs in the simulator.

    Leader-side replication supports the knobs HovercRaft needs without
    changing the core algorithm (§5):

    - an {e announce gate}: before an entry is sent to any follower for the
      first time, a callback may veto the announcement (bounded queues) or
      decorate the command (replier assignment);
    - {e aggregated replication} (HovercRaft++): when enabled, in-sync
      followers are served by a single append_entries addressed to the
      aggregator; followers that fail an append_entries fall back to
      point-to-point recovery with the leader until they catch up.

    Membership is {e dynamic} (Raft §4, single-server changes): the
    embedder installs a decoder recognizing configuration entries inside
    the command type; a config entry adds or removes exactly one voter,
    takes effect the moment it is appended, and only one change may be in
    flight at a time. Quorums are majorities of the current configuration.
    {!input.Transfer_leadership} implements cooperative handoff via
    {!Types.message.Timeout_now}. *)

type role = Follower | Candidate | Leader

val pp_role : Format.formatter -> role -> unit

type config = {
  id : Types.node_id;
  peers : Types.node_id array;
      (** Other members of the {e bootstrap} configuration; config-change
          log entries replace the member set from there on. *)
  batch_max : int;  (** Max entries per append_entries. *)
  eager_commit_notify : bool;
      (** Broadcast [Commit_to] as soon as the commit index advances and no
          entry traffic is pending; keeps follower repliers prompt in plain
          HovercRaft (HovercRaft++ gets this for free from AGG_COMMIT). *)
  snap_chunk_bytes : int;
      (** Bytes of snapshot image per [Install_snapshot] chunk. One chunk
          is in flight per follower (same pacing as append_entries), so
          this bounds the transfer's burst size on the fabric. *)
}

type ('cmd, 'snap) action =
  | Send of Types.node_id * ('cmd, 'snap) Types.message
  | Send_aggregate of ('cmd, 'snap) Types.message
      (** Leader -> in-network aggregator (HovercRaft++ fast path). *)
  | Commit_advanced of int  (** New commit index (entries are ready to apply). *)
  | Appended of int  (** Index assigned to a client command (leader only). *)
  | Became_leader
  | Became_follower of Types.node_id option  (** Known leader, if any. *)
  | Leader_activity
      (** Legitimate leader contact (or granted vote); the embedder resets
          its election clock. *)
  | Reject_command of 'cmd
      (** Client command received while not leader; embedder may redirect. *)
  | Snapshot_installed of 'snap Snapshot.meta
      (** A received snapshot was spliced into the log (emitted {e before}
          the accompanying [Commit_advanced]): the embedder must replace
          its state machine with the carried image — the covered entries
          will never be delivered for application. *)

type ('cmd, 'snap) input =
  | Receive of ('cmd, 'snap) Types.message
  | Election_timeout
  | Heartbeat_timeout
  | Client_command of 'cmd
  | Applied_up_to of int
      (** The application thread finished applying entries up to this
          index. Feeds [applied_idx] in acks and unblocks announcing. *)
  | Announce_kick
      (** A previously gate-blocked announce may now pass (e.g. a bounded
          replier queue drained): re-run replication without waiting for
          the next heartbeat. No-op on non-leaders. *)
  | Transfer_leadership of Types.node_id
      (** Leader only: stop accepting client commands, bring the target
          fully up to date, then send it [Timeout_now]. Cleared on any
          role or term change. No-op on non-leaders, on non-member
          targets, and on self. *)

(** Protocol milestones surfaced to the observability layer (never part of
    the action list — observers must not influence the algorithm). *)
type obs_event =
  | Obs_election_started of Types.term
  | Obs_leadership_won of Types.term
  | Obs_leadership_lost of Types.term
  | Obs_commit_advanced of int
  | Obs_announced_to of int
  | Obs_announce_gated of int
      (** The announce gate vetoed this index (all replier queues full). *)
  | Obs_config_changed of int * Types.node_id list
      (** A configuration (entry index, member list) became current —
          on append, or by rollback when a conflicting leader truncates an
          uncommitted config entry away. *)
  | Obs_transfer_sent of Types.node_id
      (** [Timeout_now] was sent to this transfer target. *)
  | Obs_snapshot_taken of int
      (** A checkpoint covering up to this index was registered
          ({!set_snapshot} or a completed install). *)
  | Obs_install_started of Types.node_id * int
      (** Leader began shipping the snapshot (covering up to the index)
          to this follower. *)
  | Obs_install_completed of Types.node_id * int
      (** The follower acknowledged the full image. *)

type ('cmd, 'snap) t

val create : config -> noop:'cmd -> ('cmd, 'snap) t
(** [noop] is appended when winning an election so the new term always has
    a committable entry (standard leader-completeness practice). *)

(** {1 Observers} *)

val id : ('cmd, 'snap) t -> Types.node_id
val role : ('cmd, 'snap) t -> role
val term : ('cmd, 'snap) t -> Types.term
val leader_hint : ('cmd, 'snap) t -> Types.node_id option
val log : ('cmd, 'snap) t -> 'cmd Log.t
val commit_index : ('cmd, 'snap) t -> int
val applied_index : ('cmd, 'snap) t -> int
val announced_index : ('cmd, 'snap) t -> int
val voted_for : ('cmd, 'snap) t -> Types.node_id option

val cluster_size : ('cmd, 'snap) t -> int
(** Size of the current configuration. *)

val members : ('cmd, 'snap) t -> Types.node_id list
(** The current configuration's member list, sorted. *)

val config_index : ('cmd, 'snap) t -> int
(** Log index of the entry that established the current configuration
    (0 for the bootstrap config). [config_index t > commit_index t] means
    a membership change is still in flight. *)

val is_member : ('cmd, 'snap) t -> Types.node_id -> bool

val transfer_target : ('cmd, 'snap) t -> Types.node_id option
(** Pending leadership-transfer target, if any (leader only). *)

val applied_index_of : ('cmd, 'snap) t -> Types.node_id -> int
(** Leader's latest knowledge of a peer's applied index (0 initially). *)

val match_index_of : ('cmd, 'snap) t -> Types.node_id -> int

val note_peer_applied : ('cmd, 'snap) t -> Types.node_id -> int -> unit
(** [note_peer_applied t p applied]: a leader learns that peer [p] has
    applied up to [applied] by a route other than [p]'s own ack — in
    HovercRaft++ the aggregator's completed registers. Raises the peer's
    known applied index (never lowers it); ignored off-leader and for
    non-peers. Without a snapshot it bounds compaction
    (see {!compaction_bound}). *)

(** {1 Replication knobs} *)

val set_announce_gate : ('cmd, 'snap) t -> (int -> 'cmd -> bool) option -> unit
(** The gate is called once per entry, in index order, when the leader is
    about to announce it; returning [false] stops announcement (it will be
    retried on the next replication opportunity). *)

val set_observer : ('cmd, 'snap) t -> (obs_event -> unit) option -> unit
(** Install a callback receiving {!obs_event}s as they happen. Purely
    observational; not preserved across {!dump}/{!restore}. *)

val set_config_decoder : ('cmd, 'snap) t -> ('cmd -> Types.node_id array option) -> unit
(** Teach the node to recognize configuration entries inside the opaque
    command type: [Some members] marks a config entry carrying the full
    new member list. Without a decoder (the default) membership is static.
    A leader rejects ({!action.Reject_command}) config commands that
    change more than one voter, arrive while a previous change is
    uncommitted, or arrive mid-transfer. *)

val set_aggregated : ('cmd, 'snap) t -> bool -> unit
(** Toggle the HovercRaft++ fast path. The embedder switches it on only
    after probing the aggregator (§5). Resets to off on role change. *)

val aggregated : ('cmd, 'snap) t -> bool

(** {1 Snapshots and log compaction}

    The embedder checkpoints its state machine ({!set_snapshot}); from
    then on the checkpointed prefix may be compacted away regardless of
    follower progress — a follower whose next_index falls below the log
    base (or that joins fresh, PR 3 [add_node]) is served the image in
    chunks ([Install_snapshot], one chunk in flight, offset-based flow
    control, resumable across drops and leader changes). The receiver
    splices the image in, emits {!action.Snapshot_installed} so the
    embedder can load it, and entry replication resumes after the covered
    prefix. *)

val set_snapshot : ('cmd, 'snap) t -> 'snap Snapshot.meta -> unit
(** Register a checkpoint of the applied state machine. Must not exceed
    the applied index; older or equal checkpoints are ignored (the newest
    wins; in-flight transfers of a superseded image restart). *)

val snapshot : ('cmd, 'snap) t -> 'snap Snapshot.meta option
(** The newest registered checkpoint (local or installed). *)

val snapshot_index : ('cmd, 'snap) t -> int
(** Last index covered by the snapshot; 0 when none. *)

val compaction_bound : ('cmd, 'snap) t -> int
(** Highest index safe to discard: the snapshot's covered prefix when one
    exists (lagging followers are served the image); otherwise applied
    locally and, on a leader, held by every follower — acknowledged
    (match index) or applied there ({!note_peer_applied}) — replay being
    the only recovery path then. *)

val compact : ('cmd, 'snap) t -> retain:int -> int
(** Compact the log up to [compaction_bound] while always retaining the
    most recent [retain] entries; returns the new base. Call it
    periodically (the simulator does so from the GC loop). *)

(** {1 Crash recovery} *)

val recover : ('cmd, 'snap) t -> unit
(** Rebuild volatile state after a simulated crash–restart. Persistent
    state (term, vote, log — the configuration stack, derivable from
    the log plus the bootstrap config — and the snapshot, which is the
    durable applied-prefix checkpoint) and the applied prefix of the
    state machine survive; the node re-enters as a follower with [commit]
    and [verified] floored at [applied] (applied entries are committed,
    so by leader completeness every future leader carries them), no
    leader hint, the announce gate uninstalled, any half-received install
    discarded and all leader-side replication state reset. The embedder
    is responsible for re-arming clocks and rebuilding its own volatile
    structures. *)

(** {1 The state machine} *)

val handle : ('cmd, 'snap) t -> ('cmd, 'snap) input -> ('cmd, 'snap) action list
(** Process one input; returns actions in the order they must be
    performed. *)

(** {1 Dump / restore}

    The full mutable state as a pure, structurally comparable value. Used
    by the explicit-state model checker to branch execution: states are
    dumped, deduplicated with structural compare, and restored to explore
    successor transitions — so the checker exercises this exact
    implementation, not a re-modelling of it. Compacted logs dump too:
    the dump carries [(base, base_term)], the retained suffix, the
    registered snapshot and any in-progress install. *)

type ('cmd, 'snap) dump

val dump : ('cmd, 'snap) t -> ('cmd, 'snap) dump
val restore : config -> noop:'cmd -> ('cmd, 'snap) dump -> ('cmd, 'snap) t
val compare_dump : ('cmd, 'snap) dump -> ('cmd, 'snap) dump -> int
(** Structural comparison (commands are compared with polymorphic
    compare; use simple command types in checked models). *)

type 'cmd dump_info = {
  i_term : Types.term;
  i_role : role;
  i_commit : int;
  i_base : int;  (** Compaction point: entries at or below it live in the
                     snapshot, not in [i_entries]. *)
  i_entries : 'cmd Types.entry list;  (** Index [i_base + 1] first. *)
}

val dump_info : ('cmd, 'snap) dump -> 'cmd dump_info
(** The observable fields invariant checks need, without restoring. *)
