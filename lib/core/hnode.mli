(** A HovercRaft server node on the simulated fabric.

    One [Hnode.t] is one server: a NIC port, a network thread (R2P2 +
    consensus processing) and an application thread (state-machine
    execution and client replies), mirroring the paper's two-thread DPDK
    runtime (§6). The node runs in one of four modes, matching the four
    evaluated setups (§7):

    - [Unreplicated]: plain R2P2 service, no fault tolerance;
    - [Vanilla]: Raft integrated in the RPC layer; append_entries carry
      full request bodies; the leader executes and answers everything;
    - [Hover]: HovercRaft — clients multicast bodies, append_entries carry
      metadata only, replies and read-only execution are load balanced
      under bounded queues;
    - [Hover_pp]: HovercRaft++ — additionally fans append_entries in/out
      through the in-network aggregator. *)

open Hovercraft_sim
open Hovercraft_r2p2
module Addr = Hovercraft_net.Addr
module Fabric = Hovercraft_net.Fabric

type mode = Unreplicated | Vanilla | Hover | Hover_pp

(** How read-only requests are served (§3.5): totally ordered and executed
    on the designated replier (HovercRaft's way), or locally on the leader
    under a quorum lease (the classic alternative — cheaper per read,
    but every read burns leader CPU). *)
type read_mode = Replicated_reads | Leader_leases

(** The ordering backend beneath the HovercRaft dataplane
    ({!Hovercraft_ordering.Ordering.kind}, re-exported): [Raft] is the
    paper's leader-based log; [Rabia] a leaderless randomized-agreement
    machine ({!Hovercraft_ordering.Rabia}) — no elections, no failover
    gap, but per-slot vote rounds. [Rabia] requires [mode = Hover] with
    replicated reads (validated): the aggregated fast path, vanilla body
    shipping, leases, reconfiguration and leadership transfer are all
    leader-shaped. *)
type backend = Hovercraft_ordering.Ordering.kind = Raft | Rabia

val pp_mode : Format.formatter -> mode -> unit
val mode_of_string : string -> (mode, string) result

(** {1 Parameters}

    Knobs are grouped by concern: {!cost_params} calibrates the simulated
    CPU/NIC price of every operation, {!timing_params} holds clocks and
    windows, {!feature_params} toggles protocol variants. Build with
    {!params} and tweak sub-records with nested [with]-update:
    [{ p with timing = { p.timing with heartbeat = Timebase.us 100 } }]. *)

(** Network- and application-thread CPU cost model. *)
type cost_params = {
  link_gbps : float;
  stage_handoff_ns : int;
      (** Queue hop between pipeline stages of the compartmentalized net
          path (enqueue + cacheline transfer between cores). Only charged
          when [net_stages > 1]. *)
}

(** Clocks, timeouts and retention windows. *)
type timing_params = {
  heartbeat : Timebase.t;
  election_min : Timebase.t;
  election_max : Timebase.t;
  lease_window : Timebase.t;
      (** Quorum-contact freshness required to serve a lease read; must
          stay below [election_min] (validated). *)
  gc_unordered : Timebase.t;
  gc_ordered : Timebase.t;
}

(** Protocol variants and their knobs. *)
type feature_params = {
  apply_threads : int;
      (** Simulated application threads per node (K, 1..64). The apply
          loop is a dependency-aware dispatcher: committed entries with
          disjoint footprints ({!Hovercraft_apps.Op.footprint}) run on
          separate simulated CPUs — same-key operations hash to a fixed
          thread and serialize in log order; global-footprint operations,
          config entries and checkpoint cuts barrier the whole scheduler.
          At K = 1 its in-flight window is one entry, which is the
          paper's serial apply loop. State mutation stays at dispatch
          time in log order, so replicas remain byte-identical and
          exactly-once is unaffected; only the CPU timing model
          (throughput, reply latency) parallelizes. *)
  net_stages : int;
      (** Simulated CPUs for the network hot path (1..4). 1 keeps the
          paper's monolithic net thread byte for byte. Higher settings
          compartmentalize it into pipeline stages — ingress (rx decode,
          loss accounting), sequencer (raft feed and ordering, strictly
          serial), fanout (AppendEntries/aggregator bookkeeping, commit
          tracking), replier (reply tx, recovery resolution) — each with
          its own CPU queue; with fewer CPUs than roles, adjacent roles
          share cores from the rx side. Handler logic and message order
          are identical at any setting — only where simulated cycles are
          charged changes — so replicas remain byte-identical across
          stage counts (DESIGN.md §4e). *)
  batch_max : int;
  reply_lb : bool;  (** Load-balance replies/read-only ops (§3.3/§3.5). *)
  lb_policy : Jbsq.policy;
  bound : int;  (** Bounded-queue B (§3.4). *)
  read_mode : read_mode;
  flow_control : bool;
      (** Send FEEDBACK to the middlebox per reply. [Deploy.create]
          sets it from its [flow_cap], so only a node built without
          [Deploy] reads a hand-set value. *)
  eager_commit_notify : bool;
      (** In plain HovercRaft with reply LB, let the leader broadcast a
          commit hint as soon as the commit index advances, so follower
          repliers do not wait for the next append_entries. HovercRaft++
          gets this behaviour from AGG_COMMIT regardless. *)
  log_retain : int;
      (** Minimum log suffix each node retains; older entries compact away
          once applied everywhere (or, with snapshots on, once covered by
          the checkpoint — regardless of follower progress). *)
  snapshot_interval : int;
      (** Checkpoint the applied state machine every this many applied
          entries; 0 disables snapshots entirely (the seed behaviour:
          compaction then waits for every follower). *)
  recovery_retry_max : int;
      (** Unicast recovery attempts before escalating the request to a
          cluster-wide broadcast. Retries never stop while the body is
          missing — giving up would wedge the apply loop forever. *)
  loss_prob : float;  (** Random per-packet receive loss (tests). *)
}

type params = {
  mode : mode;
  backend : backend;  (** Ordering backend; [Raft] unless stated. *)
  n : int;  (** Bootstrap cluster size (1 for [Unreplicated]). *)
  seed : int;
  cost : cost_params;
  timing : timing_params;
  features : feature_params;
}

val params : ?mode:mode -> ?backend:backend -> ?n:int -> unit -> params
(** Calibrated defaults (see DESIGN.md §5); [mode] defaults to [Hover],
    [backend] to [Raft], [n] to 3. Validates the result (see
    {!validate_params}). *)

val validate_params : params -> unit
(** Raises [Invalid_argument] on inconsistent settings: [n < 1],
    [election_min] non-positive or above [election_max],
    [lease_window >= election_min] (a lease must not outlive an election),
    [bound < 1], [batch_max < 1], negative retries/retention, [loss_prob]
    outside [[0, 1)], non-positive clocks, and backend-inapplicable
    combinations ([Rabia] with any mode but [Hover], or with
    [Leader_leases]). {!create} calls this, so records assembled by
    [with]-update are checked too. *)

type t

val create :
  ?trace:Hovercraft_obs.Trace.t ->
  ?members:int list ->
  ?passive:bool ->
  Engine.t -> Protocol.payload Fabric.t -> params -> id:int -> t
(** Attach node [id] (address [Node id]) to the fabric and start its
    election clock and GC loops. Nodes join the cluster multicast group
    themselves. [trace] is the event ring protocol events are recorded
    into — pass one ring to every node of a cluster for an interleaved
    timeline (each node creates a private ring otherwise).

    [passive] (default false) suppresses the node's election timeout
    until it first hears from a leader: a node added to a running
    cluster is not in the committed configuration yet, so campaigning
    can only inflate its term — which would depose the legitimate leader
    the moment the join completes. Pass [true] when creating a node that
    joins via reconfiguration.

    [members] is the node's view of the cluster at birth (default
    [0 .. n-1]). A node joining an existing cluster is created with the
    membership it is being added under — including its own id — and
    catches up through the ordinary restart/recovery machinery once the
    leader starts replicating to it.

    Raises [Invalid_argument] if the params are invalid
    ({!validate_params}) or [id] is outside [members]. *)

(** {1 Observers} *)

val id : t -> int
val alive : t -> bool
val mode : t -> mode

val backend : t -> backend
(** Which ordering backend this node runs. *)

val is_leader : t -> bool
(** Whether this node currently leads ([false] on every node under the
    leaderless [Rabia] backend; [true] when unreplicated). *)

val leader_hint : t -> int option
(** This node's current belief about who leads ([None] when unreplicated,
    mid-election, or freshly restarted). *)

val term : t -> int
val commit_index : t -> int
val applied_index : t -> int
val log_length : t -> int

val log_base : t -> int
(** Compaction base of the consensus log: entries at or below it have
    been discarded (0 = nothing compacted). *)

val snapshot_index : t -> int
(** Last index covered by this node's newest checkpoint (taken locally or
    installed); 0 when none. *)

val snapshots_taken : t -> int
val installs_received : t -> int
(** Snapshots this node installed from a leader (catch-up via
    [Install_snapshot] rather than entry replay). *)

val app_fingerprint : t -> int
val executed_ops : t -> int
val replies_sent : t -> int
val store_size : t -> int

val recoveries_sent : t -> int

val recovery_escalations : t -> int
(** Recoveries that exhausted their unicast retry budget and fell back to
    a cluster-wide broadcast. *)

val pending_recoveries : t -> int
(** Bodies this node is still trying to fetch. A healthy converged cluster
    quiesces to zero. *)

val port : t -> Protocol.payload Fabric.port

val rx_census : t -> (string * int) list
(** Received messages by payload type (diagnostics / Table 1). *)

val net_busy_time : t -> Timebase.t
(** Total CPU time across every net-path stage CPU. *)

val app_busy_time : t -> Timebase.t
(** Total CPU time across every application thread. *)

val net_stages : t -> int
(** The configured stage count (length of the net-CPU array). *)

val stage_busy_times : t -> (string * Timebase.t) list
(** Per-role CPU time of the pipeline, [(role, busy ns)] in pipeline
    order (ingress, sequencer, fanout, replier). Roles collapsed onto a
    shared core (stage counts below 4) report that core's total. *)

val stage_stalls : t -> int
(** Handoffs that found the downstream stage's queue non-empty (samples
    in the [stage_stall_ns] histogram). 0 when [net_stages = 1]. *)

val apply_threads : t -> int
(** The configured K (length of the application-thread array). *)

val apply_busy_times : t -> Timebase.t array
(** Per-thread CPU time, index = thread. With K = 1 this is the single
    serial apply thread; a same-key conflict chain under K > 1 shows up
    as one hot entry and near-zero siblings. *)

val apply_stalls : t -> int
(** Number of per-thread barrier waits the scheduler recorded (samples in
    the [apply_stall_ns] histogram). 0 when K = 1. *)

(** {2 Log inspection}

    History checkers walk the ordered log through these; the backend
    itself (Raft or Rabia state machine) is not exposed. *)

val log_first_index : t -> int
(** First index still present in the consensus log (1 when nothing has
    compacted; 1 with an empty/absent log). *)

val iter_log : t -> lo:int -> hi:int -> (int -> int -> Protocol.cmd -> unit) -> unit
(** [iter_log t ~lo ~hi f] calls [f idx term cmd] for each log entry in
    [max lo (log_first_index t) .. min hi (log_length t)], in index
    order. No-op when unreplicated. Under the rabia backend [term] is the
    entry's slot number. *)

val aggregated : t -> bool
(** Whether the consensus layer is currently routing replication through
    the in-network aggregator (HovercRaft++ leaders only; always [false]
    under [Rabia]). *)

val metrics : t -> Hovercraft_obs.Metrics.t
(** The node's counter/gauge/histogram registry. Counters include
    [replies_sent], [recoveries_sent], [recovery_escalations],
    [recoveries_resolved], [rejected], [lost_rx], [elections_started],
    [gate_blocked], [gate_rekicks], [reconfigs_applied],
    [transfers_initiated], [snapshots_taken], [snapshots_installed],
    [installs_sent] and per-payload [rx.<tag>] (pre-interned — one
    counter per tag, resolved once at creation); gauges [log_base],
    [snapshot_index], per-thread [apply_busy_ns.<k>] and — when
    [net_stages > 1] — per-role [stage_busy_ns.<name>] /
    [stage_queue_ns.<name>]; histogram [recovery_latency_ns] tracks
    issue-to-resolution time, [install_transfer_ns] the leader-side
    duration of completed snapshot transfers, [apply_stall_ns] the
    per-thread idle waits the parallel-apply scheduler imposes at
    barriers, and [stage_stall_ns] the downstream backlog pipeline
    handoffs observe. *)

val trace : t -> Hovercraft_obs.Trace.t
(** The protocol-event ring this node records into. *)

val snapshot : t -> Hovercraft_obs.Json.t
(** Point-in-time JSON roll-up: role, indices (including [log_base] and
    [snapshot_index]), store and recovery state, membership ([members],
    [config_index], [last_transfer]), replier queue depths (leader only)
    and the full metrics registry. *)

val members : t -> int list
(** Cluster membership as of this node's {e applied} prefix, sorted. *)

val raft_members : t -> int list
(** The consensus layer's effective-on-append membership view; may run
    ahead of {!members} by the one in-flight config entry. *)

val config_index : t -> int
(** Log index of the entry establishing the consensus layer's current
    configuration (0 = bootstrap config). *)

val last_transfer : t -> int option
(** Target of the most recent leadership transfer this node initiated
    (sent [Timeout_now]), if any. *)

val redraw_election_timeout : t -> Timebase.t
(** Sample a fresh election timeout from [[election_min, election_max]]
    (inclusive); exposed for statistical tests of the draw. *)

(** {1 Control} *)

val bootstrap : t -> unit
(** Fire an immediate election timeout (used to elect a deterministic
    initial leader at simulation start) when the node's ordering layer is
    Raft. No-op when it is local (unreplicated) or the leaderless Rabia
    backend — there the first client command starts slot 0. *)

val propose_reconfig : t -> members:int list -> unit
(** Leader only: append a single-server membership-change entry carrying
    the full new member list. The consensus layer rejects the command
    (counted in the [rejected] metric) if this node is not the leader, a
    previous change is still uncommitted, a transfer is pending, or the
    change touches more than one voter. Takes effect on append for
    replication/quorum purposes, and durably — replier set, retirement,
    aggregator hand-off — when the entry is applied.

    Raises [Invalid_argument] under the [Rabia] backend: its candidate
    uniqueness rests on quorum intersection over a static member set. *)

val transfer_leadership : t -> target:int -> unit
(** Leader only: cooperatively hand leadership to [target] (Raft §3.10).
    The leader stops accepting client commands, brings the target fully up
    to date, then tells it to start an election immediately. No-op on
    non-leaders, non-member targets, and self. Raises [Invalid_argument]
    under the leaderless [Rabia] backend. *)

val preload : t -> Hovercraft_apps.Op.t list -> unit
(** Apply operations directly to the local application state, bypassing
    consensus and charging no CPU. Used to populate every replica with the
    same initial dataset before measurement (e.g. YCSB preload); call it
    identically on every node. *)

val preloaded : t -> int
(** How many operations {!preload} applied — executions outside consensus
    that the history checker must subtract from {!executed_ops}. *)

(** {1 Shard routing}

    In a multi-group (sharded) deployment, every node carries a filter
    derived from the deployment's shard map: requests for keys the node's
    group does not own are refused with a {!Protocol.Wrong_shard} NACK
    carrying the map version — except retransmissions of requests the
    group already completed, which are still answered from the completion
    record (the dual-ownership fence that makes exactly-once survive a
    live migration). Keyless operations pass every filter. *)

val set_shard_filter :
  t -> version:int -> (Hovercraft_apps.Op.t -> bool) -> unit
(** Install (or replace) the shard-routing filter. [version] is the shard
    map version the filter reflects. *)

val completion_records :
  t -> (R2p2.req_id * Hovercraft_apps.Op.result * Timebase.t) list
(** The live exactly-once completion records in FIFO order — what a
    checkpoint ships, and what a shard migration exports alongside the
    sub-range image. *)

val extract_range :
  t -> keep:(string -> bool) -> Hovercraft_apps.Kvstore.image
(** Deep-copied image of the store keys [keep] accepts, cut from this
    node's applied state (the migration export). *)

val kill : t -> unit
(** Crash: both threads halt (their queued work is lost), the NIC goes
    dark, pending body recoveries are disarmed. The node stays down until
    {!restart}. Idempotent. *)

val restart : t -> unit
(** Bring a killed node back as a follower. Simulated-crash semantics
    (DESIGN.md): Raft persistent state (term, vote, log) and the state
    machine up to the applied index — completion records included —
    survive; the body store, commit knowledge beyond the applied prefix
    and all leader-side state are volatile and rebuilt. The node
    re-registers its NIC port, re-arms its election clock and GC loop,
    and catches up on entries committed during its downtime via
    append-entries backtracking plus body recovery requests (which need
    peers' ordered-body retention, [gc_ordered], to cover the downtime —
    chaos runs extend it accordingly).

    Raises [Invalid_argument] if the node is alive. *)
