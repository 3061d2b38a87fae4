open Hovercraft_sim
open Hovercraft_r2p2
module Addr = Hovercraft_net.Addr
module Fabric = Hovercraft_net.Fabric
module Cpu = Hovercraft_net.Cpu
module Op = Hovercraft_apps.Op
module Kvstore = Hovercraft_apps.Kvstore
module Rnode = Hovercraft_raft.Node
module Rtypes = Hovercraft_raft.Types
module Rlog = Hovercraft_raft.Log
module Rb = Hovercraft_ordering.Rabia
module Metrics = Hovercraft_obs.Metrics
module Trace = Hovercraft_obs.Trace
module Json = Hovercraft_obs.Json

type mode = Unreplicated | Vanilla | Hover | Hover_pp
type read_mode = Replicated_reads | Leader_leases

type backend = Hovercraft_ordering.Ordering.kind = Raft | Rabia

let pp_mode fmt = function
  | Unreplicated -> Format.pp_print_string fmt "unreplicated"
  | Vanilla -> Format.pp_print_string fmt "vanilla-raft"
  | Hover -> Format.pp_print_string fmt "hovercraft"
  | Hover_pp -> Format.pp_print_string fmt "hovercraft++"

let mode_of_string = function
  | "unrep" | "unreplicated" -> Ok Unreplicated
  | "vanilla" | "raft" -> Ok Vanilla
  | "hover" | "hovercraft" -> Ok Hover
  | "hoverpp" | "hovercraft++" -> Ok Hover_pp
  | s -> Error (Printf.sprintf "unknown mode %S" s)

(* Parameters are grouped by concern: [cost] calibrates the simulated
   CPU/NIC price of each operation, [timing] holds every clock and window,
   [features] toggles protocol variants and their knobs. The top level
   keeps only the identity of the experiment (mode, bootstrap size, seed). *)

(* The calibrated CPU prices and clocks no experiment varies
   (DESIGN.md §5). *)

(* Base cost of receiving any packet. *)
let net_rx_packet_ns = 150

(* Base cost of sending any packet. *)
let net_tx_packet_ns = 30

(* Payload touch cost, both directions. *)
let net_per_byte_ns = 0.35

(* Protocol work per consensus message. *)
let raft_msg_extra_ns = 400

(* Serializing one entry into an AE. *)
let per_entry_tx_ns = 85

(* Processing one entry from an AE. *)
let per_entry_rx_ns = 30

(* VanillaRaft's extra fixed cost per entry per follower AE (request
   fetch, buffer management); HovercRaft appends flat metadata. *)
let vanilla_entry_extra_ns = 75

(* Copying request bodies into per-follower AEs (VanillaRaft only —
   HovercRaft's AEs carry no bodies). *)
let ae_body_ns_per_byte = 0.5

(* Apply-loop overhead per log entry. *)
let app_per_op_ns = 20

(* Period of the GC loop (completion-record expiry, body GC,
   compaction). *)
let gc_interval = Timebase.ms 10

(* First retry delay of a body recovery request; it doubles per retry,
   capped at 10 ms. *)
let recovery_timeout = Timebase.us 200

type cost_params = {
  link_gbps : float;
  stage_handoff_ns : int;
      (* Queue hop between pipeline stages of the compartmentalized net
         path (net_stages > 1): enqueue + cacheline transfer between
         cores. Never charged on the monolithic (net_stages = 1) path. *)
}

type timing_params = {
  heartbeat : Timebase.t;
  election_min : Timebase.t;
  election_max : Timebase.t;
  lease_window : Timebase.t;
  gc_unordered : Timebase.t;
  gc_ordered : Timebase.t;
}

type feature_params = {
  apply_threads : int;
      (* Simulated application threads per node (K). The apply loop is a
         dependency-aware dispatcher that runs key-disjoint committed
         entries on separate CPUs (state mutation stays in log order —
         only the timing is parallel, so replicas remain byte-identical).
         At K = 1 its window is one entry: the paper's serial loop. *)
  net_stages : int;
      (* Simulated CPUs for the network hot path. 1 keeps the paper's
         monolithic net thread; >1 compartmentalizes it into pipeline
         stages (ingress / sequencer / fanout / replier), each with its
         own CPU queue, adjacent roles sharing cores when stages < 4.
         Handler logic is identical at any setting — only where the
         simulated cycles are spent changes, so replicas remain
         byte-identical across stage counts. *)
  batch_max : int;
  reply_lb : bool;
  lb_policy : Jbsq.policy;
  bound : int;
  read_mode : read_mode;
  flow_control : bool;
      (* Deploy.create sets this from its flow_cap (credits exactly when
         the middlebox is attached); only a node built without Deploy
         reads a hand-set value. *)
  eager_commit_notify : bool;
  log_retain : int;
  snapshot_interval : int;
  recovery_retry_max : int;
  loss_prob : float;
}

type params = {
  mode : mode;
  backend : backend;
      (* Which ordering machine sits under the HovercRaft dataplane:
         [Raft] is the paper's leader-based log; [Rabia] the leaderless
         randomized-agreement alternative. Only [Hover] mode supports
         [Rabia] — the aggregated fast path and vanilla's body shipping
         are leader-shaped. *)
  n : int;
  seed : int;
  cost : cost_params;
  timing : timing_params;
  features : feature_params;
}

(* Rejecting invalid combinations here (rather than at first use, deep in
   a run) turns silent misconfiguration — a lease window that can outlive
   an election, a bound that can never admit an entry — into an immediate
   error. Called both by the builder and by [create], so records assembled
   by [with]-update are still checked. *)
let validate_params p =
  let fail fmt = Printf.ksprintf invalid_arg ("Hnode.params: " ^^ fmt) in
  if p.n < 1 then fail "n must be >= 1 (got %d)" p.n;
  if p.timing.election_min <= 0 || p.timing.election_min > p.timing.election_max
  then
    fail "need 0 < election_min <= election_max (got %d..%d)"
      p.timing.election_min p.timing.election_max;
  if p.timing.heartbeat <= 0 then fail "heartbeat must be positive";
  if p.timing.lease_window >= p.timing.election_min then
    fail
      "lease_window (%d) must stay below election_min (%d): a lease that \
       can outlive an election breaks read safety"
      p.timing.lease_window p.timing.election_min;
  if p.features.bound < 1 then fail "bound must be >= 1 (got %d)" p.features.bound;
  if p.features.apply_threads < 1 || p.features.apply_threads > 64 then
    fail "apply_threads must be in 1..64 (got %d)" p.features.apply_threads;
  if p.features.net_stages < 1 || p.features.net_stages > 4 then
    fail "net_stages must be in 1..4 (got %d): the pipeline has four roles"
      p.features.net_stages;
  if p.cost.stage_handoff_ns < 0 then
    fail "stage_handoff_ns must be non-negative";
  if p.features.batch_max < 1 then
    fail "batch_max must be >= 1 (got %d)" p.features.batch_max;
  if p.features.log_retain < 0 then fail "log_retain must be non-negative";
  if p.features.snapshot_interval < 0 then
    fail "snapshot_interval must be non-negative (0 disables snapshots)";
  if p.features.recovery_retry_max < 0 then
    fail "recovery_retry_max must be non-negative";
  if p.features.loss_prob < 0. || p.features.loss_prob >= 1. then
    fail "loss_prob must be in [0, 1)";
  (match (p.backend, p.mode) with
  | Raft, _ | Rabia, Hover -> ()
  | Rabia, (Unreplicated | Vanilla | Hover_pp) ->
      fail
        "backend rabia requires mode hovercraft (got %s): leaderless \
         ordering has no leader for vanilla body shipping or the \
         aggregated fast path"
        (Format.asprintf "%a" pp_mode p.mode));
  if p.backend = Rabia && p.features.read_mode = Leader_leases then
    fail
      "backend rabia is incompatible with leader leases: a leaderless \
       backend has no lease holder (use replicated reads)"

let params ?(mode = Hover) ?(backend = Raft) ?(n = 3) () =
  let p =
    {
      mode;
      backend;
      n;
      seed = 42;
      cost =
        {
          link_gbps = 10.0;
          stage_handoff_ns = 40;
        };
      timing =
        {
          heartbeat = Timebase.us 500;
          election_min = Timebase.ms 2;
          election_max = Timebase.ms 4;
          lease_window = Timebase.ms 1;
          gc_unordered = Timebase.ms 50;
          gc_ordered = Timebase.ms 100;
        };
      features =
        {
          apply_threads = 1;
          net_stages = 1;
          batch_max = 64;
          reply_lb = true;
          lb_policy = Jbsq.Jbsq;
          bound = 128;
          read_mode = Replicated_reads;
          flow_control = false;
          eager_commit_notify = true;
          log_retain = 8192;
          snapshot_interval = 0;
          recovery_retry_max = 100;
          loss_prob = 0.;
        };
    }
  in
  validate_params p;
  p

module Rid_tbl = R2p2.Rid_tbl

(* The ordering layer under the dataplane, chosen once at creation from
   (mode, backend). Everything below it (apply loop, recovery, replier
   accounting, snapshots) is shared; the Raft-only duties (leadership,
   terms, the announce gate, the aggregator, reconfiguration, transfer)
   take the concrete node from the [Raft] arm. *)
type ordering =
  | Local  (* unreplicated: no consensus, the node acts as its own leader *)
  | Raft of (Protocol.cmd, Protocol.snap) Rnode.t
  | Rabia of {
      rb : (Protocol.cmd, Protocol.snap) Rb.t;
      members : int array;
          (* Sorted static membership (reconfig is leader-shaped and
             rejected under rabia): drives the deterministic replier
             rotation and the replay-ownership hash. *)
    }

type t = {
  p : params;
  id : int;
  engine : Engine.t;
  fabric : Protocol.payload Fabric.t;
  mutable port : Protocol.payload Fabric.port option;
  net_cpus : Cpu.t array;
      (* The network hot path (length = features.net_stages). Length 1 is
         the paper's monolithic net thread; longer arrays compartmentalize
         it into pipeline stages (ingress / sequencer / fanout / replier),
         adjacent roles sharing a core when stages < 4. *)
  apps : Cpu.t array;
      (* The application threads (length = features.apply_threads). The
         apply dispatcher and local execution (lease reads, unreplicated
         mode) both spread work over them by footprint; apply barriers
         run on index 0. *)
  rng : Rng.t;
  order : ordering;
  mutable store : Unordered.t;
      (* The body store is RAM: a crash empties it (bodies for unapplied
         entries come back via the recovery path after restart). *)
  replier : Replier.t;
  app_state : Op.state;
  mutable members : int list;
      (* The membership as of the *applied* prefix — every config entry at
         or below [applied_ptr] has taken effect here. The Raft layer's
         view ([Rnode.members]) may run ahead of this (effective on
         append); this one drives the parts of the node that must agree
         with the durable state machine: recovery targets, lease quorums,
         retirement. *)
  mutable alive : bool;
  mutable life : int;
      (* Incremented on every kill: the election-clock and GC loops capture
         the life they were started under and stop when it changes, so a
         quick kill/restart cycle cannot leave two live loops running. *)
  mutable passive : bool;
      (* A node added to a running cluster boots passive: it must not
         campaign (and inflate its term, disrupting the leader it will
         later meet) before it has heard from any leader — it is not in
         the committed configuration yet, so its candidacies can only be
         ignored. First leader contact clears the flag. *)
  mutable last_activity : Timebase.t;
  mutable election_timeout : Timebase.t;
  mutable hb_gen : int;  (* invalidates stale heartbeat loops *)
  mutable applied_ptr : int;
  (* Apply-dispatcher state. [applied_ptr] is the dispatch pointer —
     every entry at or below it has mutated the state machine; the
     watermark below tracks the contiguous prefix whose simulated CPU
     work has also finished, which is what the consensus layer (ack
     piggybacking, replier-queue accounting) is told about. *)
  mutable apply_inflight : int;  (* dispatched, CPU work not yet done *)
  apply_done : (int, unit) Hashtbl.t;  (* finished out-of-order entries *)
  mutable apply_watermark : int;
  mutable apply_rr : int;  (* round-robin pointer for footprint-free ops *)
  mutable pumping : bool;
      (* The dispatcher is mid-loop: re-entrant pumps (a
         checkpoint cut inside the loop feeds the consensus layer, whose
         actions pump again) must not start a second loop. *)
  pending_recovery : (int * Timebase.t) Rid_tbl.t;  (* rid -> retries, issued-at *)
  lease_heard : (int, Timebase.t) Hashtbl.t;  (* leader: last contact per node *)
  completions : Completions.t;
      (* RIFL-style completion records, built deterministically during
         apply on every replica; replays answer retransmitted requests
         without re-execution. *)
  mutable ack_override : Addr.t option;
  mutable probe_sent_term : int;
  mutable last_transfer : int option;
      (* Target of the most recent leadership transfer this node initiated. *)
  mutable last_snap : int;
      (* Index of the newest checkpoint this node holds (taken locally or
         installed); the apply loop cuts the next one [snapshot_interval]
         entries later. *)
  mutable shard_filter : (Op.t -> bool) option;
      (* Shard-routing gate (None outside sharded deployments): accepts
         the operations whose key this node's group owns. Keyless
         operations must be accepted. Deployment state, not node state —
         it survives crashes like the map that produced it. *)
  mutable shard_version : int;
      (* Version of the shard map the filter was installed under; rides in
         Wrong_shard NACKs so clients know how stale their map is. *)
  mutable preloaded : int;
      (* Operations applied via [preload] (dataset population outside
         consensus); the history checker subtracts these from the raw
         execution counter, which they inflate without log entries. *)
  xfer_start : (int, Timebase.t) Hashtbl.t;
      (* Leader: when the in-flight snapshot transfer to each peer began,
         for the install-latency histogram. *)
  (* Observability. The registry owns every counter; the [c_*] handles are
     pre-resolved so the hot paths never pay a by-name lookup. *)
  metrics : Metrics.t;
  trace : Trace.t;
  c_replies : Metrics.counter;
  c_rx : Metrics.counter array;
      (* One pre-interned "rx.<tag>" counter per payload tag, indexed by
         [Protocol.tag_index]: the per-packet account must not allocate a
         name or probe the registry on the hottest path. *)
  c_recoveries : Metrics.counter;
  c_recovery_escalations : Metrics.counter;
  c_recoveries_resolved : Metrics.counter;
  c_rejected : Metrics.counter;
  c_lost_rx : Metrics.counter;
  c_elections : Metrics.counter;
  c_gate_blocked : Metrics.counter;
  c_gate_rekicks : Metrics.counter;
  c_reconfigs : Metrics.counter;
  c_transfers : Metrics.counter;
  c_snapshots : Metrics.counter;
  c_installs_recv : Metrics.counter;
  c_installs_sent : Metrics.counter;
  g_log_base : Metrics.gauge;
  g_snap_index : Metrics.gauge;
  g_apply_busy : Metrics.gauge array;  (* per-thread busy ns, one gauge each *)
  h_recovery_ns : Metrics.histogram;
  h_install_ns : Metrics.histogram;
  h_apply_stall : Metrics.histogram;
      (* Scheduler stall: per-thread idle wait imposed by a barrier
         (global-footprint op, config entry, or checkpoint cut). *)
  g_stage_busy : Metrics.gauge array;
      (* Per-role "stage_busy_ns.<name>" (empty when net_stages = 1):
         busy time of the CPU serving each role — roles sharing a core
         report the same number. *)
  g_stage_queue : Metrics.gauge array;
      (* Per-role "stage_queue_ns.<name>": backlog of the role's CPU
         queue as of the last handoff into it. *)
  h_stage_stall : Metrics.histogram option;
      (* Handoff stall: the downstream stage's backlog at each hop —
         how long the handed-off work will sit queued before running. *)
  mutable announce_stalled : bool;
      (* The announce gate returned None (every replier queue full): nothing
         will be announced until [note_applied] drains a queue and re-kicks
         replication (the gated-announce stall fix). *)
}

let commit_index_internal t =
  match t.order with
  | Local -> 0
  | Raft r -> Rnode.commit_index r
  | Rabia { rb; _ } -> Rb.commit_index rb

let has_consensus t =
  match t.order with Local -> false | Raft _ | Rabia _ -> true

let term t = match t.order with Raft r -> Rnode.term r | Local | Rabia _ -> 0

let with_bodies t = t.p.mode = Vanilla

(* The live completion records in FIFO (insertion/expiry) order — the
   form both checkpoints and shard-migration exports ship them in. *)
let completion_records t = Completions.records t.completions

(* ------------------------------------------------------------------ *)
(* Pipeline stages of the network hot path                             *)

(* The compartmentalization cut lines (DESIGN.md §4e): ingress owns rx
   decode and loss accounting; the sequencer owns the raft feed and
   ordering (strictly serial); fanout owns AppendEntries/aggregator
   bookkeeping and commit tracking; the replier owns reply tx and
   recovery resolution. With fewer CPUs than roles, adjacent roles
   collapse onto shared cores from the rx side: 2 CPUs split rx-side
   (ingress+sequencer) from tx-side (fanout+replier); 3 give the rx side
   its own pair. Role-to-CPU mapping is [role * stages / 4]. *)
let stage_names = [| "ingress"; "sequencer"; "fanout"; "replier" |]
let n_stage_roles = Array.length stage_names
let stage_ingress = 0
let stage_sequencer = 1
let stage_fanout = 2
let stage_replier = 3
let staged t = Array.length t.net_cpus > 1

let stage_cpu t role =
  t.net_cpus.(role * Array.length t.net_cpus / n_stage_roles)

(* Census a handoff into [role] and return its CPU: the destination
   queue's backlog is how long the handed-off work will sit before
   running — the signal that shows which stage binds next. Free (and
   silent) on the monolithic path. *)
let stage_handoff t role =
  let cpu = stage_cpu t role in
  (match t.h_stage_stall with
  | Some h ->
      let wait = Cpu.backlog cpu in
      if wait > 0 then Metrics.observe h wait;
      Metrics.set t.g_stage_queue.(role) wait
  | None -> ());
  cpu

(* ------------------------------------------------------------------ *)
(* Transmission                                                        *)

let tx_cost ~bytes ~extra =
  net_tx_packet_ns
  + int_of_float (net_per_byte_ns *. float_of_int bytes)
  + extra

(* Consensus and recovery traffic leaves through the network thread's TX
   queue; client replies leave through the application thread's (§6). *)
let transmit_on t cpu ~dst ~bytes ~extra payload =
  Cpu.exec cpu ~cost:(tx_cost ~bytes ~extra) (fun () ->
      match t.port with
      | Some port when t.alive -> Fabric.send t.fabric port ~dst ~bytes payload
      | Some _ | None -> ())

(* Stage-routed tx: on the monolithic path every role is the same CPU and
   no handoff is charged, so this degenerates to the historical
   single-net-thread behavior byte for byte. *)
let transmit_stage t role ~dst ?(extra = 0) payload =
  let bytes = Protocol.payload_bytes ~with_bodies:(with_bodies t) payload in
  let cpu = stage_handoff t role in
  let extra = if staged t then extra + t.p.cost.stage_handoff_ns else extra in
  transmit_on t cpu ~dst ~bytes ~extra payload

(* Consensus fan-out traffic (AE, votes, aggregator control). *)
let transmit_net t ~dst ?extra payload =
  transmit_stage t stage_fanout ~dst ?extra payload

(* HovercRaft++: hand the aggregator [members] for [term], which resets
   its registers and quorum, then probe to re-enable the aggregated fast
   path (§4). *)
let rearm_aggregator t ~term members =
  transmit_net t ~dst:Addr.Netagg (Protocol.Reconfig { term; members });
  t.probe_sent_term <- term;
  transmit_net t ~dst:Addr.Netagg (Protocol.Probe { term; leader = t.id })

(* Reply tx ownership (§6). The monolithic net folds a client reply's
   wire cost into the app CPU that produced it: replies leave through the
   application thread. A pipelined net hands the reply to the replier
   stage, which pays the wire cost plus the handoff. The three helpers
   below are the only place this rule is written. *)

(* The share of a reply's wire cost its app CPU pays, on top of the work
   that produced the reply. *)
let app_reply_tx t ~bytes = if staged t then 0 else tx_cost ~bytes ~extra:0

(* Send a reply once its app CPU is done: at once on the monolithic net
   (that CPU already paid [app_reply_tx]), through the replier stage
   under a pipelined one. *)
let hand_off_reply t ~bytes send =
  if staged t then
    Cpu.exec
      (stage_handoff t stage_replier)
      ~cost:(tx_cost ~bytes ~extra:t.p.cost.stage_handoff_ns)
      send
  else send ()

(* The CPU, and the extra tx cost, of a reply with no app work before it
   (a replay from the completion record): the app CPU [app] on the
   monolithic net, the replier stage under a pipelined one. *)
let reply_tx_cpu t ~app =
  if staged t then (stage_handoff t stage_replier, t.p.cost.stage_handoff_ns)
  else (app, 0)

(* A reply on the wire, then its completion credit: to [credit] when
   given (the request router that balanced the request here), else to
   the flow-control middlebox when there is one. The CPU this runs on
   has already paid the tx. *)
let send_response t ~dst ~bytes ?credit rid =
  match t.port with
  | Some port when t.alive -> (
      Fabric.send t.fabric port ~dst ~bytes (Protocol.Response { rid });
      let credit =
        match credit with
        | Some _ -> credit
        | None ->
            if t.p.features.flow_control then Some Addr.Middlebox else None
      in
      match credit with
      | Some dst ->
          let fb = Protocol.Feedback { rid } in
          Fabric.send t.fabric port ~dst
            ~bytes:(Protocol.payload_bytes ~with_bodies:false fb)
            fb
      | None -> ())
  | Some _ | None -> ()

(* The flow-control credit for a reply sent outside the apply path (a
   replay, a wrong-shard NACK), charged as tx on [cpu]: the middlebox
   charged the rid on admission and only a credit refunds it. *)
let credit_on t cpu rid =
  if t.p.features.flow_control then
    let fb = Protocol.Feedback { rid } in
    transmit_on t cpu ~dst:Addr.Middlebox
      ~bytes:(Protocol.payload_bytes ~with_bodies:false fb)
      ~extra:0 fb

(* ------------------------------------------------------------------ *)
(* Observability helpers                                               *)

(* [detail] is a thunk so that filtered-out events never pay for string
   formatting — tracing must stay cheap enough to leave on. *)
let tr t sev ~kind detail =
  if Trace.enabled t.trace ~node:t.id sev then
    Trace.record t.trace ~at:(Engine.now t.engine) ~node:t.id sev ~kind
      ~detail:(detail ())

(* A pending recovery is resolved by whichever copy of the body arrives
   first: a recovery_response, a client retransmission, or a duplicate
   multicast delivery. All paths funnel through here so issued = resolved +
   still-pending always holds. *)
let resolve_recovery t rid =
  (* Runs on every apply; on a loss-free run the table is empty. *)
  if Rid_tbl.length t.pending_recovery > 0 then
    match Rid_tbl.find_opt t.pending_recovery rid with
    | None -> ()
    | Some (retries, issued_at) ->
        Rid_tbl.remove t.pending_recovery rid;
        Metrics.incr t.c_recoveries_resolved;
        Metrics.observe t.h_recovery_ns (Engine.now t.engine - issued_at);
        tr t Trace.Info ~kind:"recovery_resolved" (fun () ->
            Format.asprintf "%a after %d retries, %dns" R2p2.pp_req_id rid retries
              (Engine.now t.engine - issued_at))

(* Power the node down (crash, or retirement after removal from the
   configuration). Needed by the apply path, so it lives before it;
   [kill] below is the public alias. *)
let halt t =
  if t.alive then begin
    t.alive <- false;
    t.life <- t.life + 1;
    Array.iter Cpu.halt t.net_cpus;
    Array.iter Cpu.halt t.apps;
    (* Pending recoveries are volatile: their retry timers check this
       table, so clearing it also disarms them. *)
    Rid_tbl.reset t.pending_recovery;
    (* So is the dispatcher's in-flight window: the CPUs' queued
       closures died with the halt above. The watermark is recomputed
       from the durable applied index at restart. *)
    t.apply_inflight <- 0;
    Hashtbl.reset t.apply_done;
    tr t Trace.Warn ~kind:"killed" (fun () ->
        Printf.sprintf "term=%d applied=%d" (term t) t.applied_ptr);
    match t.port with Some p -> Fabric.set_down p true | None -> ()
  end

(* Retirement of a node the applied membership excludes (an applied
   config entry or an installed image): power off, but only if the
   exclusion still stands in the consensus layer's current
   (effective-on-append) configuration. Deferred one engine step so the
   current apply finishes cleanly. *)
let retire_if_still_removed t =
  let still_removed =
    match t.order with
    | Raft raft -> not (Rnode.is_member raft t.id)
    | Local | Rabia _ -> true
  in
  if still_removed then Engine.after t.engine 0 (fun () -> halt t)

(* ------------------------------------------------------------------ *)
(* Raft plumbing                                                       *)

let is_leader t =
  match t.order with
  | Local -> true
  | Raft r -> Rnode.role r = Rnode.Leader
  | Rabia _ -> false

(* Which node answers retransmissions of completed requests (and fences
   disowned shard keys). Leader-based backends: the leader. Leaderless:
   there is no leader, so ownership is a deterministic hash of the
   request id over the static membership — exactly one live responder
   per rid, same on every replica. *)
let replays_here t rid =
  match t.order with
  | Rabia { members; _ } ->
      let n = Array.length members in
      n > 0 && members.(R2p2.req_id_hash rid land max_int mod n) = t.id
  | Local | Raft _ -> is_leader t

let leader_hint t =
  match t.order with Raft r -> Rnode.leader_hint r | Local | Rabia _ -> None

let raft_send_extra t = function
  | Rtypes.Append_entries { entries; _ } ->
      let base = per_entry_tx_ns * Array.length entries in
      if with_bodies t then begin
        (* VanillaRaft: for every entry of every per-follower AE the leader
           fetches the request and copies its body; HovercRaft appends
           fixed-size metadata and never touches bodies here (§3.2). *)
        let body_bytes =
          Array.fold_left
            (fun acc (e : Protocol.cmd Rtypes.entry) ->
              acc + Op.request_bytes e.cmd.Protocol.body)
            0 entries
        in
        base
        + (vanilla_entry_extra_ns * Array.length entries)
        + int_of_float (ae_body_ns_per_byte *. float_of_int body_bytes)
      end
      else base
  | Rtypes.Install_snapshot { len; _ } ->
      (* Serializing a chunk of the image costs like serializing the same
         bytes of entry bodies. *)
      int_of_float (ae_body_ns_per_byte *. float_of_int len)
  | Rtypes.Request_vote _ | Rtypes.Vote _ | Rtypes.Append_ack _
  | Rtypes.Commit_to _ | Rtypes.Agg_ack _ | Rtypes.Timeout_now _
  | Rtypes.Install_ack _ ->
      0

(* Rabia wire costs mirror the raft model: batch values carry fixed-size
   metadata per entry (bodies ride the client multicast, as in HovercRaft
   append_entries), whole-image installs pay the serialization rate. *)
let rabia_value_entries = function
  | Rb.Bot -> 0
  | Rb.Batch arr -> Array.length arr

let rabia_msg_entries = function
  | Rb.Proposal { value; _ } | Rb.State { value; _ } | Rb.Vote { value; _ } ->
      rabia_value_entries value
  | Rb.Repair { decisions; _ } ->
      List.fold_left (fun acc (_, v) -> acc + rabia_value_entries v) 0 decisions
  | Rb.Status _ | Rb.Snap _ -> 0

let rabia_send_extra = function
  | Rb.Snap { meta; _ } ->
      int_of_float
        (ae_body_ns_per_byte
        *. float_of_int meta.Hovercraft_raft.Snapshot.size)
  | msg -> per_entry_tx_ns * rabia_msg_entries msg

let rec feed_raft t input =
  match t.order with
  | Raft raft ->
      if t.alive then
        let actions = Rnode.handle raft input in
        List.iter (perform t raft) actions
  | Local | Rabia _ -> ()

and perform t raft action =
  match action with
  | Rnode.Send (peer, msg) ->
      let dst =
        match (msg, t.ack_override) with
        | Rtypes.Append_ack { success = true; _ }, Some src -> src
        | _, _ -> Addr.Node peer
      in
      (match msg with
      | Rtypes.Append_entries { entries; prev_idx; _ } ->
          tr t Trace.Debug ~kind:"ae_sent" (fun () ->
              Printf.sprintf "to=%d prev=%d entries=%d" peer prev_idx
                (Array.length entries))
      | _ -> ());
      transmit_net t ~dst ~extra:(raft_send_extra t msg) (Protocol.Raft msg)
  | Rnode.Send_aggregate msg ->
      (match msg with
      | Rtypes.Append_entries { entries; prev_idx; _ } ->
          tr t Trace.Debug ~kind:"ae_sent" (fun () ->
              Printf.sprintf "to=agg prev=%d entries=%d" prev_idx
                (Array.length entries))
      | _ -> ());
      transmit_net t ~dst:Addr.Netagg ~extra:(raft_send_extra t msg)
        (Protocol.Raft msg)
  | Rnode.Commit_advanced _ -> pump t
  | Rnode.Snapshot_installed meta -> on_snapshot_installed t meta
  | Rnode.Appended idx -> on_appended t raft idx
  | Rnode.Became_leader -> on_became_leader t raft
  | Rnode.Became_follower _ -> on_became_follower t
  | Rnode.Leader_activity ->
      t.passive <- false;
      t.last_activity <- Engine.now t.engine
  | Rnode.Reject_command _ -> Metrics.incr t.c_rejected

and on_appended t raft idx =
  (* The leader just ordered a request: its body is now bound to the log. *)
  let entry = Rlog.get (Rnode.log raft) idx in
  if not entry.cmd.Protocol.meta.internal then
    match t.p.mode with
    | Hover | Hover_pp ->
        ignore (Unordered.mark_ordered t.store entry.cmd.Protocol.meta.rid)
    | Vanilla | Unreplicated -> ()

and feed_rabia t input =
  match t.order with
  | Rabia { rb; members } ->
      if t.alive then
        let actions = Rb.handle rb input in
        List.iter (perform_rabia t rb members) actions
  | Local | Raft _ -> ()

and perform_rabia t rb members action =
  match action with
  | Rb.Send (peer, msg) ->
      transmit_net t ~dst:(Addr.Node peer) ~extra:(rabia_send_extra msg)
        (Protocol.Rabia msg)
  | Rb.Commit_advanced _ -> pump t
  | Rb.Appended_range (lo, hi) -> on_rabia_appended t rb members lo hi
  | Rb.Snapshot_installed meta -> on_snapshot_installed t meta

(* A decided slot (or a repair) just entered the log. Two leader duties
   move here under the leaderless backend: replier assignment — a
   deterministic rotation over the static membership, same on every
   replica, replacing the leader's JBSQ pick — and the ordered-mark /
   body-recovery step the raft path runs in [bind_bodies]. *)
and on_rabia_appended t rb members lo hi =
  let log = Rb.log rb in
  let n = Array.length members in
  for idx = lo to hi do
    let entry = Rlog.get log idx in
    let meta = entry.Rtypes.cmd.Protocol.meta in
    if not meta.internal then begin
      (* The cmd value is shared across replicas (simulated wire): first
         appender assigns; the rule is index-determined, so every replica
         computes the same node. *)
      if meta.replier < 0 && n > 0 then meta.replier <- members.(idx mod n);
      if idx > t.applied_ptr then
        if
          (not (Unordered.mark_ordered t.store meta.rid))
          && not (Completions.mem t.completions meta.rid)
        then request_recovery t meta.rid
    end
  done

and gate t idx (cmd : Protocol.cmd) =
  if not t.p.features.reply_lb then begin
    cmd.meta.replier <- t.id;
    true
  end
  else
    match Replier.pick t.replier () with
    | Some node ->
        cmd.meta.replier <- node;
        Replier.assign t.replier ~node ~index:idx;
        true
    | None -> false

(* Every applied-index update on the leader goes through here: when the
   announce gate had vetoed (all replier queues at the bound) and a queue
   just drained, replication must be re-kicked immediately — otherwise the
   pipeline sits idle until the next heartbeat even though commit could
   advance (the gated-announce stall). *)
and note_applied t ~node ~applied =
  Replier.note_applied t.replier ~node ~applied;
  if t.announce_stalled && is_leader t && Replier.any_eligible t.replier then begin
    t.announce_stalled <- false;
    Metrics.incr t.c_gate_rekicks;
    tr t Trace.Debug ~kind:"announce_rekick" (fun () ->
        Printf.sprintf "node=%d applied=%d" node applied);
    feed_raft t Rnode.Announce_kick
  end

and on_became_leader t raft =
  Replier.set_nodes t.replier (Rnode.members raft);
  Replier.reset t.replier;
  t.announce_stalled <- false;
  Replier.note_applied t.replier ~node:t.id ~applied:t.applied_ptr;
  (match t.p.mode with
  | Hover | Hover_pp ->
      Rnode.set_announce_gate raft (Some (gate t));
      (* Ingest requests the previous leader never ordered (§5). *)
      List.iter
        (fun (rid, op) ->
          feed_raft t (Rnode.Client_command (Protocol.client_cmd ~rid op)))
        (Unordered.unordered_bindings t.store)
  | Vanilla | Unreplicated -> ());
  if t.p.mode = Hover_pp then
    (* Tell the aggregator who is in the cluster before enabling the
       fast path: its registers and quorum must match our view. *)
    rearm_aggregator t ~term:(Rnode.term raft)
      (Array.of_list (Rnode.members raft));
  start_heartbeats t

and on_became_follower t =
  t.hb_gen <- t.hb_gen + 1;
  t.probe_sent_term <- -1;
  t.announce_stalled <- false;
  t.last_activity <- Engine.now t.engine

and start_heartbeats t =
  t.hb_gen <- t.hb_gen + 1;
  let gen = t.hb_gen in
  let rec loop () =
    Engine.after t.engine t.p.timing.heartbeat (fun () ->
        if t.alive && t.hb_gen = gen && is_leader t then begin
          feed_raft t Rnode.Heartbeat_timeout;
          loop ()
        end)
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The apply loop (application thread)                                 *)

and body_for t (cmd : Protocol.cmd) =
  if cmd.meta.internal then Some Op.Nop
  else
    match t.p.mode with
    | Vanilla -> Some cmd.body
    | Hover | Hover_pp -> Unordered.find t.store cmd.meta.rid
    | Unreplicated -> Some cmd.body

and consensus_log t =
  match t.order with
  | Local -> invalid_arg "Hnode: no ordering backend"
  | Raft r -> Rnode.log r
  | Rabia { rb; _ } -> Rb.log rb

(* Applied-index feedback to the ordering backend: ack piggybacking for
   raft, checkpoint accounting for both. *)
and feed_applied t idx =
  match t.order with
  | Local -> ()
  | Raft _ -> feed_raft t (Rnode.Applied_up_to idx)
  | Rabia _ -> feed_rabia t (Rb.Applied_up_to idx)

(* Whether applying [idx] cuts a checkpoint. Raft entries are singletons,
   but a rabia slot appends as one atomic batch — an image cut mid-batch
   could never be named by a slot and would strand repairs. *)
and snapshot_due t idx =
  t.p.features.snapshot_interval > 0
  && idx - t.last_snap >= t.p.features.snapshot_interval
  &&
  match t.order with
  | Local -> false
  | Raft _ -> true
  | Rabia { rb; _ } -> Rb.slot_final rb idx

(* The apply loop: a dependency-aware dispatcher over the K application
   threads. Entries leave the committed prefix strictly in log order and
   mutate the state machine at dispatch time, so replicas stay
   byte-identical no matter how thread timing interleaves; only the
   simulated CPU work (execution cost, the reply leaving the wire, the
   applied watermark the consensus layer sees) is spread over K threads.
   The in-flight window bounds how far dispatch runs ahead of finished
   work, so a crash can only lose a bounded suffix of timing (never
   state: mutation + record advance atomically at dispatch). At K = 1 the
   window is one entry, so each dispatch waits for the previous entry's
   completion: the paper's serial apply loop. *)
and apply_window t =
  let k = Array.length t.apps in
  if k = 1 then 1 else 8 * k

and pump t =
  if has_consensus t && not t.pumping then begin
    t.pumping <- true;
    let stalled = ref false in
    while
      (not !stalled) && t.alive
      && t.apply_inflight < apply_window t
      && t.applied_ptr < commit_index_internal t
    do
      let idx = t.applied_ptr + 1 in
      let entry = Rlog.get (consensus_log t) idx in
      let cmd = entry.Rtypes.cmd in
      match body_for t cmd with
      | None when Completions.mem t.completions cmd.meta.rid ->
          (* A re-ordered duplicate of an already-applied command (a
             leaderless backend can decide the same rid at two slots
             after a snapshot catch-up): the body may be gone everywhere,
             but the completion record already holds the result — no
             recovery could ever succeed, and none is needed to replay
             it. *)
          dispatch_one t idx cmd Op.Nop
      | None ->
          request_recovery t cmd.meta.rid;
          stalled := true
      | Some op -> dispatch_one t idx cmd op
    done;
    t.pumping <- false
  end

(* Thread selection: keyed operations hash to a fixed thread, so two
   operations on the same key always land on the same CPU and serialize
   in log order on its FIFO queue; footprint-free operations round-robin;
   global footprints return None and barrier. Deterministic — a function
   of the log prefix alone, never of timing. *)
and apply_thread_of t op =
  match Op.footprint op with
  | Op.Fp_key k -> Some (Kvstore.slot_of_key ~slots:(Array.length t.apps) k)
  | Op.Fp_none ->
      let k = t.apply_rr in
      t.apply_rr <- (t.apply_rr + 1) mod Array.length t.apps;
      Some k
  | Op.Fp_global -> None

(* Quiesce the scheduler: advance every thread to the common idle
   horizon, recording each thread's imposed wait in the stall histogram.
   Returns nothing useful beyond its effect — after it, all threads fall
   idle at the same instant, so whatever executes next overlaps with
   nothing. *)
and apply_quiesce t =
  let horizon =
    Array.fold_left (fun acc c -> Int.max acc (Cpu.horizon c)) 0 t.apps
  in
  Array.iter
    (fun c ->
      let stall = horizon - Cpu.horizon c in
      if stall > 0 then Metrics.observe t.h_apply_stall stall;
      Cpu.advance_to c horizon)
    t.apps

and dispatch_one t idx (cmd : Protocol.cmd) op =
  (* Entries that cannot overlap anything take a barrier: global
     footprints, config entries (membership is whole-machine state) and
     entries about to cut a checkpoint (the image must capture a quiesced
     machine). *)
  let thread =
    if cmd.Protocol.config <> None || snapshot_due t idx then None
    else apply_thread_of t op
  in
  let k =
    match thread with
    | Some k -> k
    | None ->
        apply_quiesce t;
        0
  in
  let cost, should_reply, reply_bytes = apply_atomic t idx cmd op in
  t.apply_inflight <- t.apply_inflight + 1;
  let cpu = t.apps.(k) in
  Cpu.exec cpu ~cost (fun () ->
      apply_completed t idx cmd ~should_reply ~reply_bytes);
  (* A barriered entry also excludes everything behind it: hold the
     sibling threads until it retires. *)
  if thread = None then
    let after = Cpu.horizon cpu in
    Array.iter (fun c -> Cpu.advance_to c after) t.apps

(* Delayed completion of a dispatched entry (runs on its thread's CPU,
   [cost] later). The consensus layer's applied counter — and the
   replier-queue accounting and announce re-kick driven from it — advance
   along the contiguous watermark, never past a still-running entry. An
   in-order completion (always, at K = 1) moves the watermark itself;
   only out-of-order ones wait in [apply_done]. *)
and apply_completed t idx (cmd : Protocol.cmd) ~should_reply ~reply_bytes =
  apply_visible t cmd ~should_reply ~reply_bytes;
  t.apply_inflight <- Int.max 0 (t.apply_inflight - 1);
  let before = t.apply_watermark in
  if idx > before then begin
    if idx = before + 1 then t.apply_watermark <- idx
    else Hashtbl.replace t.apply_done idx ();
    while Hashtbl.mem t.apply_done (t.apply_watermark + 1) do
      Hashtbl.remove t.apply_done (t.apply_watermark + 1);
      t.apply_watermark <- t.apply_watermark + 1
    done;
    if t.apply_watermark > before then begin
      if is_leader t then
        note_applied t ~node:t.id ~applied:t.apply_watermark;
      feed_applied t t.apply_watermark
    end
  end;
  pump t

(* A committed configuration entry reached the apply loop: the durable
   membership changes here. Since only one change can be in flight, by the
   time the entry is applied (commit has passed it) the applied view and
   the Raft layer's effective-on-append view coincide — so this is also
   the safe moment to hand the new membership to the aggregator and
   re-enable the fast path. *)
and on_config_applied t ms =
  let ms = List.sort_uniq compare (Array.to_list ms) in
  Metrics.incr t.c_reconfigs;
  tr t Trace.Info ~kind:"config_applied" (fun () ->
      Printf.sprintf "members=[%s]"
        (String.concat ";" (List.map string_of_int ms)));
  t.members <- ms;
  if not (List.mem t.id ms) then
    (* Removed from the cluster. The entry is committed (we only apply
       committed entries) and the Raft layer has already stepped a removed
       leader down, so the node's duty is done. Newcomers catching up via
       snapshot never even apply historical config entries (the image's
       membership supersedes them), but a snapshot-less bootstrap still
       replays history, hence the still-removed guard. *)
    retire_if_still_removed t
  else if is_leader t then begin
    Replier.set_nodes t.replier ms;
    match t.order with
    | Raft raft when t.p.mode = Hover_pp ->
        (* Same soft-state flush as a term change (§4): the aggregated
           path was dropped when the config entry was appended. *)
        rearm_aggregator t ~term:(Rnode.term raft) (Array.of_list ms)
    | Local | Raft _ | Rabia _ -> ()
  end

(* The consensus layer accepted a full snapshot (emitted strictly before
   the accompanying commit advance): replace the state machine wholesale.
   The completion records ride in the image — a retransmission of a
   request the snapshot covers must be answered from the record, never
   re-executed, so exactly-once survives the install. Everything volatile
   that referred to the replaced prefix (pending body recoveries) is
   superseded by the image and dropped. *)
and on_snapshot_installed t (meta : Protocol.snap Hovercraft_raft.Snapshot.meta) =
  let s = meta.Hovercraft_raft.Snapshot.data in
  if meta.Hovercraft_raft.Snapshot.last_idx <= t.applied_ptr then begin
    (* The image is a prefix of what this replica has already executed —
       possible under parallel apply, where the dispatch pointer runs
       ahead of the durable watermark the consensus layer advertises
       (installs are accepted against that watermark). The running state
       strictly covers the image; overwriting would roll executed entries
       back and diverge the replicas. Keep the state, record the
       checkpoint. *)
    t.last_snap <- Int.max t.last_snap meta.Hovercraft_raft.Snapshot.last_idx;
    Metrics.incr t.c_installs_recv;
    Metrics.set t.g_snap_index
      (Int.max meta.Hovercraft_raft.Snapshot.last_idx
         (Metrics.gauge_value t.g_snap_index));
    tr t Trace.Info ~kind:"snapshot_skipped" (fun () ->
        Printf.sprintf "idx=%d already applied (applied=%d)"
          meta.Hovercraft_raft.Snapshot.last_idx t.applied_ptr)
  end
  else install_snapshot_state t meta s

and install_snapshot_state t (meta : Protocol.snap Hovercraft_raft.Snapshot.meta)
    (s : Protocol.snap) =
  Op.install t.app_state s.Protocol.s_app;
  Completions.install t.completions s.Protocol.s_completions;
  Rid_tbl.reset t.pending_recovery;
  t.members <- meta.Hovercraft_raft.Snapshot.members;
  t.applied_ptr <- Int.max t.applied_ptr meta.Hovercraft_raft.Snapshot.last_idx;
  t.apply_watermark <-
    Int.max t.apply_watermark meta.Hovercraft_raft.Snapshot.last_idx;
  (* The preload counter is part of the applied-prefix state: the checker
     computes consensus-driven executions as [executed - preloaded], and
     the image's execution counter includes the source's preloads. *)
  t.preloaded <- s.Protocol.s_preloaded;
  t.last_snap <- Int.max t.last_snap meta.Hovercraft_raft.Snapshot.last_idx;
  Metrics.incr t.c_installs_recv;
  Metrics.set t.g_snap_index meta.Hovercraft_raft.Snapshot.last_idx;
  tr t Trace.Info ~kind:"snapshot_installed" (fun () ->
      Printf.sprintf "idx=%d term=%d bytes=%d"
        meta.Hovercraft_raft.Snapshot.last_idx
        meta.Hovercraft_raft.Snapshot.last_term
        meta.Hovercraft_raft.Snapshot.size);
  (* Catching up through an image skips the per-slot decisions it
     covers, so the leaderless proposal pool may still hold commands the
     cluster decided inside that window; left alone they would be
     re-proposed and ordered a second time. The restored completion
     records say which ones those are. *)
  (match t.order with
  | Rabia { rb; _ } ->
      Rb.filter_pending rb ~keep:(fun (c : Protocol.cmd) ->
          not (Completions.mem t.completions c.Protocol.meta.rid))
  | Local | Raft _ -> ());
  if not (List.mem t.id t.members) then retire_if_still_removed t
  else if is_leader t then Replier.set_nodes t.replier t.members

(* Cut a checkpoint of the applied state machine: the deep-copied image,
   the live completion records (in FIFO order, so expiry keeps working
   after an install) and the applied-prefix membership, identified by
   (idx, term-at-idx). Runs inside [apply_atomic], before the entry's CPU
   delay, so the image is exactly the state after entry [idx]. Counted
   here, where both backends cut. *)
and take_snapshot t idx =
  let completions = completion_records t in
  let data =
    {
      Protocol.s_app = Op.snapshot t.app_state;
      s_completions = completions;
      s_preloaded = t.preloaded;
    }
  in
  let last_term = (Rlog.get (consensus_log t) idx).Rtypes.term in
  let meta =
    Hovercraft_raft.Snapshot.make ~last_idx:idx ~last_term ~members:t.members
      ~size:(Protocol.snap_bytes data) ~data
  in
  (* The consensus layer's applied counter normally advances after the
     apply delay (it only feeds ack piggybacking); the checkpoint is cut
     inside the atomic section, so tell it about [idx] first or it would
     reject a snapshot "beyond" what it thinks is applied. *)
  feed_applied t idx;
  (match t.order with
  | Local -> ()
  | Raft raft -> Rnode.set_snapshot raft meta
  | Rabia { rb; _ } -> Rb.set_snapshot rb meta);
  t.last_snap <- idx;
  Metrics.incr t.c_snapshots;
  Metrics.set t.g_snap_index idx

(* The pre-delay atomic section of applying an entry: the
   execute-or-replay decision, the state mutation, the completion record,
   the applied-pointer advance, the config effect and the checkpoint cut.
   All of it happens at dispatch time, in log order — which is what keeps
   replicas byte-identical under parallel apply: thread timing never
   touches state, only the clock. Returns the entry's CPU cost and what
   the delayed epilogue needs. *)
and apply_atomic t idx (cmd : Protocol.cmd) op =
  let meta = cmd.Protocol.meta in
  let is_replier = meta.replier = t.id in
  let recorded =
    if meta.internal then None else Completions.find t.completions meta.rid
  in
  let execute =
    (not meta.internal) && Option.is_none recorded
    &&
    match t.p.mode with
    | Vanilla -> (not meta.read_only) || is_leader t
    | Hover | Hover_pp -> (not meta.read_only) || is_replier
    | Unreplicated -> true
  in
  let result, exec_cost =
    if execute then Op.apply t.app_state op
    else match recorded with Some r -> (r, 0) | None -> (Op.Done, 0)
  in
  let should_reply =
    (not meta.internal)
    &&
    match t.p.mode with
    | Vanilla -> is_leader t
    | Hover | Hover_pp -> is_replier
    | Unreplicated -> true
  in
  let reply_bytes =
    if should_reply then R2p2.header_bytes + Op.reply_bytes op result else 0
  in
  let cost =
    app_per_op_ns + exec_cost
    + if should_reply then app_reply_tx t ~bytes:reply_bytes else 0
  in
  (* The state mutation above, the completion record and the applied
     pointer advance together, BEFORE the CPU delay: a crash landing
     inside the delayed closure must not leave an executed-but-unrecorded
     entry behind, or restart would re-execute it (exactly-once would
     break, replicas would diverge). Only externally visible work — the
     reply, bookkeeping — waits for the CPU. Membership is part of the
     durable state, so config entries take effect inside the checkpoint
     too. *)
  t.applied_ptr <- idx;
  (* A migration Merge carries the source group's completion records: seed
     them before this entry's own record, inside the same atomic section.
     A rid the source group already answered must never re-execute here —
     e.g. a client retry of a pre-migration write that this group ordered
     again after the map flipped resolves as a duplicate, because the
     Merge sits earlier in the log. *)
  (match op with
  | Op.Merge { completions; _ } ->
      List.iter
        (fun { Op.c_rid; c_result; c_at } ->
          Completions.record t.completions c_rid c_result ~at:c_at)
        completions;
      if not meta.internal then
        Completions.record t.completions meta.rid result
          ~at:(Engine.now t.engine)
  | _ ->
      (* Nothing was seeded since the lookup above: a miss there is
         still a miss. *)
      if (not meta.internal) && Option.is_none recorded then
        Completions.record_absent t.completions meta.rid result
          ~at:(Engine.now t.engine));
  (match cmd.Protocol.config with
  | Some ms -> on_config_applied t ms
  | None -> ());
  (* Checkpointing is part of the same atomic section: the image must
     reflect exactly the prefix up to [idx], including the completion
     record and membership written just above. *)
  if snapshot_due t idx then take_snapshot t idx;
  (cost, should_reply, reply_bytes)

(* The delayed, externally visible part of applying an entry: the reply
   (and its flow-control credit) leaves the wire and the pending body
   recovery resolves. Runs on the entry's application thread, [cost]
   after dispatch. *)
and apply_visible t (cmd : Protocol.cmd) ~should_reply ~reply_bytes =
  let meta = cmd.Protocol.meta in
  if should_reply then begin
    Metrics.incr t.c_replies;
    hand_off_reply t ~bytes:reply_bytes (fun () ->
        send_response t ~dst:meta.rid.src_addr ~bytes:reply_bytes meta.rid)
  end;
  (* Bodies stay in the store after application: duplicate AEs
     (heartbeat retransmits) must still bind, and lagging followers
     recover bodies from peers that already applied them. The GC's
     ordered-retention window reclaims them (§5). *)
  match t.p.mode with
  | Hover | Hover_pp -> if not meta.internal then resolve_recovery t meta.rid
  | Vanilla | Unreplicated -> ()

(* ------------------------------------------------------------------ *)
(* Recovery of lost multicast bodies (§5)                              *)

and recovery_target t retries =
  (* First ask the leader; on retries ask a random other member, since any
     group member may hold the body. With no peers there is nobody to ask:
     the body can only come back via client retransmission. *)
  let others = List.filter (fun i -> i <> t.id) t.members in
  match others with
  | [] -> None
  | _ -> (
      match (leader_hint t, retries) with
      | Some l, 0 when l <> t.id -> Some (Addr.Node l)
      | _ ->
          let arr = Array.of_list others in
          Some (Addr.Node arr.(Rng.int t.rng (Array.length arr))))

and request_recovery t rid =
  if not (Rid_tbl.mem t.pending_recovery rid) then begin
    Rid_tbl.replace t.pending_recovery rid (0, Engine.now t.engine);
    tr t Trace.Info ~kind:"recovery_issued" (fun () ->
        Format.asprintf "%a applied=%d commit=%d" R2p2.pp_req_id rid
          t.applied_ptr (commit_index_internal t));
    send_recovery t rid 0
  end

(* Keep asking until the body turns up: the apply loop is wedged on this
   rid, so giving up would wedge it forever (commit advances past the hole
   never). Unicast probes walk the group; once the retry budget is spent we
   escalate to a cluster-group broadcast, which reaches every node that
   could possibly hold the body in one shot. Retries back off
   exponentially (capped at 10 ms): a node catching up after a long dead
   window has hundreds of recoveries in flight, and re-probing each at a
   fixed 200 us would flood its own NIC with more retry traffic than a
   thin link carries — starving the very answers (and append acks) it is
   waiting for. The healthy path is unaffected: the first probe resolves
   in an RTT. *)
and send_recovery t rid retries =
  if t.alive && Rid_tbl.mem t.pending_recovery rid then begin
    let escalated = retries >= t.p.features.recovery_retry_max in
    if escalated && retries = t.p.features.recovery_retry_max then begin
      Metrics.incr t.c_recovery_escalations;
      tr t Trace.Warn ~kind:"recovery_escalated" (fun () ->
          Format.asprintf "%a after %d unicast retries" R2p2.pp_req_id rid
            retries)
    end;
    let dst =
      if escalated then
        if List.length t.members <= 1 then None
        else Some (Addr.Group Addr.cluster_group)
      else recovery_target t retries
    in
    (match dst with
    | Some dst ->
        Metrics.incr t.c_recoveries;
        (* Recovery resolution is the replier stage's job (same CPU as
           the single net thread on the monolithic path). *)
        transmit_stage t stage_replier ~dst
          (Protocol.Recovery_request { rid; asker = t.id })
    | None -> ());
    let backoff =
      min
        (recovery_timeout * (1 lsl Int.min retries 6))
        (Timebase.ms 10)
    in
    Engine.after t.engine backoff (fun () ->
        match Rid_tbl.find_opt t.pending_recovery rid with
        | Some (r, issued_at) when r = retries ->
            Rid_tbl.replace t.pending_recovery rid (retries + 1, issued_at);
            send_recovery t rid (retries + 1)
        | Some _ | None -> ())
  end

(* ------------------------------------------------------------------ *)
(* Receive path (network thread)                                       *)

(* Receive cost splits along the pipeline cut: decode (header + bytes off
   the wire) is ingress work; protocol processing (raft bookkeeping,
   per-entry ingest) belongs to the packet's stage. The monolithic path
   charges their sum on the one net CPU — exactly the historical
   formula. *)
let rx_decode_cost (pkt : Protocol.payload Fabric.packet) =
  net_rx_packet_ns
  + int_of_float (net_per_byte_ns *. float_of_int pkt.bytes)

let rx_proto_cost (pkt : Protocol.payload Fabric.packet) =
  match pkt.payload with
  | Protocol.Raft (Rtypes.Append_entries { entries; _ }) ->
      raft_msg_extra_ns
      + (per_entry_rx_ns * Array.length entries)
  | Protocol.Raft _ | Protocol.Agg_commit _ -> raft_msg_extra_ns
  | Protocol.Rabia msg ->
      raft_msg_extra_ns
      + (per_entry_rx_ns * rabia_msg_entries msg)
  | Protocol.Request _ | Protocol.Response _ | Protocol.Recovery_request _
  | Protocol.Recovery_response _ | Protocol.Probe _ | Protocol.Probe_reply _
  | Protocol.Feedback _ | Protocol.Nack _ | Protocol.Wrong_shard _
  | Protocol.Reconfig _ ->
      0

let rx_cost pkt = rx_decode_cost pkt + rx_proto_cost pkt

(* Which stage handles a packet after ingress decodes it: ordering input
   (client requests, the whole replicated log feed, elections) goes to
   the sequencer; acknowledgements and aggregator/commit bookkeeping to
   fanout; body recovery to the replier. Payloads whose dispatch is a
   no-op die at ingress. *)
let rx_stage_of = function
  | Protocol.Request _ -> stage_sequencer
  | Protocol.Raft
      (Rtypes.Append_ack _ | Rtypes.Install_ack _ | Rtypes.Agg_ack _) ->
      stage_fanout
  | Protocol.Agg_commit _ | Protocol.Probe_reply _ -> stage_fanout
  | Protocol.Raft _ | Protocol.Rabia _ -> stage_sequencer
  | Protocol.Recovery_request _ | Protocol.Recovery_response _ -> stage_replier
  | Protocol.Response _ | Protocol.Feedback _ | Protocol.Nack _
  | Protocol.Wrong_shard _ | Protocol.Probe _ | Protocol.Reconfig _ ->
      stage_ingress

(* Read leases (the §3.5 alternative to replier load balancing): the
   leader may serve read-only requests locally, without ordering, while it
   has heard from a quorum within the lease window — proof that no other
   leader can have been elected meanwhile (the window is kept below the
   minimum election timeout). *)
let lease_note_contact t node =
  Hashtbl.replace t.lease_heard node (Engine.now t.engine)

let lease_valid t =
  let now = Engine.now t.engine in
  Hashtbl.replace t.lease_heard t.id now;
  let fresh =
    List.fold_left
      (fun acc i ->
        let heard = Option.value ~default:0 (Hashtbl.find_opt t.lease_heard i) in
        if now - heard <= t.p.timing.lease_window then acc + 1 else acc)
      0 t.members
  in
  fresh >= (List.length t.members / 2) + 1

(* Where a locally executed (never-ordered) operation runs. Pinning these
   to app CPU 0 was a bug at K > 1: every lease read, unreplicated op and
   router-balanced request serialized onto one core while replicated
   writes spread — a phantom knee on read-heavy workloads. Keyed ops
   follow the same footprint hash the apply dispatcher uses (so same-key
   work shares a queue); footprint-free — and global: local execution
   mutates state synchronously at call time, there is nothing to barrier
   against — ops take the least-loaded CPU, ties to the lowest index.
   The choice affects only simulated timing, never replicated state. *)
let local_exec_cpu t op =
  if Array.length t.apps = 1 then t.apps.(0)
  else
    match Op.footprint op with
    | Op.Fp_key k -> t.apps.(Kvstore.slot_of_key ~slots:(Array.length t.apps) k)
    | Op.Fp_none | Op.Fp_global ->
        let best = ref 0 in
        Array.iteri
          (fun i c ->
            if Cpu.horizon c < Cpu.horizon t.apps.(!best) then best := i)
          t.apps;
        t.apps.(!best)

(* Execute a request on this node alone: the unreplicated path, lease
   reads, and router-balanced unrestricted requests. [feedback] is where a
   completion credit goes (flow-control middlebox or request router). *)
let execute_locally ?feedback t rid op =
  let result, exec_cost = Op.apply t.app_state op in
  let bytes = R2p2.header_bytes + Op.reply_bytes op result in
  Cpu.exec (local_exec_cpu t op)
    ~cost:(app_per_op_ns + exec_cost + app_reply_tx t ~bytes)
    (fun () ->
      hand_off_reply t ~bytes (fun () ->
          Metrics.incr t.c_replies;
          send_response t ~dst:rid.R2p2.src_addr ~bytes ?credit:feedback rid))

(* A retransmitted request that already completed is answered from the
   completion record (exactly-once); one that is in flight (ordered but not
   applied) is ignored — its reply is coming. On the monolithic net the
   replay rides the footprint-spread app CPU, not a hardwired apps.(0). *)
let replay_completion t rid op =
  match Completions.find t.completions rid with
  | Some result ->
      let cpu, extra = reply_tx_cpu t ~app:(local_exec_cpu t op) in
      transmit_on t cpu ~dst:rid.R2p2.src_addr
        ~bytes:(R2p2.header_bytes + Op.reply_bytes op result)
        ~extra (Protocol.Response { rid });
      credit_on t cpu rid;
      true
  | None -> false

(* Shard-routing gate. A request whose key this group does not own is
   NACKed back with the responder's map version — but only after
   [replay_completion] had its chance: answering retransmissions of
   already-completed requests from the record even for disowned keys is
   the dual-ownership fence that lets exactly-once survive a migration
   handoff. Only one node may respond (requests are multicast to the
   whole group), so the gate runs where replay runs: on the leader. *)
let shard_rejects t rid op =
  match t.shard_filter with
  | Some owns when not (owns op) ->
      transmit_stage t stage_replier ~dst:rid.R2p2.src_addr
        (Protocol.Wrong_shard { rid; version = t.shard_version });
      (* Without the credit, wrong-shard retries during a migration would
         wedge the middlebox's in-flight cap. *)
      credit_on t (stage_cpu t stage_replier) rid;
      true
  | Some _ | None -> false

let rec on_client_request t ~src ~policy rid op =
  match policy with
  | R2p2.Unrestricted ->
      (* A non-replicated request (§6.1): executed here and now, never
         ordered — reads may be stale on a follower. The completion credit
         returns to the router that balanced it here. *)
      let feedback = if Addr.equal src Addr.Router then Some Addr.Router else None in
      execute_locally ?feedback t rid op
  | R2p2.Replicated_req | R2p2.Replicated_req_r -> on_client_replicated t rid op

and on_client_replicated t rid op =
  match t.p.mode with
  | Unreplicated ->
      if replay_completion t rid op then ()
      else if shard_rejects t rid op then ()
      else on_client_request_fresh t rid op
  | Vanilla ->
      if is_leader t && replay_completion t rid op then ()
      else if is_leader t && shard_rejects t rid op then ()
      else on_client_request_fresh t rid op
  | Hover | Hover_pp ->
      (* Only one node replays ([replays_here]: the leader, or the rid's
         hash-owner under the leaderless backend), so a retransmission
         multicast to the whole group yields one reply. Followers keep
         storing bodies even for disowned keys: an operation ordered just
         before the fence engaged still needs its body everywhere. *)
      if replays_here t rid && replay_completion t rid op then ()
      else if replays_here t rid && shard_rejects t rid op then ()
      else on_client_request_fresh t rid op

and on_client_request_fresh t rid op =
  let lease_read =
    t.p.features.read_mode = Leader_leases
    && Op.read_only op
    && t.p.mode <> Unreplicated
  in
  if lease_read then begin
    (* Only the leader acts on lease reads; followers drop them (with a
       multicast target every node sees the request). A leader without a
       valid lease falls through to the ordered path for safety. *)
    if is_leader t then
      if lease_valid t then execute_locally t rid op
      else on_client_request_ordered t rid op
  end
  else on_client_request_ordered t rid op

and on_client_request_ordered t rid op =
  match t.p.mode with
  | Unreplicated ->
      (* No consensus: hand straight to the application thread. *)
      execute_locally t rid op
  | Vanilla ->
      if is_leader t then
        feed_raft t (Rnode.Client_command (Protocol.client_cmd ~rid op))
      else Metrics.incr t.c_rejected
  | Hover | Hover_pp -> (
      let already_ordered = Unordered.ingest t.store rid op in
      resolve_recovery t rid;
      match t.order with
      | Rabia _ ->
          (* Leaderless: every replica ingests the command into its
             proposal pool (the backend dedups by rid); the pools
             converge through proposal adoption. *)
          if not already_ordered then
            feed_rabia t (Rb.Client_command (Protocol.client_cmd ~rid op));
          pump t
      | Local | Raft _ ->
          if is_leader t then begin
            (* Duplicate suppression: a retransmission of a request that
               is already in the log must not be ordered twice. *)
            if not already_ordered then
              feed_raft t (Rnode.Client_command (Protocol.client_cmd ~rid op))
          end
          else pump t)

(* After accepting an append_entries, check that every newly ordered
   entry's body is present; fetch the ones the multicast lost. *)
let bind_bodies t ~prev_idx (entries : Protocol.cmd Rtypes.entry array) =
  match t.p.mode with
  | Hover | Hover_pp ->
      Array.iteri
        (fun i (e : Protocol.cmd Rtypes.entry) ->
          let idx = prev_idx + 1 + i in
          let meta = e.cmd.Protocol.meta in
          (* Entries at or below the applied index were already executed;
             retransmissions of them need no body. *)
          if idx > t.applied_ptr && not meta.internal then
            if not (Unordered.mark_ordered t.store meta.rid) then
              request_recovery t meta.rid)
        entries
  | Vanilla | Unreplicated -> ()

let on_agg_commit t ~term ~commit ~applied =
  if is_leader t then begin
    (* A quorum acknowledged through the aggregator: the lease renews. *)
    Array.iteri (fun node _ -> lease_note_contact t node) applied;
    Array.iteri
      (fun node a -> if node <> t.id then note_applied t ~node ~applied:a)
      applied;
    feed_raft t (Rnode.Receive (Rtypes.Agg_ack { term; commit }))
  end
  else feed_raft t (Rnode.Receive (Rtypes.Commit_to { term; commit }))

let dispatch t (pkt : Protocol.payload Fabric.packet) =
  match pkt.payload with
  | Protocol.Request { rid; policy; op } ->
      on_client_request t ~src:pkt.src ~policy rid op
  | Protocol.Raft msg ->
      (match msg with
      | Rtypes.Append_entries { entries; prev_idx; _ } ->
          t.ack_override <-
            (match pkt.src with Addr.Netagg -> Some Addr.Netagg | _ -> None);
          feed_raft t (Rnode.Receive msg);
          t.ack_override <- None;
          bind_bodies t ~prev_idx entries;
          pump t
      | Rtypes.Append_ack { from; applied_idx; _ } ->
          tr t Trace.Debug ~kind:"ae_acked" (fun () ->
              Printf.sprintf "from=%d applied=%d" from applied_idx);
          (* Followers piggyback their applied index on every ack (§6.2);
             it feeds the leader's bounded queues and the read lease — and
             may un-stall a gated announce. *)
          if is_leader t then begin
            note_applied t ~node:from ~applied:applied_idx;
            lease_note_contact t from
          end;
          feed_raft t (Rnode.Receive msg);
          pump t
      | Rtypes.Install_ack { from; applied_idx; _ } ->
          (* Install acks piggyback the applied index like append acks:
             the transfer target's progress feeds the leader's bounded
             queues and lease. *)
          if is_leader t then begin
            note_applied t ~node:from ~applied:applied_idx;
            lease_note_contact t from
          end;
          feed_raft t (Rnode.Receive msg);
          pump t
      | Rtypes.Request_vote _ | Rtypes.Vote _ | Rtypes.Commit_to _
      | Rtypes.Agg_ack _ | Rtypes.Timeout_now _ | Rtypes.Install_snapshot _ ->
          feed_raft t (Rnode.Receive msg);
          pump t)
  | Protocol.Recovery_request { rid; asker } -> (
      match Unordered.find t.store rid with
      | Some op ->
          transmit_stage t stage_replier ~dst:(Addr.Node asker)
            (Protocol.Recovery_response { rid; op })
      | None -> ())
  | Protocol.Recovery_response { rid; op } ->
      if Rid_tbl.mem t.pending_recovery rid then begin
        Unordered.add t.store rid op;
        ignore (Unordered.mark_ordered t.store rid);
        resolve_recovery t rid;
        pump t
      end
  | Protocol.Probe_reply { term } -> (
      match t.order with
      | Raft raft
        when t.p.mode = Hover_pp && is_leader t && term = Rnode.term raft ->
          Rnode.set_aggregated raft true;
          (* Kick replication so the aggregated path takes over now. *)
          feed_raft t Rnode.Heartbeat_timeout
      | Local | Raft _ | Rabia _ -> ())
  | Protocol.Agg_commit { term; commit; applied } ->
      on_agg_commit t ~term ~commit ~applied
  | Protocol.Rabia msg ->
      feed_rabia t (Rb.Receive msg);
      pump t
  | Protocol.Response _ | Protocol.Nack _ | Protocol.Wrong_shard _
  | Protocol.Probe _ | Protocol.Feedback _ | Protocol.Reconfig _ ->
      ()

let on_packet t pkt =
  if t.alive then begin
    if t.p.features.loss_prob > 0. && Rng.bool t.rng t.p.features.loss_prob then
      Metrics.incr t.c_lost_rx
    else begin
      (* Pre-interned per-tag counter: no name allocation, no registry
         probe on the hottest path in the simulator. *)
      Metrics.incr t.c_rx.(Protocol.tag_index pkt.Fabric.payload);
      let role = rx_stage_of pkt.Fabric.payload in
      if role = stage_ingress || not (staged t) then
        (* Handled (or dropped) at decode, or the monolithic net, where
           every role is the one net CPU: no handoff. *)
        Cpu.exec (stage_cpu t stage_ingress) ~cost:(rx_cost pkt) (fun () ->
            dispatch t pkt)
      else
        Cpu.exec (stage_cpu t stage_ingress) ~cost:(rx_decode_cost pkt)
          (fun () ->
            Cpu.exec (stage_handoff t role)
              ~cost:(rx_proto_cost pkt + t.p.cost.stage_handoff_ns)
              (fun () -> dispatch t pkt))
    end
  end

(* ------------------------------------------------------------------ *)
(* Election clock and housekeeping                                     *)

(* Uniform over the closed interval [election_min, election_max]. The
   upper bound is inclusive so that election_min = election_max degenerates
   to a constant timeout rather than an out-of-range draw. *)
let draw_timeout t =
  t.p.timing.election_min
  + Rng.int t.rng (t.p.timing.election_max - t.p.timing.election_min + 1)

let start_election_clock t =
  let life = t.life in
  let rec arm deadline =
    Engine.at t.engine deadline (fun () ->
        if t.alive && t.life = life then begin
          let now = Engine.now t.engine in
          if is_leader t then begin
            t.last_activity <- now;
            arm (now + t.election_timeout)
          end
          else if t.passive then
            (* Joining node, no leader heard yet: never self-start. *)
            arm (now + t.election_timeout)
          else if now - t.last_activity >= t.election_timeout then begin
            feed_raft t Rnode.Election_timeout;
            t.last_activity <- now;
            t.election_timeout <- draw_timeout t;
            arm (now + t.election_timeout)
          end
          else arm (t.last_activity + t.election_timeout)
        end)
  in
  arm (Engine.now t.engine + t.election_timeout)

(* The leaderless backend has no election clock and no heartbeats; its
   one timer is the retransmit/status tick, paced like a heartbeat. *)
let start_rabia_ticker t =
  let life = t.life in
  let rec loop () =
    Engine.after t.engine t.p.timing.heartbeat (fun () ->
        if t.alive && t.life = life then begin
          feed_rabia t Rb.Tick;
          loop ()
        end)
  in
  loop ()

(* Body GC, completion-record expiry and log compaction. The three
   tables are independent, so each backend's arm can run its own body GC
   and compaction after the shared expiry. *)
let start_gc_loop t =
  let life = t.life in
  let retain = t.p.features.log_retain in
  let rec loop () =
    Engine.after t.engine gc_interval (fun () ->
        if t.alive && t.life = life then begin
          Completions.expire t.completions ~now:(Engine.now t.engine)
            ~retain:t.p.timing.gc_ordered;
          (match t.order with
          | Local -> ()
          | Raft raft ->
              ignore (Unordered.gc t.store);
              Metrics.set t.g_log_base (Rnode.compact raft ~retain)
          | Rabia { rb; _ } ->
              (* Bodies still in the leaderless proposal pool are pinned:
                 their time-to-order is unbounded (see {!Unordered.gc}). *)
              ignore
                (Unordered.gc t.store ~keep:(fun rid ->
                     Rb.pending_mem rb (Format.asprintf "%a" R2p2.pp_req_id rid)));
              Metrics.set t.g_log_base (Rb.compact rb ~retain));
          loop ()
        end)
  in
  loop ()

(* The node's timers: none unreplicated; the election clock under raft,
   the retransmit/status tick under rabia; the GC loop under both. *)
let start_timers t =
  match t.order with
  | Local -> ()
  | Raft _ ->
      start_election_clock t;
      start_gc_loop t
  | Rabia _ ->
      start_rabia_ticker t;
      start_gc_loop t

(* Bring the node onto the network and arm its clocks: shared by
   [create] and [restart]. *)
let boot t =
  t.port <-
    Some
      (Fabric.attach t.fabric ~addr:(Addr.Node t.id)
         ~rate_gbps:t.p.cost.link_gbps ~handler:(on_packet t));
  Fabric.join t.fabric ~group:Addr.cluster_group (Addr.Node t.id);
  t.election_timeout <- draw_timeout t;
  start_timers t

(* ------------------------------------------------------------------ *)

(* Raft-internal events surface here as metrics and trace entries; the
   observer is strictly one-way except for the gate veto, which arms the
   re-kick machinery. *)
let on_raft_event t = function
  | Rnode.Obs_election_started term ->
      Metrics.incr t.c_elections;
      tr t Trace.Info ~kind:"election_started" (fun () ->
          Printf.sprintf "term=%d" term)
  | Rnode.Obs_leadership_won term ->
      tr t Trace.Info ~kind:"leadership_won" (fun () ->
          Printf.sprintf "term=%d" term)
  | Rnode.Obs_leadership_lost term ->
      tr t Trace.Warn ~kind:"leadership_lost" (fun () ->
          Printf.sprintf "term=%d" term)
  | Rnode.Obs_commit_advanced c ->
      tr t Trace.Debug ~kind:"commit_advanced" (fun () ->
          Printf.sprintf "commit=%d" c)
  | Rnode.Obs_announced_to i ->
      tr t Trace.Debug ~kind:"announced" (fun () -> Printf.sprintf "upto=%d" i)
  | Rnode.Obs_announce_gated i ->
      Metrics.incr t.c_gate_blocked;
      t.announce_stalled <- true;
      tr t Trace.Debug ~kind:"announce_gated" (fun () ->
          Printf.sprintf "at=%d" i)
  | Rnode.Obs_config_changed (idx, ms) ->
      tr t Trace.Info ~kind:"config_effective" (fun () ->
          Printf.sprintf "idx=%d members=[%s]" idx
            (String.concat ";" (List.map string_of_int ms)));
      (* A leader that just appended this entry dropped the aggregated
         fast path (the switch's quorum and fan-out group are for the old
         membership). Re-arm the dataplane NOW, not at commit: the
         followers keep sending their acks to the aggregator regardless
         of what the leader does, and the aggregator only advances commit
         against the announcements it forwarded itself — so until it
         learns the new membership, no ack ever reaches the leader and
         the config entry can never commit. Waiting for commit to re-arm
         is a deadlock broken only by an election. *)
      (match t.order with
      | Raft raft when t.p.mode = Hover_pp && is_leader t && t.alive ->
          rearm_aggregator t ~term:(Rnode.term raft) (Array.of_list ms)
      | Local | Raft _ | Rabia _ -> ())
  | Rnode.Obs_transfer_sent target ->
      Metrics.incr t.c_transfers;
      t.last_transfer <- Some target;
      tr t Trace.Info ~kind:"transfer_sent" (fun () ->
          Printf.sprintf "target=%d" target)
  | Rnode.Obs_snapshot_taken idx ->
      (* Counted by [take_snapshot], which cuts under both backends. *)
      tr t Trace.Info ~kind:"snapshot_taken" (fun () ->
          Printf.sprintf "idx=%d" idx)
  | Rnode.Obs_install_started (peer, idx) ->
      Hashtbl.replace t.xfer_start peer (Engine.now t.engine);
      tr t Trace.Info ~kind:"install_started" (fun () ->
          Printf.sprintf "peer=%d idx=%d" peer idx)
  | Rnode.Obs_install_completed (peer, idx) ->
      Metrics.incr t.c_installs_sent;
      (match Hashtbl.find_opt t.xfer_start peer with
      | Some t0 ->
          Metrics.observe t.h_install_ns (Engine.now t.engine - t0);
          Hashtbl.remove t.xfer_start peer
      | None -> ());
      tr t Trace.Info ~kind:"install_completed" (fun () ->
          Printf.sprintf "peer=%d idx=%d" peer idx)

let create ?trace ?members ?(passive = false) engine fabric p ~id =
  validate_params p;
  let members =
    match members with
    | Some ms ->
        if ms = [] then invalid_arg "Hnode.create: empty membership";
        List.sort_uniq compare ms
    | None -> List.init p.n (fun i -> i)
  in
  if id < 0 then invalid_arg "Hnode.create: negative id";
  if not (List.mem id members) then
    invalid_arg "Hnode.create: id outside membership";
  let rng = Rng.create (p.seed + (id * 7919)) in
  let peers = Array.of_list (List.filter (fun i -> i <> id) members) in
  (* [validate_params] admits rabia only under Hover. *)
  let order =
    match (p.mode, (p.backend : backend)) with
    | Unreplicated, _ -> Local
    | (Vanilla | Hover | Hover_pp), Raft ->
        Raft
          (Rnode.create
             {
               Rnode.id;
               peers;
               batch_max = p.features.batch_max;
               eager_commit_notify =
                 (p.features.eager_commit_notify && p.mode = Hover
                 && p.features.reply_lb);
               snap_chunk_bytes = Hovercraft_net.Wire.snap_chunk_bytes;
             }
             ~noop:Protocol.internal_noop)
    | (Vanilla | Hover | Hover_pp), Rabia ->
        Rabia
          {
            rb =
              Rb.create
                {
                  Rb.id;
                  peers;
                  batch_max = p.features.batch_max;
                  (* Cluster-wide: the common coin must flip the same way
                     on every node, so the seed is the shared experiment
                     seed, not the per-node one. *)
                  coin_seed = p.seed;
                }
                ~key_of:(fun (c : Protocol.cmd) ->
                  Format.asprintf "%a" R2p2.pp_req_id c.Protocol.meta.rid);
            members = Array.of_list members;
          }
  in
  let now () = Engine.now engine in
  let metrics = Metrics.create () in
  let trace =
    match trace with Some tr -> tr | None -> Trace.create ~level:Trace.Info ()
  in
  let t =
    {
      p;
      id;
      engine;
      fabric;
      port = None;
      net_cpus = Array.init p.features.net_stages (fun _ -> Cpu.create engine);
      apps = Array.init p.features.apply_threads (fun _ -> Cpu.create engine);
      rng;
      order;
      store =
        Unordered.create ~now ~gc_unordered:p.timing.gc_unordered
          ~gc_ordered:p.timing.gc_ordered ();
      replier =
        Replier.create p.features.lb_policy ~bound:p.features.bound
          ~nodes:members ~rng:(Rng.split rng);
      app_state = Op.create_state ();
      members;
      alive = true;
      life = 0;
      passive;
      last_activity = 0;
      election_timeout = 0;
      hb_gen = 0;
      applied_ptr = 0;
      apply_inflight = 0;
      apply_done = Hashtbl.create 64;
      apply_watermark = 0;
      apply_rr = 0;
      pumping = false;
      pending_recovery = Rid_tbl.create 64;
      lease_heard = Hashtbl.create 16;
      completions = Completions.create ();
      ack_override = None;
      probe_sent_term = -1;
      last_transfer = None;
      last_snap = 0;
      shard_filter = None;
      shard_version = 0;
      preloaded = 0;
      xfer_start = Hashtbl.create 8;
      metrics;
      trace;
      c_replies = Metrics.counter metrics "replies_sent";
      c_rx =
        Array.init Protocol.tag_count (fun i ->
            Metrics.counter metrics ("rx." ^ Protocol.tag_name i));
      c_recoveries = Metrics.counter metrics "recoveries_sent";
      c_recovery_escalations = Metrics.counter metrics "recovery_escalations";
      c_recoveries_resolved = Metrics.counter metrics "recoveries_resolved";
      c_rejected = Metrics.counter metrics "rejected";
      c_lost_rx = Metrics.counter metrics "lost_rx";
      c_elections = Metrics.counter metrics "elections_started";
      c_gate_blocked = Metrics.counter metrics "gate_blocked";
      c_gate_rekicks = Metrics.counter metrics "gate_rekicks";
      c_reconfigs = Metrics.counter metrics "reconfigs_applied";
      c_transfers = Metrics.counter metrics "transfers_initiated";
      c_snapshots = Metrics.counter metrics "snapshots_taken";
      c_installs_recv = Metrics.counter metrics "snapshots_installed";
      c_installs_sent = Metrics.counter metrics "installs_sent";
      g_log_base = Metrics.gauge metrics "log_base";
      g_snap_index = Metrics.gauge metrics "snapshot_index";
      g_apply_busy =
        Array.init p.features.apply_threads (fun k ->
            Metrics.gauge metrics (Printf.sprintf "apply_busy_ns.%d" k));
      h_recovery_ns = Metrics.histogram metrics "recovery_latency_ns";
      h_install_ns = Metrics.histogram metrics "install_transfer_ns";
      h_apply_stall = Metrics.histogram metrics "apply_stall_ns";
      g_stage_busy =
        (if p.features.net_stages > 1 then
           Array.map
             (fun name -> Metrics.gauge metrics ("stage_busy_ns." ^ name))
             stage_names
         else [||]);
      g_stage_queue =
        (if p.features.net_stages > 1 then
           Array.map
             (fun name -> Metrics.gauge metrics ("stage_queue_ns." ^ name))
             stage_names
         else [||]);
      h_stage_stall =
        (if p.features.net_stages > 1 then
           Some (Metrics.histogram metrics "stage_stall_ns")
         else None);
      announce_stalled = false;
    }
  in
  (match order with
  | Raft raft ->
      Rnode.set_observer raft (Some (on_raft_event t));
      Rnode.set_config_decoder raft (fun (c : Protocol.cmd) -> c.Protocol.config)
  | Local | Rabia _ -> ());
  boot t;
  t

let id t = t.id
let alive t = t.alive
let mode t = t.p.mode
let backend t = t.p.backend

let commit_index t = commit_index_internal t
let applied_index t = t.applied_ptr

let log_length t =
  if has_consensus t then Rlog.last_index (consensus_log t) else 0

let log_base t = if has_consensus t then Rlog.base (consensus_log t) else 0

let snapshot_index t =
  match t.order with
  | Local -> 0
  | Raft r -> Rnode.snapshot_index r
  | Rabia { rb; _ } -> Rb.snapshot_index rb

let snapshots_taken t = Metrics.value t.c_snapshots
let installs_received t = Metrics.value t.c_installs_recv

let app_fingerprint t = Op.fingerprint t.app_state
let executed_ops t = Op.executed t.app_state
let replies_sent t = Metrics.value t.c_replies
let store_size t = Unordered.size t.store

let recoveries_sent t = Metrics.value t.c_recoveries
let recovery_escalations t = Metrics.value t.c_recovery_escalations
let pending_recoveries t = Rid_tbl.length t.pending_recovery
let port t = Option.get t.port

let net_busy_time t =
  Array.fold_left (fun acc c -> acc + Cpu.busy_time c) 0 t.net_cpus

let app_busy_time t =
  Array.fold_left (fun acc c -> acc + Cpu.busy_time c) 0 t.apps

let net_stages t = Array.length t.net_cpus

(* (role, busy ns of the CPU serving it): roles collapsed onto a shared
   core report that core's total — the view that shows which stage the
   pipeline binds on next. *)
let stage_busy_times t =
  Array.to_list
    (Array.mapi
       (fun role name -> (name, Cpu.busy_time (stage_cpu t role)))
       stage_names)

let stage_stalls t =
  match t.h_stage_stall with Some h -> Metrics.hist_count h | None -> 0

let apply_threads t = Array.length t.apps
let apply_busy_times t = Array.map Cpu.busy_time t.apps
let apply_stalls t = Metrics.hist_count t.h_apply_stall

(* Log inspection without exposing the backend: history checkers walk
   the committed/applied prefix through these instead of reaching into
   the Raft node (which may not exist under the rabia backend). *)
let log_first_index t =
  if has_consensus t then Rlog.first_index (consensus_log t) else 1

let iter_log t ~lo ~hi f =
  if has_consensus t then
    Rlog.iter_range (consensus_log t) ~lo ~hi (fun idx e ->
        f idx e.Rtypes.term e.Rtypes.cmd)

let aggregated t =
  match t.order with Raft r -> Rnode.aggregated r | Local | Rabia _ -> false

let metrics t = t.metrics
let trace t = t.trace
let redraw_election_timeout t = draw_timeout t
let members t = t.members
let last_transfer t = t.last_transfer

let config_index t =
  match t.order with Raft r -> Rnode.config_index r | Local | Rabia _ -> 0

let raft_members t =
  match t.order with Raft r -> Rnode.members r | Local | Rabia _ -> t.members

(* Leaderless consensus needs no bootstrap election; the first client
   command starts slot 0. *)
let bootstrap t =
  match t.order with
  | Raft _ -> feed_raft t Rnode.Election_timeout
  | Local | Rabia _ -> ()

let propose_reconfig t ~members:ms =
  if ms = [] then invalid_arg "Hnode.propose_reconfig: empty membership";
  match t.order with
  | Rabia _ ->
      invalid_arg
        "Hnode.propose_reconfig: the rabia backend is fixed-membership \
         (quorum-intersection over locked proposals assumes a static member \
         set)"
  | Local | Raft _ ->
      feed_raft t
        (Rnode.Client_command
           (Protocol.config_cmd
              ~members:(Array.of_list (List.sort_uniq compare ms))))

let transfer_leadership t ~target =
  match t.order with
  | Rabia _ ->
      invalid_arg
        "Hnode.transfer_leadership: the rabia backend is leaderless — there \
         is no leadership to transfer"
  | Local | Raft _ -> feed_raft t (Rnode.Transfer_leadership target)

let preload t ops =
  List.iter (fun op -> ignore (Op.apply t.app_state op)) ops;
  t.preloaded <- t.preloaded + List.length ops

let preloaded t = t.preloaded

let set_shard_filter t ~version owns =
  t.shard_filter <- Some owns;
  t.shard_version <- version

let extract_range t ~keep = Op.extract_kv t.app_state ~keep

(* Receive census, kept as an accessor over the "rx.<tag>" counters. The
   counters are pre-interned (all tags exist from creation), so only the
   ones that actually fired are listed — matching the old lazily-created
   behavior. *)
let rx_census t =
  List.filter_map
    (fun (name, v) ->
      if v > 0 && String.length name > 3 && String.sub name 0 3 = "rx." then
        Some (String.sub name 3 (String.length name - 3), v)
      else None)
    (Metrics.counters t.metrics)

let snapshot t =
  Array.iteri
    (fun k c -> Metrics.set t.g_apply_busy.(k) (Cpu.busy_time c))
    t.apps;
  Array.iteri
    (fun role g -> Metrics.set g (Cpu.busy_time (stage_cpu t role)))
    t.g_stage_busy;
  let gauges =
    [
      ("id", Json.Int t.id);
      ("alive", Json.Bool t.alive);
      ("leader", Json.Bool (is_leader t));
      ("term", Json.Int (term t));
      ("commit", Json.Int (commit_index t));
      ("applied", Json.Int t.applied_ptr);
      ("log_length", Json.Int (log_length t));
      ("log_base", Json.Int (log_base t));
      ("snapshot_index", Json.Int (snapshot_index t));
      ("store_size", Json.Int (Unordered.size t.store));
      ("pending_recoveries", Json.Int (Rid_tbl.length t.pending_recovery));
      ("net_busy_ns", Json.Int (net_busy_time t));
      ("app_busy_ns", Json.Int (app_busy_time t));
      ("apply_threads", Json.Int (Array.length t.apps));
      ("net_stages", Json.Int (Array.length t.net_cpus));
      (* Membership: who votes, which log entry established it, and the
         last cooperative handoff this node initiated (-1 = none). *)
      ("members", Json.List (List.map (fun i -> Json.Int i) t.members));
      ("config_index", Json.Int (config_index t));
      ( "last_transfer",
        Json.Int (match t.last_transfer with Some n -> n | None -> -1) );
    ]
  in
  let replier =
    if is_leader t && t.p.features.reply_lb then
      [
        ( "replier",
          Json.Obj
            [
              ("bound", Json.Int (Replier.bound t.replier));
              ( "depths",
                Json.List
                  (List.map
                     (fun i -> Json.Int (Replier.depth t.replier i))
                     (Replier.nodes t.replier)) );
            ] );
      ]
    else []
  in
  Json.Obj (gauges @ replier @ [ ("metrics", Metrics.snapshot t.metrics) ])

let kill = halt

(* Crash–recovery (DESIGN.md): what survives is the Raft persistent state
   (term, vote, log — and the configuration stack, derived from it) and
   the state machine up to the applied index — including the exactly-once
   completion records and the applied membership view, which are part of
   it. Everything else is rebuilt: the node re-attaches its NIC, re-enters
   as a follower with a fresh election clock, and catches up on entries
   committed while it was down through the ordinary append-entries
   backtracking, fetching bodies it missed via recovery requests. *)
let restart t =
  if t.alive then invalid_arg "Hnode.restart: node is alive";
  t.alive <- true;
  Array.iter Cpu.resume t.net_cpus;
  Array.iter Cpu.resume t.apps;
  t.store <-
    Unordered.create
      ~now:(fun () -> Engine.now t.engine)
      ~gc_unordered:t.p.timing.gc_unordered ~gc_ordered:t.p.timing.gc_ordered ();
  t.announce_stalled <- false;
  t.ack_override <- None;
  t.probe_sent_term <- -1;
  t.hb_gen <- t.hb_gen + 1;
  Hashtbl.reset t.lease_heard;
  (match t.order with
  | Local -> ()
  | Raft raft ->
      Rnode.recover raft;
      t.applied_ptr <- Rnode.applied_index raft
  | Rabia { rb; _ } ->
      Rb.recover rb;
      t.applied_ptr <- Rb.applied_index rb);
  (* The checkpoint is durable (part of the applied state machine's
     persistence); restart from it rather than re-cutting early. *)
  t.last_snap <- snapshot_index t;
  (* The dispatcher restarts with nothing in flight; its
     watermark and round-robin pointer are recomputed from the durable
     applied prefix so a replayed log redispatches identically. *)
  t.apply_inflight <- 0;
  Hashtbl.reset t.apply_done;
  t.apply_watermark <- t.applied_ptr;
  t.apply_rr <- 0;
  t.pumping <- false;
  Hashtbl.reset t.xfer_start;
  t.last_activity <- Engine.now t.engine;
  boot t;
  tr t Trace.Warn ~kind:"restarted" (fun () ->
      Printf.sprintf "term=%d applied=%d" (term t) t.applied_ptr)
