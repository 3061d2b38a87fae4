(** Rabia-style leaderless randomized consensus (PAPERS.md): one
    binary-agreement instance per log {e slot}, in the weak-MVC shape —
    nodes exchange batch proposals, reduce to a binary question ("commit
    the unique majority-proposed batch, or a null slot?") and settle it
    with Ben-Or rounds whose tie-breaking coin is a deterministic
    function of (cluster seed, slot, round), shared by every node. No
    leader, no election, no failover latency: a node kill costs the
    quorum nothing but the dead node's votes.

    Pure state-transition machine, like {!Hovercraft_raft.Node}:
    [handle] consumes one input and returns the actions to perform, in
    order. The module never reads a clock or a private RNG — a run is a
    function of its inputs and the seed, so seeded chaos replays
    byte-identically.

    Safety notes the embedder must respect:

    - {e Round state is durable.} Crash-recovery Ben-Or with forgotten
      votes is unsafe (a node that voted for a decision, crashed, and
      re-entered fresh can join a conflicting coin-flip quorum), so the
      per-slot round state — locked proposal, estimate, candidate,
      received tallies — persists across a simulated crash exactly like
      Raft's term/vote/log. {!recover} clears only message buffers.
    - {e Slots are atomic in the log.} A decided batch appends as one
      unit (entry term = slot number), so [last_index] is always
      slot-final; checkpoints must cut at slot boundaries
      ({!slot_final}).
    - Decided batches may occasionally duplicate a command decided in an
      earlier slot (two nodes proposing it concurrently); the embedder's
      exactly-once completion layer deduplicates at apply time. *)

type config = {
  id : int;
  peers : int array;
  batch_max : int;  (** Max commands per slot proposal. *)
  coin_seed : int;
      (** Cluster-wide seed for the common coin — every node must be
          given the same value. *)
}

(** A slot's value: a batch of commands, or the null slot. *)
type 'cmd value = Bot | Batch of 'cmd array

type bvote = V0 | V1 | Vq

type ('cmd, 'snap) msg =
  | Proposal of { from : int; slot : int; value : 'cmd value }
  | State of {
      from : int;
      slot : int;
      round : int;
      est : bool;
      value : 'cmd value;
          (** The sender's candidate batch when it knows one (piggybacked
              so the unique candidate propagates); [Bot] otherwise. *)
    }
  | Vote of {
      from : int;
      slot : int;
      round : int;
      vote : bvote;
      value : 'cmd value;
    }
  | Status of { from : int; next_slot : int }
      (** Pull-based catch-up probe: "my next undecided slot is
          [next_slot]" — a peer that is ahead answers with [Repair] (or
          [Snap] when the slots were compacted away). *)
  | Repair of { from : int; decisions : (int * 'cmd value) list }
  | Snap of { from : int; meta : 'snap Hovercraft_raft.Snapshot.meta }
      (** Whole-image snapshot install for peers behind the compaction
          point. *)

type ('cmd, 'snap) input =
  | Receive of ('cmd, 'snap) msg
  | Tick
      (** Periodic: when the slot made no progress since the previous
          tick, retransmit this node's proposal and its state and vote of
          every round of the slot so far, and send a [Status] probe. The
          embedder owns the cadence. *)
  | Client_command of 'cmd
  | Applied_up_to of int

type ('cmd, 'snap) action =
  | Send of int * ('cmd, 'snap) msg
  | Commit_advanced of int
  | Appended_range of int * int
      (** Entries [lo..hi] just entered the log (a decided batch or a
          repair); the embedder binds bodies / assigns repliers. Emitted
          before the accompanying [Commit_advanced]. *)
  | Snapshot_installed of 'snap Hovercraft_raft.Snapshot.meta
      (** A received whole-image snapshot was spliced in (emitted before
          the accompanying [Commit_advanced]): the embedder must replace
          its state machine with the image. *)

type ('cmd, 'snap) t

val create :
  config -> key_of:('cmd -> string) -> stamp_of:('cmd -> int) -> ('cmd, 'snap) t
(** [key_of] names a command for the proposal pool, which holds one copy
    per key. Must be injective (e.g. a printed request id). [stamp_of]
    tells copies of one command apart: the pool keeps the least-stamped
    copy it has seen, and proposal batches are equal when their keys and
    stamps are, so every replica appends a decided batch with the same
    stamps. *)

val handle :
  ('cmd, 'snap) t -> ('cmd, 'snap) input -> ('cmd, 'snap) action list

(** {1 Observers} *)

val id : ('cmd, 'snap) t -> int
val members : ('cmd, 'snap) t -> int list
val log : ('cmd, 'snap) t -> 'cmd Hovercraft_raft.Log.t
val commit_index : ('cmd, 'snap) t -> int
val applied_index : ('cmd, 'snap) t -> int
val next_slot : ('cmd, 'snap) t -> int
val pending : ('cmd, 'snap) t -> int

(** [pending_mem t key] is whether a command with this [key_of] key is
    still in the proposal pool (received but not yet decided). Hosts use
    it to pin the command's body for as long as ordering may still need
    it — time to decision is unbounded under partitions, unlike a
    leader-ordered backend where ordering follows receipt within a round
    trip. *)
val pending_mem : ('cmd, 'snap) t -> string -> bool

(** [filter_pending t ~keep] drops every pending command for which
    [keep] is false. A node that catches up through a snapshot image
    never sees the per-slot decisions the image covers, so commands it
    had pooled that were decided inside that window would linger and be
    re-proposed — ordering an already-applied command a second time.
    The host calls this after an install, keeping only commands absent
    from the restored completion records. *)
val filter_pending : ('cmd, 'snap) t -> keep:('cmd -> bool) -> unit
val slot_final : ('cmd, 'snap) t -> int -> bool
(** Whether entry [idx] is the last of its slot — the only indices a
    checkpoint may cut at. *)

(** {1 Snapshots and compaction} *)

val set_snapshot :
  ('cmd, 'snap) t -> 'snap Hovercraft_raft.Snapshot.meta -> unit
(** Register a checkpoint. [meta.last_idx] must be slot-final; decisions
    at or below its slot are pruned (laggards get the image instead). *)

val snapshot : ('cmd, 'snap) t -> 'snap Hovercraft_raft.Snapshot.meta option
val snapshot_index : ('cmd, 'snap) t -> int

val compact : ('cmd, 'snap) t -> retain:int -> int
(** Compact the log up to the snapshot's covered prefix (or the applied
    index when no snapshot exists), always retaining the most recent
    [retain] entries; returns the new base. Also drops the decisions
    below every replica's next slot (as far as this node has heard), which
    no Repair can ask for any more. *)

(** {1 Crash recovery} *)

val recover : ('cmd, 'snap) t -> unit
(** Rebuild after a simulated crash–restart. Consensus state (log,
    decisions, the current slot's locked proposal / estimate / tallies)
    is durable and survives — see the safety note above. Only buffered
    out-of-window messages are dropped. *)
