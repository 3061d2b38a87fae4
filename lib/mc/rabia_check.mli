(** Randomized agreement checking for the leaderless rabia backend.

    The BFS checker in {!Explore} walks bounded Raft instances; rabia's
    per-slot randomized agreement has a much wider nondeterminism
    surface (the coin folds the slot and round into every branch), so
    this module trades exhaustiveness for adversarial depth: [n] {e
    pure} {!Hovercraft_ordering.Rabia} instances over stamped integer
    commands, some injected twice with different stamps, driven by a
    seeded scheduler that delivers, drops, duplicates and reorders
    messages and crash-recovers nodes mid-agreement, followed
    by a lossless calm phase so liveness is a checkable postcondition
    rather than a property of the schedule.

    Checked:
    - {b per-slot agreement}: every pair of logs is identical on their
      common prefix, (slot, command)-wise — since a decided batch
      appends atomically with the slot number as entry term, this is
      agreement on every decided slot;
    - {b validity}: only injected commands ever decide, each with the
      stamp of a copy that was injected;
    - {b liveness} (after the calm phase): every injected command is
      decided on every node.

    A run is a pure function of its config — failures replay. *)

type config = {
  n : int;  (** Instances (>= 2). *)
  cmds : int;
      (** Integer commands injected, each at one random node; about a
          third also as a later-stamped resend at a random node. *)
  steps : int;  (** Adversarial scheduler steps. *)
  drop_prob : float;  (** Per-delivery drop probability. *)
  dup_prob : float;  (** Per-delivery duplication probability. *)
  recover_prob : float;  (** Per-step crash-recovery probability. *)
  seed : int;
}

val default : config
(** 3 nodes, 12 commands, 4000 steps, 10% drop, 10% dup, seed 1. *)

type outcome = {
  decided : int;  (** Entries in node 0's log after the calm phase. *)
  injected : int;
  agreed : bool;  (** Per-slot agreement held. *)
  valid : bool;  (** Only injected commands decided. *)
  all_decided : bool;  (** Every command decided everywhere. *)
  violations : string list;  (** Human-readable, empty when clean. *)
}

val run : config -> outcome
