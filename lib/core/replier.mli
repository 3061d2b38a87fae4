(** The leader's replier-selection state (§3.3, §3.4, §3.6).

    For every node the leader tracks the set of reply assignments between
    that node's applied index and the leader's announced index; its size is
    the node's queue depth. A node is eligible while its depth is below the
    bound B. [pick] selects among eligible nodes — shortest queue under
    JBSQ, uniform under RANDOM — and when nobody is eligible the leader
    simply stops announcing (never breaking the invariant, §3.4).

    A crashed node's applied index stops progressing, so its queue fills to
    B and it stops receiving assignments: at most B replies are lost per
    failed node. *)

open Hovercraft_sim
open Hovercraft_r2p2

type t

val create : Jbsq.policy -> bound:int -> nodes:int list -> rng:Rng.t -> t
val bound : t -> int

val nodes : t -> int list
(** Current node set, sorted. *)

val set_nodes : t -> int list -> unit
(** Replace the node set (membership change). Retained nodes keep their
    queues and applied knowledge, removed nodes are forgotten (at most
    [bound] outstanding replies are lost, as for a crash), added nodes
    start fresh. *)

val note_applied : t -> node:int -> applied:int -> unit
(** Update a node's applied index (from local application progress, an
    append_entries reply, or an AGG_COMMIT). Monotone. *)

val applied_of : t -> int -> int
val depth : t -> int -> int

val any_eligible : t -> bool
(** Whether at least one node could receive an assignment right now; used
    to decide when a blocked announce gate is worth re-kicking. *)

val pick : t -> unit -> int option
(** Choose a replier for the next entry to announce, or [None] when no
    node is eligible. Does not record the assignment. *)

val assign : t -> node:int -> index:int -> unit
(** Record that entry [index] was assigned to [node]. Indices assigned to
    one node must be increasing. *)

val reset : t -> unit
(** Forget all assignments and applied knowledge (new leadership). *)
