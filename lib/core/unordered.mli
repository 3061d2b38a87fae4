(** The per-node store of client request bodies (§3.2, §5).

    Every node receives multicast request bodies before the leader orders
    them. A body starts {e unordered}; once the node sees its metadata
    appear in the Raft log it is {e ordered} (it now serves as the body to
    apply, and as recovery material for other nodes). Applying the entry
    does not remove it: duplicate appends must still bind, and lagging
    followers recover bodies from peers that already applied them.

    Garbage collection follows the paper: unordered bodies that linger past
    a timeout are dropped (the request was probably never ordered — or, if
    it was, the recovery path refetches it); ordered bodies are retained
    for a longer retention window, counted from when they were ordered, so
    they can serve recovery requests from lagging followers even after
    local application.

    Bodies sit on time-ordered expiry lists ({!Rid_table}), so {!gc} costs
    O(expired + pinned) rather than a scan of every retained body. *)

open Hovercraft_sim
open Hovercraft_r2p2

type t

val create :
  now:(unit -> Timebase.t) ->
  gc_unordered:Timebase.t ->
  gc_ordered:Timebase.t ->
  unit ->
  t

val add : t -> R2p2.req_id -> Hovercraft_apps.Op.t -> unit
(** Insert a freshly received multicast body (unordered). Re-adding an
    existing id refreshes its timestamp but keeps its ordered state. *)

val ingest : t -> R2p2.req_id -> Hovercraft_apps.Op.t -> bool
(** {!add}, returning whether the id was already ordered: the duplicate
    check a retransmission needs, from the same lookup. *)

val find : t -> R2p2.req_id -> Hovercraft_apps.Op.t option
(** Look up a body regardless of state. *)

val status : t -> R2p2.req_id -> [ `Absent | `Unordered | `Ordered ]
(** Whether the id is unknown, received but not yet ordered, or already
    bound to a log position. An inspection for tests: the node's
    duplicate check reads the same state through {!ingest}. *)

val mark_ordered : t -> R2p2.req_id -> bool
(** Transition to ordered when the id shows up in the log, restarting its
    retention clock; [false] when the body is absent (the multicast was
    lost — recovery needed). *)

val remove : t -> R2p2.req_id -> unit
(** Drop a body at once, whatever its state. The node itself never does:
    applied bodies leave through {!gc}'s ordered retention window. *)

val unordered_bindings : t -> (R2p2.req_id * Hovercraft_apps.Op.t) list
(** Bodies not yet ordered, oldest first — what a freshly elected leader
    ingests into its log (§5). *)

val gc : ?keep:(R2p2.req_id -> bool) -> t -> int
(** Collect expired entries; returns how many were dropped. Pops expired
    heads off the unordered and ordered lists and stops at the first live
    one, so a tick costs O(expired), plus one pass over the bodies [keep]
    pinned on earlier ticks. Unordered
    bodies for which [keep] holds are never dropped regardless of age —
    a leaderless ordering backend pins bodies still sitting in its
    proposal pool, where time-to-order is unbounded (an ordering stall
    under a partition can outlast any fixed timeout, and a body dropped
    everywhere before its command decides wedges the apply loop for
    good). Ordered bodies are never subject to [keep]; their retention
    window already covers recovery. *)

val size : t -> int
val unordered_count : t -> int
