(** The request path of one node (§3.2, §5): what becomes of a client
    request, and whether a log entry has its body here.

    Owns the multicast body store ({!Unordered}, emptied by a crash), the
    pending body recoveries, the shard filter and the lease contacts.
    Reads the apply layer ({!Apply}) for the applied index and the
    completion records. It names no clock: every input that needs the
    time carries it as [~now]. It transmits nothing either; each input
    returns the decision its caller carries out. DESIGN.md's "Request
    path" table lists every input with its decisions. *)

open Hovercraft_sim
open Hovercraft_r2p2
module Op = Hovercraft_apps.Op

type path =
  | Local  (** Unreplicated: a request runs where it lands. *)
  | Shipped  (** Vanilla Raft: the leader ships bodies inside its appends. *)
  | Bound
      (** HovercRaft: bodies ride the client multicast and bind to the
          log through the store. *)

type admission =
  | Replay of Op.result  (** Answer from the completion record. *)
  | Wrong_shard  (** NACK: this group does not own the key. *)
  | Execute  (** Run here, never ordered. *)
  | Propose  (** Hand to the ordering layer. *)
  | Wait  (** Body kept; the log will bind it. *)
  | Duplicate  (** Body kept; a write already in the log. *)
  | Reject  (** A follower cannot order under vanilla Raft. *)
  | Ignore  (** A lease read on a follower: the leader answers. *)

type t

val create :
  id:int ->
  path:path ->
  ring:int array ->
  leases:bool ->
  lease_window:Timebase.t ->
  gc_unordered:Timebase.t ->
  gc_ordered:Timebase.t ->
  retry_max:int ->
  Apply.t ->
  t
(** The request path of node [id]. [ring] is the static membership of a
    leaderless backend, [[||]] under a leader: it names the node that
    replays a request (a hash of its id) and the replier of each entry (a
    rotation by index). [leases]: the leader answers reads alone while a
    quorum was heard within [lease_window]. [retry_max]: unicast probes
    of a recovery before it asks the whole cluster. *)

val admit :
  t -> now:Timebase.t -> leader:bool -> members:int list -> R2p2.req_id -> Op.t ->
  admission
(** A client request to be replicated (first copy or retry). *)

val needs_body : t -> index:int -> Protocol.meta -> bool
(** The body-need rule: the entry at [index] needs its body here iff it
    is above the applied index, is a client entry, is a write or a read
    this node answers (under {!Bound}, [meta.replier]), and is not a
    write whose completion record would replay. *)

val bind : t -> now:Timebase.t -> index:int -> Protocol.meta -> bool
(** An entry appended at [index] (leader append, follower append, or a
    leaderless slot, which also gets its replier here): mark its body
    ordered if it is still to apply. [true] when the body is missing and
    {!needs_body}: recover it. *)

val due : t -> index:int -> Protocol.cmd -> Op.t option
(** The operation to apply at [index]: its body, [Op.Nop] when no body
    is needed, or [None] when a needed body is missing: recover it. *)

val recover : t -> now:Timebase.t -> R2p2.req_id -> bool
(** Register a recovery; [false] when one is already pending. *)

val pending : t -> R2p2.req_id -> bool
val pending_count : t -> int

val retry : t -> R2p2.req_id -> retries:int -> bool
(** The retry timer of a recovery armed at [retries]: [true] (and the
    count moves to [retries + 1]) while that recovery is still pending
    at that count. *)

val probe :
  t -> retries:int -> members:int list -> leader:int option -> Rng.t ->
  Hovercraft_net.Addr.t option
(** Where a recovery's probe number [retries] goes: the leader first,
    then a random other member, then (from [retry_max] on) the whole
    cluster group; [None] when there is nobody to ask. *)

val backoff : int -> Timebase.t
(** The wait before retry number [retries + 1]: 200 us, doubling, at
    most 10 ms. *)

val deliver : t -> now:Timebase.t -> R2p2.req_id -> Op.t -> bool
(** A recovery response: [true] when a recovery was pending for it; the
    body is then stored as ordered, and the caller resolves. *)

val resolve : t -> now:Timebase.t -> R2p2.req_id -> (int * Timebase.t) option
(** A copy of the body arrived (a recovery response, a retry, a
    duplicate multicast) or its entry was applied: the pending recovery,
    if any, ends. Returns its retries and how long it waited. *)

val note_contact : t -> now:Timebase.t -> int -> unit
(** The leader heard from a node: its lease renews. *)

val crash : t -> unit
val install : t -> unit
(** A crash, or an installed image replacing the prefix they were for,
    drops the pending recoveries. *)

val restart : t -> unit
(** The body store restarts empty, and so do the lease contacts. *)

val gc : ?keep:(R2p2.req_id -> bool) -> t -> now:Timebase.t -> unit
(** {!Unordered.gc} on the body store. *)

val set_shard_filter : t -> version:int -> (Op.t -> bool) -> unit
(** The keys this group owns under shard-map [version] (keyless
    operations must pass). *)

val shard_version : t -> int

val body : t -> R2p2.req_id -> Op.t option
val unordered : t -> (R2p2.req_id * Op.t) list
(** Bodies never ordered, oldest first: what a new leader re-ingests
    (§5). *)

val replays : t -> Protocol.meta -> bool
(** Whether the entry's completion record would replay, were it applied
    next. *)

val stored : t -> int
