(** The apply layer: one replica's state machine and its exactly-once
    completion records, advanced by the ordered log and nothing else.

    Every client write either executes or replays the result its earlier
    copy recorded (RIFL-style exactly-once), and then holds a record of
    its own. Reads are idempotent: they keep no record and run at every
    ordering, on the replica that answers them only. Records live for
    [window] of {e log} time. The log clock is
    the running maximum of the [ordered_at] stamps of the entries applied
    so far: the time each command was stamped with (the Raft leader's
    clock, or on Rabia the request packet's send time, which the decided
    batch carries identically on every replica). It is monotone and a
    function of the applied prefix alone, so two replicas that apply the
    same log make the same decisions, however far apart in time they
    apply it and whenever each one drops expired records.

    A record stamped [s] is live at log clock [c] while [c - s <= window].
    A lookup ignores a record that is not, and a new record replaces it.
    Physical removal ({!expire}) is lazy and local: it drops what is past
    the window at the current clock, which every later entry's clock can
    only exceed.

    Applying is idempotent by log index: the state keeps the last index
    it applied, so an entry dispatched again (a restart resumes from the
    consensus layer's applied index, which can trail the state's) changes
    nothing. *)

open Hovercraft_sim
open Hovercraft_r2p2
module Op = Hovercraft_apps.Op

type image = {
  s_app : Op.image;  (** Deep-copied application state. *)
  s_completions : Op.completion list;
      (** The live completion records, in insertion order: a replica that
          installs the image answers a retransmission of a covered
          request from its record instead of re-executing it. *)
  s_preloaded : int;
      (** How many of the image's executed operations were preloaded
          outside consensus. The history checker subtracts it from the raw
          execution counter, so a replica that installs the image must
          inherit it. *)
  s_clock : Timebase.t;  (** The log clock at the checkpoint. *)
  s_index : int;  (** The last log index the image applied. *)
}
(** A checkpoint of the applied state: what a snapshot carries besides
    the consensus metadata. *)

val image_bytes : image -> int
(** Estimated serialized size: the application image, one
    {!Op.completion_wire_bytes} per record and the counters. *)

type t

val create : window:Timebase.t -> unit -> t
(** An empty state whose records live for [window] of log time. *)

val apply :
  t ->
  index:int ->
  runs_reads:bool ->
  internal:bool ->
  rid:R2p2.req_id ->
  read_only:bool ->
  ordered_at:Timebase.t ->
  Op.t ->
  (Op.result * Timebase.t) option
(** Apply the log entry at [index]. A client entry advances the log clock
    to [ordered_at] if that is later. A write then replays [rid]'s live
    record if there is one, else executes; a [Merge] seeds the records it
    carries first, and the entry's own record is stamped with the log
    clock. A read neither looks up nor leaves a record: it executes if
    this replica runs reads ([runs_reads]) and is skipped otherwise. An
    [internal] entry (a term-opening no-op or a config entry) carries no
    client and no stamp and changes nothing but the index.

    An [index] at or below the last one applied changes nothing: a write
    there answers from its live record, anything else is skipped.

    Returns the result and the CPU time its execution costs (0 for a
    replay), or [None] when there is nothing to answer: an internal
    entry, a skipped read, or a re-dispatched entry without a record. *)

val find : t -> R2p2.req_id -> ordered_at:Timebase.t -> Op.result option
(** The record an entry for [rid] stamped [ordered_at] would replay if it
    were applied next. [~ordered_at:0] asks at the current log clock, as
    for a retransmission that carries no stamp. *)

val preload : t -> Op.t list -> unit
(** Apply operations outside the log (dataset population) and count
    them. *)

val expire : t -> unit
(** Drop the records past the window at the current log clock, oldest
    first, stopping at the first live one. *)

val records : t -> Op.completion list
(** The live records in insertion order: what checkpoints and shard
    migrations ship. *)

val image : t -> image
(** Cut a checkpoint of the current state. *)

val install : t -> image -> unit
(** Replace the whole state with a checkpoint's. *)

val state : t -> Op.state
(** The application state, for execution outside the log (unreplicated
    requests and lease reads) and for inspection. *)

val clock : t -> Timebase.t
(** The log clock: the latest [ordered_at] applied so far (0 before the
    first client entry). *)

val index : t -> int
(** The last log index applied (0 before the first), inherited through
    {!install}. *)

val preloaded : t -> int
(** How many operations {!preload} applied, inherited through
    {!install}. *)
