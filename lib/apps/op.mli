(** The replicated operation type: what the SMR layer orders and applies.

    The paper's point is that fault-tolerance is provided at the RPC layer
    for {e any} deterministic service; this module is the closed union of
    the services the evaluation runs — the configurable synthetic service
    of §7.1–§7.4 and the Redis-like store of §7.5. *)

open Hovercraft_sim

type t =
  | Nop  (** Internal no-op (leader's term-opening entry). *)
  | Synth of {
      cost : Timebase.t;  (** CPU time to execute. *)
      read_only : bool;
      req_bytes : int;  (** Client request payload size. *)
      rep_bytes : int;  (** Reply payload size. *)
    }
  | Kv of Kvstore.cmd
  | Merge of { chunk : Kvstore.image; completions : completion list }
      (** Shard migration: union a pre-staged sub-range image into the
          store, carrying the source group's completion records so
          exactly-once survives the ownership handoff. Ordered through
          the target group's log like any write, so every current and
          future replica applies it at the same position. *)
  | Prune of { slots : int; drop : int list }
      (** Shard migration epilogue on the source group: drop every key
          hashing (mod [slots]) into one of the [drop] slots. *)

and result = Done | Kv_reply of Kvstore.reply

and completion = {
  c_rid : Hovercraft_r2p2.R2p2.req_id;
  c_result : result;
  c_at : Timebase.t;
}
(** One exactly-once completion record, as checkpoints and [Merge]s
    carry it: the request, its result and the log-clock time it was
    recorded at. *)

val completion_wire_bytes : int
(** What one record costs on the wire, in checkpoints and [Merge]s
    alike. *)

type state
(** One replica's application state. *)

val create_state : unit -> state

val apply : state -> t -> result * Timebase.t
(** Execute the operation against the state, returning the result and the
    CPU time the execution costs. Deterministic. *)

val read_only : t -> bool

val key : t -> string option
(** The key the operation routes on, for shard partitioning. [None] for
    keyless operations (Nop, Synth, the migration ops themselves) — a
    shard filter must accept those everywhere. *)

type footprint =
  | Fp_none  (** Touches no shared state: commutes with everything. *)
  | Fp_key of string
      (** Touches exactly one key (or one thread-prefixed range): commutes
          with any operation on a different key. *)
  | Fp_global
      (** Touches cross-key state (synthetic-service writes, migration
          bulk ops): conflicts with every other operation. *)

val footprint : t -> footprint
(** The conflict relation for dependency-aware parallel apply: two
    operations may execute on different app threads iff their footprints
    are disjoint. Deterministic, derived purely from the operation. *)

val request_bytes : t -> int
val reply_bytes : t -> result -> int

val executed : state -> int
(** Number of operations applied to this replica so far. *)

val fingerprint : state -> int
(** Digest covering both the op count and the store contents; replicas that
    applied the same sequence agree. *)

(** {1 Snapshots}

    The whole-machine serialize/restore hooks (see
    {!Service.Snapshottable}): the image captures the kv store plus the
    synthetic service's digest state, so a replica installing it is
    indistinguishable — fingerprint included — from one that applied
    every covered operation. *)

type image

val snapshot : state -> image
(** Cut a detached deep copy of the replica state. *)

val install : state -> image -> unit
(** Overwrite the replica state with the image (in place: the [state]
    value keeps its identity, as embedders hold it by reference). *)

val image_bytes : image -> int
(** Estimated serialized size in bytes, for transfer chunking. *)

val extract_kv : state -> keep:(string -> bool) -> Kvstore.image
(** Cut a deep-copied image of just the store keys [keep] accepts (the
    migration export); the synthetic service's digest state stays put —
    only the partitioned store moves between shards. *)

val pp : Format.formatter -> t -> unit
