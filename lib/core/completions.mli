(** RIFL-style completion records: the result of every applied client
    request, kept for the ordered-retention window so a retransmission is
    answered from the record instead of re-executing (exactly-once).

    Records are built deterministically during apply on every replica and
    ride in checkpoints and shard-migration Merges, always in insertion
    order. Expiry pops the oldest records while they are past the window
    and stops at the first live one, so a tick costs O(expired). *)

open Hovercraft_sim
open Hovercraft_r2p2
open Hovercraft_apps

type t

val create : unit -> t
val mem : t -> R2p2.req_id -> bool
val find : t -> R2p2.req_id -> Op.result option

val record : t -> R2p2.req_id -> Op.result -> at:Timebase.t -> unit
(** Append a record stamped [at] (the apply time, or an older time
    carried by a Merge). A no-op when the id already has one. *)

val expire : t -> now:Timebase.t -> retain:Timebase.t -> unit
(** Drop records from the oldest while [now - at > retain]; stops at the
    first record still inside the window. *)

val records : t -> (R2p2.req_id * Op.result * Timebase.t) list
(** Every live record, in insertion order — the form checkpoints and
    migrations ship them in. *)

val install : t -> (R2p2.req_id * Op.result * Timebase.t) list -> unit
(** Replace every record with [records], in order (a checkpoint
    install). *)
