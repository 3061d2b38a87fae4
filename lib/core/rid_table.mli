(** Request-id tables whose entries expire in time order.

    An intrusive chained hash table keyed by {!R2p2.req_id}: each entry is
    one node that is both the bucket-chain link and a link in one of up to
    four doubly linked {e lists}. A list is kept in the order its nodes
    were appended, and a node is appended with the current time as its
    stamp, so on a monotone clock every list is sorted by stamp and
    expiring it means popping heads until the first one still alive —
    O(expired), however much state is retained.

    Lookup, insert, remove and moving a node to a list's tail are O(1)
    expected and allocate nothing beyond the inserted node. *)

open Hovercraft_sim
open Hovercraft_r2p2

type 'a t

type 'a node
(** An entry, or the absent entry [Nil] (see {!is_nil}). The accessors
    below raise [Invalid_argument] on [Nil]. *)

val is_nil : 'a node -> bool
val rid : 'a node -> R2p2.req_id
val value : 'a node -> 'a

val stamp : 'a node -> Timebase.t
(** When the node was last appended to a list. *)

val list : 'a node -> int
(** The list the node is on. *)

val order : 'a node -> int
(** Insertion order: increases with every {!add} to the table. *)

val create : capacity:int -> lists:int -> unit -> 'a t
(** An empty table with [lists] (1 to 4) expiry lists, numbered from 0.
    [capacity] (rounded up to a power of two) is the initial bucket
    count; the table doubles it once it holds more entries than
    buckets. *)

val length : 'a t -> int

val count : 'a t -> int -> int
(** Number of nodes on one list. O(1). *)

val find : 'a t -> R2p2.req_id -> 'a node
(** The entry for an id, or [Nil]. Allocates nothing. *)

val mem : 'a t -> R2p2.req_id -> bool

val add : 'a t -> R2p2.req_id -> 'a -> stamp:Timebase.t -> list:int -> 'a node
(** Insert a new entry at the tail of [list]. The id must be absent. *)

val move : 'a t -> 'a node -> list:int -> stamp:Timebase.t -> unit
(** Restamp a node and move it to the tail of [list] (its own list
    included). *)

val remove : 'a t -> R2p2.req_id -> unit
(** Drop an entry, if present. *)

val remove_node : 'a t -> 'a node -> unit
(** Drop an entry already in hand, without looking its id up again. *)

val iter_list : 'a t -> int -> ('a node -> unit) -> unit
(** Visit a list from its head. The callback may remove its node or move
    it to another list. *)

val expire :
  'a t -> int -> now:Timebase.t -> limit:Timebase.t -> ('a node -> unit) -> unit
(** [expire t l ~now ~limit f] hands [f] each head of list [l] with
    [now - stamp > limit], stopping at the first one that is not. [f]
    must take its node off [l] (remove it, or move it to another list). *)

val reset : 'a t -> unit
(** Drop every entry and shrink back to the initial capacity. *)
