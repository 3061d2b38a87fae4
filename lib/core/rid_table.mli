(** Request-id tables whose entries expire in time order.

    Flat storage keyed by {!R2p2.req_id}. An entry is an [int] {e handle}
    into per-chunk arrays: the values, and an int block holding three
    words per entry side by side — its stamp, its tag (insertion order,
    where its id is filed, and its list) and its list links. Each
    entry sits on one of up to four doubly linked {e lists}. A list is
    kept in the order its entries were appended, and an entry is appended
    with the current time as its stamp, so on a monotone clock every list
    is sorted by stamp and expiring it means popping heads until the
    first one still alive — O(expired), however much state is retained.

    Entries are found by client window. Every client (address, port)
    issues its ids in increasing order (§3.2), so its live ids form a
    run. The first {!clients} clients to add each get a slot in a small
    direct table (the last one found is checked first) and a window: a
    power-of-two [int] array indexed by [id land mask], one word per slot
    packing the id above [handle + 1]. A lookup is one array read and one
    compare, and a miss never touches an entry. When a new id lands on a
    slot held by a live id, the window doubles until the two part, as
    long as it stays within {!window_cap} slots.

    No entry stores its id. A window slot already holds it, so {!rid}
    rebuilds it from there and the client's address and port; only the
    overflow keeps ids. That is an open-addressed index of one [int] per
    slot (linear probing, load at most 3/4, backward-shift deletion)
    packing a 21-bit fingerprint of the id above [handle + 1], beside an
    array of the ids themselves, both allocated by the first spill. It
    takes negative or huge ids, an id colliding with a live one
    {!window_cap} or more away, clients past the first {!clients}, and
    handles too wide to pack. A lookup that misses its window probes the overflow only when
    it holds something. Growing a window or the overflow never touches
    an entry.

    Entry storage grows by adding fixed-size chunks, never by copying;
    freed handles are reused, and {!trim} gives chunks back once the
    table has shrunk. Lookup, insert, remove and moving an entry to a
    list's tail are O(1) expected. Once the table has reached its working
    size they allocate nothing, and relinking an entry is plain int
    writes. *)

open Hovercraft_sim
open Hovercraft_r2p2

type 'a t

(** An entry is an [int] handle, negative for the absent entry (see
    {!is_nil}). A handle stays valid until its entry is removed or the
    table is {!reset}. The accessors below raise [Invalid_argument] on
    the absent entry and are unspecified on a removed one. *)

val is_nil : int -> bool
val rid : 'a t -> int -> R2p2.req_id
(** The entry's id, structurally equal to the one it was added with. A
    window entry's is built afresh on each call. *)

val value : 'a t -> int -> 'a

val stamp : 'a t -> int -> Timebase.t
(** When the entry was last appended to a list. *)

val list : 'a t -> int -> int
(** The list the entry is on. *)

val order : 'a t -> int -> int
(** Insertion order: increases with every {!add} to the table. *)

val clients : int
(** How many clients the direct table holds: later ones spill. *)

val window_cap : int
(** The most slots a client's window grows to. *)

val create : capacity:int -> lists:int -> unit -> 'a t
(** An empty table with [lists] (1 to 4) expiry lists, numbered from 0.
    [capacity] (rounded up to a power of two) is the overflow index size
    the first spill allocates; it doubles whenever it would pass 3/4
    full. A client's window is allocated at its first add; nothing is
    allocated for the direct table of clients or the overflow until it
    is needed, nor for the entries until the first add. *)

val length : 'a t -> int

val spilled : 'a t -> int
(** How many of the entries are in the overflow rather than a window. *)

val count : 'a t -> int -> int
(** Number of entries on one list. O(1). *)

val find : 'a t -> R2p2.req_id -> int
(** The entry for an id, or a negative handle. Allocates nothing. *)

val mem : 'a t -> R2p2.req_id -> bool

val add : 'a t -> R2p2.req_id -> 'a -> stamp:Timebase.t -> list:int -> int
(** Insert a new entry at the tail of [list]. The id must be absent.
    Raises [Invalid_argument] rather than wrap when the table would hold
    more than 2^31 entries at once, or past its 2^38-th add. *)

val move : 'a t -> int -> list:int -> stamp:Timebase.t -> unit
(** Restamp an entry and move it to the tail of [list] (its own list
    included). *)

val remove : 'a t -> R2p2.req_id -> unit
(** Drop an entry, if present. *)

val remove_node : 'a t -> int -> unit
(** Drop an entry already in hand, without looking its id up again. A
    negative handle is ignored. *)

val iter_list : 'a t -> int -> (int -> unit) -> unit
(** Visit a list from its head. The callback may remove its entry or
    move it to another list. *)

val expire :
  'a t -> int -> now:Timebase.t -> limit:Timebase.t -> (int -> unit) -> unit
(** [expire t l ~now ~limit f] hands [f] each head of list [l] with
    [now - stamp > limit], stopping at the first one that is not. [f]
    must take its entry off [l] (remove it, or move it to another
    list). *)

val trim : 'a t -> unit
(** Give back entry storage the table no longer needs: when more than a
    chunk's worth of slots and more than a quarter of the live count sit
    free, move the entries into the lowest slots and drop the emptied
    chunks. Invalidates every handle. Meant to follow an expiry pass:
    one that frees a collection interval's worth of a much longer
    retention window stays under the quarter, so only a table that has
    really shrunk (a drain, or the tail of a burst) is packed. *)

val reset : 'a t -> unit
(** Drop every entry and release the windows, the overflow and the entry
    storage, as at {!create}. *)
