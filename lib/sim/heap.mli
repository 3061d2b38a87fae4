(** Growable binary min-heap keyed by [(int, int)] pairs.

    The primary key is the event timestamp; the secondary key is a strictly
    increasing sequence number so that events scheduled for the same instant
    pop in FIFO order, which keeps simulations deterministic. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Fresh empty heap. [capacity] is the initial backing-array size. *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val is_empty : 'a t -> bool

val push : 'a t -> key:int -> seq:int -> 'a -> unit
(** Insert an element. O(log n). *)

val pop : 'a t -> (int * int * 'a) option
(** Remove and return the minimum [(key, seq, value)]. O(log n). *)

val peek_key : 'a t -> int option
(** Key of the minimum element without removing it. O(1). *)

val min_key : 'a t -> int
(** Key of the minimum element, or [max_int] when the heap is empty
    (test {!is_empty} to tell an empty heap from a [max_int] key).
    O(1); allocates nothing. *)

val pop_min : 'a t -> 'a
(** Remove the minimum element and return its value; read {!min_key}
    first for its key. O(log n); allocates nothing. Raises
    [Invalid_argument] on an empty heap. *)

val clear : 'a t -> unit
(** Remove all elements (does not shrink the backing array). *)
