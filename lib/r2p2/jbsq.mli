(** Join-Bounded-Shortest-Queue and bounded-RANDOM selection (§3.4, §3.6).

    A selector tracks one bounded queue-depth counter per server. A server
    is eligible while its depth is below the bound; [pick] chooses among
    eligible servers — the shortest queue under [Jbsq] (ties broken
    uniformly at random for fairness), uniformly at random under [Random].
    The caller increments a depth when it delegates work ([assign]) and
    decrements it when the server reports completion ([complete]).

    HovercRaft instantiates this with depth = announced_idx − applied_idx
    per node, so a crashed node's queue fills up and it stops receiving
    reply assignments — bounding lost replies to at most the bound. *)

open Hovercraft_sim

type policy = Jbsq | Random_choice

val pp_policy : Format.formatter -> policy -> unit

type t

val create : policy -> bound:int -> n:int -> rng:Rng.t -> t
(** [n] servers, all starting at depth 0. [bound] must be positive. *)

val n : t -> int
val bound : t -> int
val depth : t -> int -> int

val eligible : t -> int -> bool
(** Depth below bound. *)

val pick : t -> int option
(** Choose an eligible server per the policy; [None] when none is
    eligible (the caller must wait — the bounded-queue invariant is never
    broken, §3.4). Does not change any depth. *)

val assign : t -> int -> unit
(** Account one delegated unit of work. May push the depth to the bound but
    never beyond; raises [Invalid_argument] if the server was not
    eligible. *)

val complete : t -> int -> unit
(** Account one completed unit; depth must be positive. *)
