(** Zipfian integer generator over [0, n), YCSB-style.

    Uses the rejection-inversion-free method of Gray et al. ("Quickly
    generating billion-record synthetic databases", SIGMOD'94), the same
    algorithm the YCSB reference implementation uses, so key popularity
    matches the benchmark's intent. *)

type t

val create : ?theta:float -> n:int -> unit -> t
(** [theta] is the skew (default 0.99, YCSB's default) and must lie in
    [\[0, 1)]: the method raises the inverse CDF to [1 / (1 - theta)],
    which is infinite at 1. [n] must be positive.
    @raise Invalid_argument otherwise. *)

val sample : t -> Hovercraft_sim.Rng.t -> int
(** Draw a value in [0, n); 0 is the most popular. *)

val n : t -> int
