(** Service-time and inter-arrival distributions.

    All samples are durations in nanoseconds. The shapes mirror the paper's
    evaluation: fixed service times for the microbenchmarks (§7.1-§7.2), a
    bimodal distribution for the scheduling experiments (§7.3-§7.4), and
    exponential inter-arrivals for the open-loop Poisson clients. *)

type t =
  | Fixed of Timebase.t  (** Deterministic duration. *)
  | Exponential of Timebase.t  (** Exponential with the given mean. *)
  | Uniform of Timebase.t * Timebase.t  (** Uniform in [lo, hi]. *)
  | Bimodal of {
      mean : Timebase.t;  (** Overall mean of the mixture. *)
      long_fraction : float;  (** Probability of drawing the long mode. *)
      ratio : float;  (** long mode = ratio * short mode. *)
    }
      (** Two-point mixture, parameterized the way the paper states it:
          "10% of the requests are 10x longer than the rest" with a given
          overall mean. *)

val mean : t -> float
(** Mean of the distribution in nanoseconds. *)

val sample : t -> Rng.t -> Timebase.t
(** Draw one duration; always >= 0. *)

val support : t -> Timebase.t array
(** Every duration {!sample} can draw, when there are finitely many
    ([Fixed] and [Bimodal]); empty otherwise. *)

val bimodal_modes : mean:Timebase.t -> long_fraction:float -> ratio:float -> float * float
(** [(short, long)] mode durations (ns) solving
    [(1-p)*short + p*ratio*short = mean]. *)

val pp : Format.formatter -> t -> unit
