(** Discrete-event simulation engine.

    The engine owns the simulated clock and a priority queue of pending
    events. Components schedule closures at absolute or relative times;
    [run] pops events in (time, insertion-order) order and executes them.
    Everything is single-threaded and deterministic.

    The queue stores the scheduled closures themselves: scheduling with
    {!at}/{!after} and dispatching an event allocate nothing beyond the
    caller's closure. Only {!timer_after} adds a small guard record, which
    is what {!cancel} flips. *)

type t

val create : unit -> t
(** A fresh engine with the clock at 0 and no pending events. *)

val now : t -> Timebase.t
(** Current simulated time. *)

val pending : t -> int
(** Number of events still queued. *)

val at : t -> Timebase.t -> (unit -> unit) -> unit
(** [at t time f] schedules [f] to run at absolute [time]. Scheduling in the
    past raises [Invalid_argument]. *)

val after : t -> Timebase.t -> (unit -> unit) -> unit
(** [after t delay f] schedules [f] to run [delay] from now. *)

type timer
(** A cancellable timer handle. *)

val timer_after : t -> Timebase.t -> (unit -> unit) -> timer
(** Like [after] but returns a handle; a cancelled timer's closure never
    runs. *)

val cancel : timer -> unit
(** Cancel a timer. Idempotent; cancelling an already-fired timer is a
    no-op. *)

val run : ?until:Timebase.t -> t -> unit
(** Execute events in order until the queue is empty, or until the next
    event would be strictly after [until] (the clock is then left at
    [until]). *)

val step : t -> bool
(** Execute exactly one event. Returns [false] when the queue is empty. *)

val stop : t -> unit
(** Request [run] to return after the current event completes. *)
