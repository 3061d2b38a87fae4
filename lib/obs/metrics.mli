(** A registry of named counters, gauges, and log-scale latency histograms.

    One registry per component (node, load generator, ...). Handles are
    resolved by name once, at wiring time; the hot-path operations
    ({!incr}, {!add}, {!set}, {!observe}) are a couple of integer writes —
    cheap enough for per-packet and per-entry accounting in the simulator's
    inner loops.

    Histograms are log-linear (HdrHistogram-style): values are bucketed by
    their highest set bit with [16] sub-buckets per octave, bounding the
    relative quantile error at ~6% while keeping observation O(1) and
    allocation-free. Exact minimum and maximum are tracked alongside, and
    reported percentiles are clamped to them. *)

type t
(** A metric registry. *)

type counter
type gauge
type histogram

type windowed
(** A sliding-window histogram: two fixed windows, current and previous.
    Samples land in the current window; {!rotate} retires it. Readers
    see recent tails only — the just-completed window ([last_*]) or the
    merge of both live windows ([window_*]) — instead of the whole run's
    cumulative distribution. *)

val create : unit -> t

(** {1 Handles}

    Each accessor returns the existing metric of that name or registers a
    fresh one. A name is one kind of metric only; re-registering a name as
    a different kind raises [Invalid_argument]. *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : t -> string -> histogram
val windowed : t -> string -> windowed

(** {1 Hot-path updates} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> int -> unit

val observe : histogram -> int -> unit
(** Record a (non-negative) sample; negative samples clamp to 0. *)

val wobserve : windowed -> int -> unit
(** Record a sample into the current window (same clamping as
    {!observe}). *)

(** {1 Reading} *)

val value : counter -> int
val gauge_value : gauge -> int
val counter_value : t -> string -> int
(** By name; 0 when the counter was never registered. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val hist_count : histogram -> int
val hist_max : histogram -> int
val hist_mean : histogram -> float

val hist_percentile : histogram -> float -> int
(** Nearest-rank percentile over the bucketed samples, clamped to the
    exact observed min/max. 0 on an empty histogram; raises
    [Invalid_argument] on a rank outside [0, 1]. *)

(** {1 Windowed views}

    The registry never rotates windows itself: the consumer that owns the
    measurement cadence (a control loop's tick, a scenario runner) calls
    {!rotate}, so all readers of one registry agree on window edges. *)

val rotate : windowed -> unit
(** End the current window: it becomes the previous window (replacing
    the old one, whose samples vanish — nothing older than two windows
    is ever visible) and a zeroed current window starts. Allocation-free. *)

val rotations : windowed -> int
(** Rotations performed since creation (or the last registry {!clear}). *)

val last_count : windowed -> int
val last_max : windowed -> int

val last_percentile : windowed -> float -> int
(** Percentile of the just-completed window alone ({!hist_percentile}
    semantics). 0 before any rotation or on an empty window. *)

val window_count : windowed -> int
val window_max : windowed -> int


val clear : t -> unit
(** Zero every metric, keeping registrations (new measurement window).
    Windowed histograms drop both windows and their rotation count. *)

val snapshot : t -> Json.t
(** The whole registry as
    [{"counters": {..}, "gauges": {..}, "histograms": {..}}], names
    sorted, histograms summarized as count/min/max/mean/p50/p90/p99/p999. *)
