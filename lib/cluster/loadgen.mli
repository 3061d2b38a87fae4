(** The Lancet-equivalent load generator (§7) — the only client in the
    tree, for single-group and sharded deployments alike.

    Open-loop Poisson arrivals over a pool of client endpoints; latency is
    measured on the client from request transmission to reply reception on
    the simulated clock (the analogue of Lancet's hardware timestamping).
    Samples inside the warmup window are discarded.

    The generator drives one or more group fabrics: every endpoint owns
    one request-id source (ids stay globally unique across groups) and a
    port on each group's fabric, and a routing function picks the group
    for each transmission. A [Wrong_shard] NACK (stale route, or a
    migration fence) keeps the request outstanding — latency then
    includes the reroute penalty — and retransmits the SAME request id to
    the freshly routed group after an exponential backoff, so completion
    records keep the landing exactly-once. A single {!Deploy} never
    installs a shard filter, so single-group runs never see one. *)

open Hovercraft_sim
module Addr = Hovercraft_net.Addr

type t

type report = {
  offered_rps : float;
  sent : int;
  completed : int;
      (** Replies to requests {e sent} inside the measurement window,
          wherever the reply lands (late replies arriving during drain
          count — excluding them would bias the tail downward). *)
  nacked : int;  (** Flow-control rejections of in-window requests. *)
  lost : int;  (** In-window requests never answered (measured at drain). *)
  goodput_rps : float;  (** Completed / measurement window. *)
  mean_us : float;
  p50_us : float;
  p99_us : float;
  max_us : float;
}

val create :
  Deploy.t ->
  clients:int ->
  rate_rps:float ->
  ?profile:Traffic.profile ->
  workload:(Rng.t -> Hovercraft_apps.Op.t) ->
  ?target:Addr.t ->
  ?unrestricted_reads:bool ->
  ?retry:Timebase.t * int ->
  ?on_reply:
    (rid:Hovercraft_r2p2.R2p2.req_id ->
    op:Hovercraft_apps.Op.t ->
    sent_at:Timebase.t ->
    latency:Timebase.t ->
    unit) ->
  ?on_nack:(at:Timebase.t -> unit) ->
  seed:int ->
  unit ->
  t
(** Attach [clients] endpoints to one deployment's fabric. [profile]
    makes the offered rate follow a {!Traffic.profile} (times relative to
    {!run}'s start) instead of the constant [rate_rps]; arrivals draw the
    same RNG stream either way, so a run without a profile is
    byte-identical to the pre-schedule generator, and
    [report.offered_rps] becomes the profile's time-average. [target]
    defaults to {!Deploy.client_target} evaluated per request (so vanilla
    clients follow a leader change). With [unrestricted_reads], read-only
    operations are tagged [Unrestricted] and sent to the request router
    (they bypass consensus entirely and may observe stale data, §6.1).
    [retry = (timeout, attempts)] enables
    RPC retransmission with the {e same} request id — the server side's
    completion records turn the combination into exactly-once semantics
    for writes; a retried read is ordered and answered again.
    The optional callbacks observe every measured completion/NACK;
    [on_reply] identifies the request (id and operation) so failure and
    chaos experiments can build a client-observed history for the
    exactly-once / committed-stays-committed checker. *)

val create_routed :
  Deploy.t array ->
  route:(Hovercraft_r2p2.R2p2.req_id -> Hovercraft_apps.Op.t -> int) ->
  tally:(Hovercraft_apps.Op.t -> unit) ->
  clients:int ->
  rate_rps:float ->
  profile:Traffic.profile option ->
  workload:(Rng.t -> Hovercraft_apps.Op.t) ->
  retry:(Timebase.t * int) option ->
  on_reply:
    (rid:Hovercraft_r2p2.R2p2.req_id ->
    op:Hovercraft_apps.Op.t ->
    sent_at:Timebase.t ->
    latency:Timebase.t ->
    unit)
    option ->
  on_nack:(at:Timebase.t -> unit) option ->
  seed:int ->
  t
(** The general constructor behind {!create}, for group fabrics sharing
    one engine (index = group). Every transmission — first send, timeout
    retry or reroute — first calls [tally] on the operation, then sends
    to the group [route] names, at that group's {!Deploy.client_target}.
    [route] must be pure: it also attributes each measured completion to
    a group's latency window at reply time. The remaining arguments are
    {!create}'s, passed explicitly. *)

val run :
  t -> warmup:Timebase.t -> duration:Timebase.t -> ?drain:Timebase.t -> unit -> report
(** Generate load for [duration] (measuring after [warmup]), then stop
    arrivals and let the system drain before counting losses. *)

val stats : t -> Stats.t

val latency_window : t -> Hovercraft_obs.Metrics.windowed
(** Sliding-window view of measured completion latency, all groups
    together. The consumer owning the tick cadence rotates it. *)

val group_latency_window : t -> int -> Hovercraft_obs.Metrics.windowed
(** Per-group sliding-window latency, attributed to the group [route]
    names at reply time — the SLI a per-group control loop watches.
    Raises [Invalid_argument] on an unknown group. *)

val retried : t -> int
(** Timeout retransmissions (0 without [retry]). *)

val rerouted : t -> int
(** [Wrong_shard]-triggered retransmissions — how often clients chased a
    moving or fenced slot. *)

val backoff_entries : t -> int
(** Live per-rid reroute-backoff entries. Bounded by the in-flight window
    during a run and zero after {!run} returns (leak regression guard:
    rids that exhaust their retries or die with the run must not leave
    entries behind). *)

val metrics : t -> Hovercraft_obs.Metrics.t
(** Client-side counters ([sent], [completed], [nacked], [retried],
    [lost]), the [latency_ns] histogram of measured completions, and the
    latency windows ([latency_ns_window], [g<i>_latency_ns_window]). *)

val snapshot : t -> Hovercraft_obs.Json.t
