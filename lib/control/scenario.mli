(** A seeded, checkable scenario library: production-shaped traffic at
    millions-of-users scale, run against a sharded deployment with the
    controller on or off, judged by an SLO verdict per measurement
    window plus the full history-checker battery.

    Every scenario is a deterministic timeline: a traffic shape
    (piecewise-linear {!Hovercraft_cluster.Traffic} profile), a keyed
    workload over a million-plus key space, and a fault schedule — all
    driven from one seed, so a replay with the same seed reproduces the
    run event-for-event (including every controller decision).

    The runner owns the measurement cadence: it rotates the load
    generator's latency windows at every [tick] boundary, judges each
    completed window against the p99 objective (a window with almost no
    completions counts as bad — an outage is not "fast"), optionally
    gives the {!Controller} its tick, and after the run clears all
    faults, converges the deployment chaos-style, and runs the
    per-group prefix/exactly-once checkers, the cross-map
    nothing-lost/exactly-once check and the replica fingerprint
    comparison. *)

open Hovercraft_sim
module Loadgen = Hovercraft_cluster.Loadgen

(** The keyed workload. [Drifting_kv] slides the zipf head across the
    key space with period [period] — the hotspot every static placement
    eventually loses. *)
type workload_spec =
  | Zipf_kv of { read_fraction : float; theta : float; records : int }
  | Drifting_kv of {
      read_fraction : float;
      theta : float;
      records : int;
      period : Timebase.t;
    }

type spec = {
  name : string;
  shards : int;  (** Total groups (dormant split targets included). *)
  active : int;  (** Groups initially owning slots. *)
  n : int;  (** Replicas per group. *)
  link_gbps : float;  (** Per-host NIC budget, pre-split across shards. *)
  rate_rps : float;
  profile : (Timebase.t * float) list;  (** [[]] = constant [rate_rps]. *)
  workload : workload_spec;
  faults : Hovercraft_cluster.Chaos.step list;
      (** The fault schedule, times relative to run start, armed with
          {!Hovercraft_cluster.Chaos.arm}: group [g]'s events are written
          [Shard (g, e)]. Each applied event lands in [events] of the
          {!outcome} as ["shardG: <what happened>"]. *)
  duration : Timebase.t;
  warmup : Timebase.t;
  tick : Timebase.t;  (** Window length = control period. *)
  slo_p99 : Timebase.t;
  flow_cap : int;
}

val make :
  name:string ->
  ?shards:int ->
  ?active:int ->
  ?n:int ->
  ?link_gbps:float ->
  ?rate_rps:float ->
  ?profile:(Timebase.t * float) list ->
  ?faults:Hovercraft_cluster.Chaos.step list ->
  ?duration:Timebase.t ->
  ?warmup:Timebase.t ->
  ?tick:Timebase.t ->
  ?slo_p99:Timebase.t ->
  ?flow_cap:int ->
  workload_spec ->
  spec
(** Defaults: 4 shards, 1 active, n=3, 1 GbE hosts (the budget putting
    the single-group knee near 120 krps), 200 krps, no profile, no
    faults, 2.5 s run, 250 ms warmup, 125 ms windows, 500 us SLO, flow
    cap 1000. *)

val hotspot_drift : ?rate_rps:float -> ?duration:Timebase.t -> unit -> spec
(** The flagship: all load on one of four groups, a drifting zipf
    hotspot over 2 M users, and a follower of the loaded group killed at
    60% of the run. Calibrated so the no-controller baseline is pinned
    past its single-group knee (SLO violated) while splitting onto the
    dormant groups holds it. *)

val flash_crowd : ?rate_rps:float -> ?duration:Timebase.t -> unit -> spec
(** 3x rate spike for a fifth of the run, two active groups of four. *)

val diurnal :
  ?trough_rps:float -> ?peak_rps:float -> ?duration:Timebase.t -> unit -> spec
(** Trough-peak-trough ramp; the peak exceeds the single-group knee. *)

val slow_node :
  ?rate_rps:float -> ?delay:Timebase.t -> ?duration:Timebase.t -> unit -> spec
(** Group 0's initial leader turns slow-but-alive (+300 us per hop by
    default) at 40% of the run. The cure is leadership transfer, not
    migration. *)

val correlated_failure :
  ?rate_rps:float -> ?duration:Timebase.t -> unit -> spec
(** One host dies: node 1 of EVERY group, simultaneously (the groups are
    co-located). The controller must repair all groups concurrently. *)

val names : string list
val find : string -> spec option
(** CLI surface: scenario registry by name. *)

(** One judged measurement window. *)
type window_verdict = {
  w_end_s : float;  (** Window end, seconds from run start. *)
  w_count : int;  (** Completions measured in the window. *)
  w_expected : float;  (** Offered load (rate x window) at window midpoint. *)
  w_p99_us : float;
  w_good : bool;
      (** Within SLO {e and} completions at least 30% of offered — a
          stalled window is bad even if its few replies were fast. *)
}

type outcome = {
  spec_name : string;
  controller_on : bool;
  report : Loadgen.report;
  windows : window_verdict list;  (** Oldest first. *)
  n_windows : int;
  good_windows : int;
  slo_fraction : float;  (** [good_windows / n_windows]. *)
  worst_p99_us : float;
  actions : (float * string) list;
      (** Controller actions, (seconds from start, description). *)
  events : (float * string) list;
      (** Injected faults as applied, same clock, tagged ["shardG: "]
          ({!Hovercraft_cluster.Chaos.tagged_events}). *)
  notes : (float * string) list;
      (** {!Hovercraft_shard.Shard_deploy.notes}: the migration driver's
          own log, same clock. *)
  violations : string list;
  exactly_once_ok : bool;
  committed_preserved : bool;
  caught_up : bool;
  consistent : bool;
  retried : int;
  rerouted : int;
  migrations : int;
  map_version : int;
  pending_recoveries : int;
}

val slo_held : ?fraction:float -> outcome -> bool
(** At least [fraction] (default 0.9) of judged windows were good. *)

val checkers_green : outcome -> bool
(** No history violations, exactly-once and nothing-lost hold, all
    replicas caught up with agreeing fingerprints, no stuck recovery. *)

val run : ?controller:Controller.config -> spec -> seed:int -> unit -> outcome
(** Execute the scenario. [controller = None] is the baseline (no
    control loop); [Some cfg] attaches a {!Controller} ticked once per
    window. Deterministic: same spec, seed and controller config give
    the same outcome. *)
