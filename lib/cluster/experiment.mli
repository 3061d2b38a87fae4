(** Experiment drivers: single load points, latency-throughput curves, and
    the max-throughput-under-SLO search used throughout §7. *)

open Hovercraft_sim
open Hovercraft_core

type workload = Rng.t -> Hovercraft_apps.Op.t

type setup = {
  params : Hnode.params;
  workload : workload;
  preload : Hovercraft_apps.Op.t list;  (** Applied to every replica first. *)
  clients : int;
  flow_cap : int option;
  seed : int;
}

val setup :
  ?clients:int ->
  ?flow_cap:int ->
  ?preload:Hovercraft_apps.Op.t list ->
  ?seed:int ->
  Hnode.params ->
  workload ->
  setup

(** Simulated measurement sizing. [Fast] keeps curves cheap to regenerate;
    [Full] runs longer windows for smoother tails. *)
type quality = Fast | Full

val window : quality:quality -> rate_rps:float -> Timebase.t * Timebase.t
(** [(warmup, duration)] of one measured probe at [rate_rps]: long
    enough for a stable p99, bounded so knee searches stay cheap. *)

val run_point :
  ?quality:quality -> setup -> rate_rps:float -> Loadgen.report
(** Build a fresh deployment, apply preload, drive [rate_rps] through it
    and report. Deterministic for a given setup/rate/quality. *)

val latency_curve :
  ?quality:quality -> setup -> rates:float list -> (float * Loadgen.report) list
(** One [run_point] per offered rate. *)

val knee :
  ?slo:Timebase.t ->
  ?lo:float ->
  ?hi:float ->
  (float -> Loadgen.report) ->
  float
(** The knee search, over any probe (offered RPS -> report): the maximum
    offered load whose p99 stays within [slo] (default 500 µs) and that
    the system actually sustains — judged on the in-window outcome: some
    completions, nothing lost, and at most 3% of in-window requests
    NACKed. Geometric bracketing followed by at most 8 bisections, to
    ~2%; search range [lo, hi] in RPS (default 5 k to 2 M). Returns 0 if
    [lo] already fails and [hi] if [hi] itself passes. *)

val max_under_slo :
  ?quality:quality ->
  ?slo:Timebase.t ->
  ?lo:float ->
  ?hi:float ->
  setup ->
  float
(** {!knee} over {!run_point}s of [setup]. *)

type applyscale_point = {
  threads : int;  (** K — application threads per node. *)
  knee_rps : float;  (** Max sustainable YCSB-A load under the SLO. *)
  consistent : bool;  (** Replica fingerprints agree after quiesce. *)
  stalls : int;  (** Scheduler barrier waits recorded across all nodes. *)
  confirm : Loadgen.report;  (** The fingerprint-check run, near the knee. *)
}

val applyscale :
  ?quality:quality ->
  ?net_stages:int ->
  ?threads:int list ->
  ?seed:int ->
  unit ->
  applyscale_point list
(** The parallel-apply scaling experiment: YCSB-A (write-heavy — the
    apply-loop-bound workload) against a 3-node HovercRaft group at each
    K in [threads] (default 1, 2, 4, 8), same seed throughout. For each K
    it finds the SLO knee, then re-runs just under it on a retained
    deployment to verify that every replica ends byte-identical
    ([consistent]) — the determinism proof for the dependency-aware
    scheduler — and to census the scheduler's barrier stalls.
    [net_stages] (default 1) selects the net path: rerunning at 4 shows
    how far compartmentalizing the net thread (which binds at K = 2 on
    the monolithic path) unlocks K > 2. *)

type backendscale_point = {
  backend : Hnode.backend;
  knee_rps : float;  (** Max sustainable YCSB-A load under the SLO. *)
  kill_p99_us : float;
      (** p99 of the whole faulted window (kill included, retries
          counted from first send). *)
  recovery_ms : float;
      (** Outage length: from the kill to the end of the last bucket
          whose completion rate sat below 90% of offered. *)
  consistent : bool;  (** Surviving replicas agree after quiesce. *)
  confirm : Loadgen.report;  (** The faulted fixed-rate run. *)
}

val backendscale_setup : seed:int -> backend:Hnode.backend -> setup
(** The shootout cell: 3-node HovercRaft (mode [Hover] for both
    backends — only the ordering layer differs) on 40 GbE driving
    YCSB-A. Exposed for the CI sanity check. *)

val backendscale :
  ?quality:quality -> ?seed:int -> unit -> backendscale_point list
(** The ordering-backend shootout, one point per backend (raft, then
    rabia): find each backend's SLO knee, then re-drive it at 60% of its
    own knee and kill the leader (raft) / a replica (rabia, which has
    none) mid-run. Reports the knee, the p99 across the faulted window,
    and how long completions sat below 90% of offered — the leaderless
    backend's claim is that this recovery gap collapses, at some cost in
    fault-free knee. *)

type netscale_point = {
  stages : int;  (** Net-path stage CPUs per node. *)
  knee_rps : float;  (** Max sustainable YCSB-B load under the SLO. *)
  consistent : bool;  (** Replica fingerprints agree after quiesce. *)
  stage_busy : (string * int) list;
      (** The leader's per-role busy census from the confirmation run
          ({!Hnode.stage_busy_times}); empty if no leader was live. *)
  confirm : Loadgen.report;  (** The fingerprint-check run, near the knee. *)
}

val netscale_setup : seed:int -> stages:int -> setup
(** The netscale cell: 3-node HovercRaft++ on 40 GbE driving YCSB-B,
    [net_stages = stages]. Exposed for the CI sanity check and tests
    (single {!run_point}s without the full knee search). *)

val netscale :
  ?quality:quality ->
  ?stage_counts:int list ->
  ?seed:int ->
  unit ->
  netscale_point list
(** The net-path compartmentalization experiment (ROADMAP item 1):
    YCSB-B (read-heavy — the packet-CPU-bound workload, the shardscale
    S=1 baseline cell) against a 3-node HovercRaft++ group on 40 GbE, at
    each stage count (default 1, 2, 4). For each it finds the SLO knee,
    then re-runs just under it on a retained deployment to verify
    replica agreement — the cross-stage determinism check — and to
    census where each pipeline stage spent its cycles. *)
