(** Reproduction of every table and figure in the paper's evaluation (§7).

    Each function builds the exact deployments and workloads the paper
    describes, runs them on the simulator, and prints the corresponding
    rows/series. Absolute numbers come from the calibrated simulator (see
    DESIGN.md §2/§5); the shapes — who wins, by what factor, where the
    knees fall — are the reproduction targets.

    All functions take a [quality] knob: [Fast] (default) regenerates every
    figure in a few minutes; [Full] uses longer measurement windows. *)

type quality = Experiment.quality

val table1 : ?quality:quality -> unit -> unit
(** Leader Rx/Tx messages per request for Raft / HovercRaft / HovercRaft++
    (N = 5), measured at low load (no batching) next to the paper's
    analytical counts. *)

val fig7 : ?quality:quality -> unit -> unit
(** Tail latency vs throughput, 4 setups, S = 1 µs, 24 B / 8 B, N = 3. *)

val fig8 : ?quality:quality -> unit -> unit
(** Max kRPS under 500 µs SLO vs request size (24/64/512 B), 4 setups. *)

val fig9 : ?quality:quality -> unit -> unit
(** Max kRPS under SLO vs cluster size (3/5/7/9), replicated setups. *)

val fig10 : ?quality:quality -> unit -> unit
(** Latency vs throughput with 6 kB replies and reply load balancing:
    UnRep vs HovercRaft++ with N = 3 and N = 5. *)

val fig11 : ?quality:quality -> unit -> unit
(** Bimodal S̄ = 10 µs, 75% read-only, N = 3: UnRep vs HovercRaft++ with
    JBSQ and RANDOM replier selection (bound 32). *)

val fig12 : ?quality:quality -> unit -> unit
(** Leader-failure timeline at fixed load with flow control: throughput,
    p99 and NACKs per time bucket. *)

val fig13 : ?quality:quality -> unit -> unit
(** YCSB-E on the Redis-like store: UnRep vs HovercRaft++ with
    N = 3/5/7. *)
