(* The benchmark's four workloads. Each names a fault-free cell (its SLO
   knee and light-load tail are searched on it) and a reference run (its
   latency, goodput and simulator speed are read off it). All load is
   open loop with Poisson arrivals from 8 simulated clients; the
   simulated clock sends every request exactly when it is due, so the
   generator is never late. *)

open Hovercraft_sim
open Hovercraft_core
module Op = Hovercraft_apps.Op
module Service = Hovercraft_apps.Service
module Ycsb = Hovercraft_apps.Ycsb
module Scenario = Hovercraft_control.Scenario

type reference =
  | Steady of { rate : float; warmup : Timebase.t; duration : Timebase.t }
  | Failover of {
      rate : float;
      warmup : Timebase.t;
      duration : Timebase.t;
      kill_at : Timebase.t;  (** The leader dies this long after the start. *)
      retry : Timebase.t * int;
    }
  | Scenario of Scenario.spec

type t = {
  name : string;
  default_seed : int;
  cell : int -> Cell.t;  (** From the run seed. *)
  knee_lo : float;  (** RPS; must meet the SLO. *)
  knee_hi : float;  (** RPS; must miss it. *)
  light : float;  (** RPS. *)
  reference : reference;
  baseline : (int -> Cell.t) option;
      (** An unreplicated cell driven like the reference, for the
          replication-overhead layer metrics. *)
}

(* Paper §7.1 baseline: S = 1 us fixed, 24 B requests, 8 B replies, no
   store. The app does almost nothing, so simulator time goes to the
   engine, the fabric, Raft and the node's serial paths. *)
let synth_hover =
  let spec = Service.spec () in
  let cell mode n seed =
    {
      Cell.params = { (Hnode.params ~mode ~n ()) with seed };
      stack = Cell.Single;
      flow_cap = None;
      inputs = (fun () -> (Service.sample spec, []));
      seed;
    }
  in
  {
    name = "synth-hover";
    default_seed = 42;
    cell = cell Hnode.Hover 3;
    knee_lo = 250e3;
    knee_hi = 2_000e3;
    light = 100e3;
    reference =
      Steady { rate = 800e3; warmup = Timebase.ms 40; duration = Timebase.ms 540 };
    baseline = Some (cell Hnode.Unreplicated 1);
  }

(* YCSB-A (50% updates, zipf over 10 k preloaded 1 kB records) on 40 GbE
   with 4 apply threads and the 4-stage net path: updates execute on
   every replica, so the store, the parallel-apply dispatcher and the
   pipelined net stages carry the load. *)
let ycsb_a_parallel =
  let cell seed =
    let p = Hnode.params ~mode:Hnode.Hover ~n:3 () in
    {
      Cell.params =
        {
          p with
          seed;
          cost = { p.cost with link_gbps = 40. };
          features = { p.features with apply_threads = 4; net_stages = 4 };
        };
      stack = Cell.Single;
      flow_cap = None;
      inputs =
        (fun () ->
          let g = Ycsb.Kv.workload_a ~seed in
          ( (fun _rng -> Ycsb.Kv.next g),
            Ycsb.Kv.preload_ops (Ycsb.Kv.workload_a ~seed) ));
      seed;
    }
  in
  {
    name = "ycsb-a-parallel";
    default_seed = 11;
    cell;
    knee_lo = 500e3;
    knee_hi = 5_000e3;
    light = 250e3;
    reference =
      Steady { rate = 2_200e3; warmup = Timebase.ms 10; duration = Timebase.ms 130 };
    baseline = None;
  }

(* Fig 12's cell: HovercRaft++ with JBSQ(32) and the flow-control
   middlebox (cap 1000), bimodal service (mean 10 us, 10% of requests
   10x longer), 75% read-only. The leader is killed mid-run at a rate
   the two survivors sustain; clients retransmit after 10 ms, so every
   request is eventually answered. The only workload with an election
   and body recovery. *)
let bimodal_failover =
  let spec =
    Service.spec
      ~service:
        (Dist.Bimodal { mean = Timebase.us 10; long_fraction = 0.1; ratio = 10. })
      ~read_fraction:0.75 ()
  in
  let cell seed =
    let p = Hnode.params ~mode:Hnode.Hover_pp ~n:3 () in
    {
      Cell.params =
        {
          p with
          seed;
          features = { p.features with bound = 32; flow_control = true };
        };
      stack = Cell.Single;
      flow_cap = Some 1000;
      inputs = (fun () -> (Service.sample spec, []));
      seed;
    }
  in
  {
    name = "bimodal-failover";
    default_seed = 42;
    cell;
    knee_lo = 40e3;
    knee_hi = 400e3;
    light = 20e3;
    reference =
      Failover
        {
          rate = 100e3;
          warmup = Timebase.ms 100;
          duration = Timebase.ms 3_000;
          kill_at = Timebase.ms 1_000;
          retry = (Timebase.ms 10, 8);
        };
    baseline = None;
  }

(* The correlated-failure scenario: three active co-located groups on
   1 GbE hosts, zipf over 1 M keys with 95% reads, and one host dying so
   every group loses a replica at once; the SLO controller repairs all
   three. Its cell is one group of that deployment with the whole key
   space, so the knee is the per-group capacity the scenario is sized
   against. *)
let control_repair =
  let scenario = Scenario.correlated_failure ~duration:(Timebase.ms 1_500) () in
  let cell seed =
    let p = Hnode.params ~mode:Hnode.Hover_pp ~n:scenario.Scenario.n () in
    {
      Cell.params =
        {
          p with
          seed;
          cost = { p.cost with link_gbps = scenario.Scenario.link_gbps };
          features = { p.features with flow_control = true };
        };
      stack = Cell.Grouped { shards = scenario.Scenario.shards; active = 1 };
      flow_cap = Some scenario.Scenario.flow_cap;
      inputs =
        (fun () ->
          let g =
            Ycsb.Kv.create ~read_fraction:0.95 ~records:1_000_000 ~theta:0.9
              ~seed ()
          in
          ((fun _rng -> Ycsb.Kv.next g), []));
      seed;
    }
  in
  {
    name = "control-repair";
    default_seed = 11;
    cell;
    knee_lo = 20e3;
    knee_hi = 400e3;
    light = 40e3;
    reference = Scenario scenario;
    baseline = None;
  }

let all = [ synth_hover; ycsb_a_parallel; bimodal_failover; control_repair ]
let find name = List.find_opt (fun w -> w.name = name) all
