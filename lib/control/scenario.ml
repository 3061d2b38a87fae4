open Hovercraft_sim
open Hovercraft_core
module Op = Hovercraft_apps.Op
module Kvstore = Hovercraft_apps.Kvstore
module Ycsb = Hovercraft_apps.Ycsb
module Zipf = Hovercraft_apps.Zipf
module Metrics = Hovercraft_obs.Metrics
module Loadgen = Hovercraft_cluster.Loadgen
module Traffic = Hovercraft_cluster.Traffic
module Shard_map = Hovercraft_shard.Shard_map
module Shard_deploy = Hovercraft_shard.Shard_deploy
module Shard_loadgen = Hovercraft_shard.Shard_loadgen
module Chaos = Hovercraft_cluster.Chaos

(* ------------------------------------------------------------------ *)
(* Specs                                                               *)

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
  shards : int;
  active : int;
  n : int;
  link_gbps : float;
  rate_rps : float;
  profile : (Timebase.t * float) list; (* [] = constant rate *)
  workload : workload_spec;
  faults : Chaos.step list;
  duration : Timebase.t;
  warmup : Timebase.t;
  tick : Timebase.t;
  slo_p99 : Timebase.t;
  flow_cap : int;
}

(* Shared frame: a 4-group-capable deployment on a 1 GbE host budget
   (each group runs on a 1/shards NIC slice — the budget that puts the
   single-group knee at a simulation-tractable ~120 krps), a
   YCSB-B-flavoured zipf KV over a million-plus key space, 500 us p99
   objective, 125 ms windows. *)
let make ~name ?(shards = 4) ?(active = 1) ?(n = 3) ?(link_gbps = 1.)
    ?(rate_rps = 200_000.) ?(profile = []) ?(faults = [])
    ?(duration = Timebase.ms 2_500) ?(warmup = Timebase.ms 250)
    ?(tick = Timebase.ms 125) ?(slo_p99 = Timebase.us 500)
    ?(flow_cap = 1_000) workload =
  {
    name;
    shards;
    active;
    n;
    link_gbps;
    rate_rps;
    profile;
    workload;
    faults;
    duration;
    warmup;
    tick;
    slo_p99;
    flow_cap;
  }

let million = 1_000_000

(* Hotspot drift plus node loss: all slots start on one group while three
   sit dormant, the zipf head wanders across the key space, and a
   follower of the loaded group dies mid-run. The baseline is pinned over
   its single-group knee; holding the SLO requires splitting onto the
   dormant groups (and re-splitting as the hotspot moves on), and the
   dead follower must be replaced to restore the fault margin. *)
let hotspot_drift ?(rate_rps = 200_000.) ?(duration = Timebase.ms 2_500) () =
  make ~name:"hotspot-drift" ~rate_rps ~duration
    ~faults:
      [
        {
          Chaos.at = (duration * 3) / 5;
          event = Chaos.Shard (0, Chaos.Kill 2);
        };
      ]
    (Drifting_kv
       {
         read_fraction = 0.95;
         theta = 0.9;
         records = 2 * million;
         period = duration;
       })

(* A flash crowd: 3x the base rate for a fifth of the run. *)
let flash_crowd ?(rate_rps = 110_000.) ?(duration = Timebase.ms 2_500) () =
  let d = duration in
  make ~name:"flash-crowd" ~active:2 ~rate_rps
    ~profile:
      [
        (0, rate_rps);
        (2 * d / 5, rate_rps);
        ((2 * d / 5) + Timebase.ms 50, 3. *. rate_rps);
        (3 * d / 5, 3. *. rate_rps);
        ((3 * d / 5) + Timebase.ms 50, rate_rps);
      ]
    ~duration
    (Zipf_kv { read_fraction = 0.95; theta = 0.9; records = million })

(* A diurnal ramp: trough to peak and back, peak past the single-group
   knee so the controller must scale out on the way up. *)
let diurnal ?(trough_rps = 60_000.) ?(peak_rps = 240_000.)
    ?(duration = Timebase.s 3) () =
  make ~name:"diurnal" ~rate_rps:trough_rps
    ~profile:
      [ (0, trough_rps); (duration / 2, peak_rps); (duration, trough_rps) ]
    ~duration
    (Zipf_kv { read_fraction = 0.95; theta = 0.9; records = million })

(* A slow-but-alive node: the initial leader of group 0 keeps answering,
   but every packet to or from it gains extra wire latency. Client p99
   breaches while the group's load is ordinary — the signature the
   controller reads as "move leadership off that node". *)
let slow_node ?(rate_rps = 100_000.) ?(delay = Timebase.us 300)
    ?(duration = Timebase.ms 2_500) () =
  make ~name:"slow-node" ~shards:2 ~active:2 ~rate_rps ~duration
    ~faults:
      [
        {
          Chaos.at = (duration * 2) / 5;
          event = Chaos.Shard (0, Chaos.Slow { node = 0; delay });
        };
      ]
    (Zipf_kv { read_fraction = 0.95; theta = 0.9; records = million })

(* A correlated failure: the groups are co-located, so one host dying
   takes a replica out of EVERY group at the same instant. *)
let correlated_failure ?(rate_rps = 120_000.) ?(duration = Timebase.s 3) () =
  let at = duration / 2 in
  make ~name:"correlated-failure" ~shards:3 ~active:3 ~rate_rps ~duration
    ~faults:
      (List.init 3 (fun g ->
           { Chaos.at; event = Chaos.Shard (g, Chaos.Kill 1) }))
    (Zipf_kv { read_fraction = 0.95; theta = 0.9; records = million })

let by_name =
  [
    ("hotspot-drift", fun () -> hotspot_drift ());
    ("flash-crowd", fun () -> flash_crowd ());
    ("diurnal", fun () -> diurnal ());
    ("slow-node", fun () -> slow_node ());
    ("correlated-failure", fun () -> correlated_failure ());
  ]

let names = List.map fst by_name
let find name = Option.map (fun f -> f ()) (List.assoc_opt name by_name)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* The generator draws only from the load generator's RNG (the workload
   contract), so runs replay deterministically; the drift offset is a
   pure function of simulated time. Values are 128-byte YCSB rotations
   per sequence number (replicas must agree on replayed streams; YCSB's
   1 kB records would make the chaos-style full-history retention
   needlessly heavy here). *)
let make_workload spec engine ~t0 =
  let kv ~read_fraction ~theta ~records ~offset =
    let z = Zipf.create ~theta ~n:records () in
    let values = Ycsb.rotations 128 in
    let seq = ref 0 in
    fun rng ->
      let r = (Zipf.sample z rng + offset ()) mod records in
      if Rng.bool rng read_fraction then Op.Kv (Kvstore.Get (Ycsb.user_key r))
      else begin
        incr seq;
        Op.Kv (Kvstore.Put (Ycsb.user_key r, values.(!seq mod 26)))
      end
  in
  match spec.workload with
  | Zipf_kv { read_fraction; theta; records } ->
      kv ~read_fraction ~theta ~records ~offset:(fun () -> 0)
  | Drifting_kv { read_fraction; theta; records; period } ->
      let offset () =
        let t = (Engine.now engine - t0) mod period in
        int_of_float
          (float_of_int records *. float_of_int t /. float_of_int period)
      in
      kv ~read_fraction ~theta ~records ~offset

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)

type window_verdict = {
  w_end_s : float; (* window end, seconds from run start *)
  w_count : int;
  w_expected : float;
  w_p99_us : float;
  w_good : bool;
}

type outcome = {
  spec_name : string;
  controller_on : bool;
  report : Loadgen.report;
  windows : window_verdict list; (* oldest first *)
  n_windows : int;
  good_windows : int;
  slo_fraction : float;
  worst_p99_us : float;
  actions : (float * string) list; (* controller actions, s from start *)
  events : (float * string) list; (* injected faults, s from start *)
  notes : (float * string) list; (* migration-driver log, s from start *)
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

let slo_held ?(fraction = 0.9) o = o.slo_fraction >= fraction

let checkers_green o = o.violations = []

(* ------------------------------------------------------------------ *)
(* The runner                                                          *)

(* Chaos.widen without snapshots (bodies stay refetchable past any crash,
   no log prefix compacts away), except that the body-GC
   horizon also covers the epilogue's full settle budget: a node restarted
   or added at the END of the run recovers its bodies during settle, and
   a body aged out mid-recovery wedges the apply loop for good. *)
let widen (p : Hnode.params) ~duration =
  let p = Chaos.widen p ~duration ~snapshots:None in
  {
    p with
    Hnode.timing =
      {
        p.Hnode.timing with
        Hnode.gc_ordered = (2 * duration) + Chaos.drain + Timebase.s 12;
      };
    features =
      {
        p.Hnode.features with
        (* Periodic checkpoints so a node added by the controller's
           repair catches up from the compact image instead of replaying
           the whole run's history — replay fetches every entry's body
           from the leader one at a time, tens of MB of leader egress
           that starves foreground traffic on a thin NIC slice. The log
           itself still never compacts (Chaos.widen's log_retain): the
           checkers want the full history, the newcomer just doesn't. *)
        Hnode.snapshot_interval = 25_000;
      };
  }

let run ?controller spec ~seed () =
  let params =
    let p = Hnode.params ~mode:Hnode.Hover_pp ~n:spec.n () in
    let p =
      {
        p with
        Hnode.seed;
        cost = { p.Hnode.cost with Hnode.link_gbps = spec.link_gbps };
      }
    in
    widen p ~duration:spec.duration
  in
  let sd =
    Shard_deploy.create
      (Shard_deploy.config ~active:spec.active ~flow_cap:spec.flow_cap
         ~shards:spec.shards params)
  in
  let groups = Shard_deploy.groups sd in
  let engine = Shard_deploy.engine sd in
  let t0 = Engine.now engine in
  let secs at = Timebase.to_s_f (at - t0) in
  let completed_writes = ref [] in
  let profile =
    match spec.profile with [] -> None | pts -> Some (Traffic.profile pts)
  in
  let workload = make_workload spec engine ~t0 in
  let gen =
    Shard_loadgen.create sd ~clients:8 ~rate_rps:spec.rate_rps ?profile
      ~workload
      ~retry:(Timebase.ms 50, 8)
      ~on_reply:(fun ~rid ~op ~sent_at:_ ~latency:_ ->
        if not (Op.read_only op) then
          completed_writes := rid :: !completed_writes)
      ~seed ()
  in
  let timelines = Array.map (fun _ -> ref []) groups in
  Chaos.arm groups ~t0 ~timelines spec.faults;
  (* Measurement ticks: rotation at every window edge, judgement and the
     control decision on each completed window. *)
  let ctrl = Option.map (fun cfg -> Controller.create ~cfg sd gen) controller in
  let windows = ref [] in
  let stop_at = t0 + spec.duration in
  let measure_from = t0 + spec.warmup in
  let rotate_all () =
    Metrics.rotate (Loadgen.latency_window gen);
    for g = 0 to spec.shards - 1 do
      Metrics.rotate (Loadgen.group_latency_window gen g)
    done
  in
  let judge ~w_end =
    let w = Loadgen.latency_window gen in
    let count = Metrics.last_count w in
    let p99_us = Timebase.to_us_f (Metrics.last_percentile w 0.99) in
    let mid = w_end - (spec.tick / 2) in
    let rate =
      match profile with
      | Some p -> Traffic.rate_at p (mid - t0)
      | None -> spec.rate_rps
    in
    let expected = rate *. Timebase.to_s_f spec.tick in
    (* An outage window (commits stalled, completions a trickle) is a bad
       window even though the few replies that land may be fast. *)
    let good =
      count > 0
      && p99_us <= Timebase.to_us_f spec.slo_p99
      && float_of_int count >= 0.3 *. expected
    in
    windows :=
      { w_end_s = secs w_end; w_count = count; w_expected = expected; w_p99_us = p99_us; w_good = good }
      :: !windows
  in
  let rec tick_at k =
    let at = measure_from + (k * spec.tick) in
    if at <= stop_at then
      Engine.at engine at (fun () ->
          rotate_all ();
          if k > 0 then begin
            judge ~w_end:at;
            Option.iter Controller.tick ctrl
          end;
          tick_at (k + 1))
  in
  tick_at 0;
  let report =
    Shard_loadgen.run gen ~warmup:spec.warmup ~duration:spec.duration
      ~drain:Chaos.drain ()
  in
  (* Epilogue: clear faults and restart the (non-decommissioned) dead,
     then converge — letting in-flight migrations and membership changes
     finish — and run the history checker. The recovery notes are not
     part of the scenario's fault log. *)
  let verdict =
    Chaos.conclude
      ~busy:(fun () -> Shard_deploy.migrating sd)
      groups ~t0
      ~timelines:(Array.map (fun _ -> ref []) groups)
      ~completed_writes:!completed_writes
  in
  let windows = List.rev !windows in
  let n_windows = List.length windows in
  let good_windows =
    List.fold_left (fun acc w -> if w.w_good then acc + 1 else acc) 0 windows
  in
  let worst_p99_us =
    List.fold_left (fun acc w -> Float.max acc w.w_p99_us) 0. windows
  in
  let actions =
    match ctrl with
    | None -> []
    | Some c -> List.map (fun (at, s) -> (secs at, s)) (Controller.actions c)
  in
  let notes = List.map (fun (at, s) -> (secs at, s)) (Shard_deploy.notes sd) in
  {
    spec_name = spec.name;
    controller_on = ctrl <> None;
    report;
    windows;
    n_windows;
    good_windows;
    slo_fraction =
      (if n_windows = 0 then 0.
       else float_of_int good_windows /. float_of_int n_windows);
    worst_p99_us;
    actions;
    events = Chaos.tagged_events timelines;
    notes;
    violations = verdict.Chaos.violations;
    exactly_once_ok = verdict.Chaos.exactly_once_ok;
    committed_preserved = verdict.Chaos.committed_preserved;
    caught_up = verdict.Chaos.caught_up;
    consistent = verdict.Chaos.consistent;
    retried = Loadgen.retried gen;
    rerouted = Loadgen.rerouted gen;
    migrations = Shard_deploy.migrations sd;
    map_version = Shard_map.version (Shard_deploy.map sd);
    pending_recoveries = verdict.Chaos.pending_recoveries;
  }
