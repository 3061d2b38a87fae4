(* The repository benchmark: one workload per process.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--spans FILE]
     main.exe --list

   Untraced (the default), a run measures the simulated system and the
   simulator on one workload: nine timed set-ups of the workload's cell,
   the SLO knee and the light-load tail on that cell, then the reference
   run, repeated until [--seconds] of wall time have passed since the run
   began (latency and goodput come from the first repetition; every later
   one must simulate exactly the same thing). Traced, it runs the
   reference once plain and once instrumented, checks that both simulated
   the same thing, and reports per-layer metrics.

   Every metric is printed as "workload metric value unit"; the last
   line of standard output is one JSON object with the keys correct,
   attempted, failed and metrics. The exit code is 1 when a correctness
   check fails, 2 on a usage error. *)

open Hovercraft_sim
open Hovercraft_core
module Op = Hovercraft_apps.Op
module Deploy = Hovercraft_cluster.Deploy
module Loadgen = Hovercraft_cluster.Loadgen
module Scenario = Hovercraft_control.Scenario
module Controller = Hovercraft_control.Controller
module Json = Hovercraft_obs.Json
module W = Workloads

(* --- one reference run ---------------------------------------------- *)

type ref_out = {
  report : Loadgen.report;
  cpu_s : float;  (** Processor time of the load phase. *)
  fingerprint : int;
  failures : string list;
  outage_ms : float;  (** Kill to the first post-kill write answered. *)
  observed : (string * float) list;  (** Observers and GC counts, per layer. *)
  probe : Layers.probe option;
}

let speed r = float_of_int r.report.Loadgen.sent /. r.cpu_s

let gc_per_req (g0 : Gc.stat) (g1 : Gc.stat) ~sent =
  let req = float_of_int (max 1 sent) in
  [
    ("gc.minor_words_per_req", (g1.minor_words -. g0.minor_words) /. req);
    ("gc.promoted_words_per_req", (g1.promoted_words -. g0.promoted_words) /. req);
    ("gc.major_collections", float_of_int (g1.major_collections - g0.major_collections));
  ]

(* A fixed-rate run on a fresh single-group deployment, optionally with
   the leader killed part-way; quiesced and checked afterwards. With
   [closures] the benchmark's own closures are timed and the engine is
   probed every simulated millisecond. *)
let single_run (cell : Cell.t) ~rate ~warmup ~duration ?kill ?retry ?closures () =
  let d, workload =
    match Spans.with_span "setup" (fun () -> Cell.stand_up cell) with
    | Cell.One d, w -> (d, w)
    | Cell.Many _, _ -> invalid_arg "reference runs use a single-group cell"
  in
  let engine = d.Deploy.engine in
  let kill_at = ref max_int and killed = ref None and outage = ref None in
  let on_reply ~rid:_ ~op ~sent_at ~latency =
    if !outage = None && sent_at >= !kill_at && not (Op.read_only op) then
      outage := Some (sent_at + latency - !kill_at)
  in
  let workload, on_reply =
    match closures with
    | None -> (workload, on_reply)
    | Some c -> (Layers.wrap_workload c workload, Layers.wrap_on_reply c on_reply)
  in
  let gen =
    Loadgen.create d ~clients:Cell.clients ~rate_rps:rate ~workload ?retry
      ~on_reply ~seed:(cell.seed + 7) ()
  in
  Option.iter
    (fun at ->
      Engine.after engine at (fun () ->
          kill_at := Engine.now engine;
          killed := Deploy.kill_leader d))
    kill;
  let t0 = Engine.now engine in
  let before = Layers.busy_of d in
  let probe =
    Option.map (fun _ -> Layers.attach_probe engine ~until:(t0 + duration)) closures
  in
  let gc0 = Gc.quick_stat () in
  let report, cpu_s =
    Spans.with_span "load" (fun () ->
        Cell.timed (fun () -> Loadgen.run gen ~warmup ~duration ()))
  in
  let gc1 = Gc.quick_stat () in
  Cell.count_load ~sent:report.Loadgen.sent ~cpu_s;
  let elapsed = Engine.now engine - t0 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  Spans.with_span "quiesce-check" (fun () ->
      Deploy.quiesce d ~extra:(Timebase.ms 100) ();
      if report.Loadgen.completed = 0 then fail "no request completed";
      if not (Deploy.consistent d) then fail "replica fingerprints disagree after quiesce";
      let pending = Deploy.total_pending_recoveries d in
      if pending > 0 then fail "%d body recoveries pending after quiesce" pending;
      if kill <> None then begin
        (match (!killed, Deploy.leader d) with
        | Some k, Some l when Hnode.id l <> k -> ()
        | _ -> fail "no new leader after the kill");
        if !outage = None then fail "no write sent after the kill was answered"
      end);
  let leader = Deploy.leader d in
  {
    report;
    cpu_s;
    fingerprint = (match leader with Some l -> Hnode.app_fingerprint l | None -> 0);
    failures = List.rev !failures;
    outage_ms = (match !outage with Some o -> Timebase.to_us_f o /. 1e3 | None -> 0.);
    observed =
      Layers.observe d ~before ~elapsed
        ~leader:(match leader with Some l -> Hnode.id l | None -> 0)
        ~sent:report.Loadgen.sent ~completed:report.Loadgen.completed
        ~loadgen_metrics:(Loadgen.metrics gen) ~retried:(Loadgen.retried gen)
      @ gc_per_req gc0 gc1 ~sent:report.Loadgen.sent;
    probe;
  }

(* The scenario runs closed: its deployment and engine never leave
   [Scenario.run], so only its outcome can be observed. *)
let scenario_run spec ~seed =
  let controller = Controller.config ~slo_p99:spec.Scenario.slo_p99 () in
  let gc0 = Gc.quick_stat () in
  let o, cpu_s =
    Spans.with_span "scenario" (fun () ->
        Cell.timed (fun () -> Scenario.run ~controller spec ~seed ()))
  in
  let gc1 = Gc.quick_stat () in
  let report = o.Scenario.report in
  Cell.count_load ~sent:report.Loadgen.sent ~cpu_s;
  let kreq = float_of_int (max 1 report.Loadgen.sent) /. 1e3 in
  {
    report;
    cpu_s;
    fingerprint = o.Scenario.map_version;
    failures =
      (if Scenario.checkers_green o then []
       else "a scenario safety checker tripped" :: o.Scenario.violations);
    outage_ms = 0.;
    observed =
      [
        ("cluster.retries_per_kreq", float_of_int o.Scenario.retried /. kreq);
        ("shard.migrations", float_of_int o.Scenario.migrations);
        ("shard.rerouted_per_kreq", float_of_int o.Scenario.rerouted /. kreq);
        ("control.actions", float_of_int (List.length o.Scenario.actions));
        ("control.slo_window_frac", o.Scenario.slo_fraction);
      ]
      @ gc_per_req gc0 gc1 ~sent:report.Loadgen.sent;
    probe = None;
  }

let reference (w : W.t) ~seed ?closures () =
  Spans.with_span "reference" (fun () ->
      match w.reference with
      | W.Steady { rate; warmup; duration } ->
          single_run (w.cell seed) ~rate ~warmup ~duration ?closures ()
      | W.Failover { rate; warmup; duration; kill_at; retry } ->
          single_run (w.cell seed) ~rate ~warmup ~duration ~kill:kill_at ~retry
            ?closures ()
      | W.Scenario spec -> scenario_run spec ~seed)

(* --- metrics ---------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

let end_to_end (w : W.t) ~seed ~seconds =
  let start = Unix.gettimeofday () in
  let cell = w.cell seed in
  let failures = ref [] in
  (* Set-ups are timed in three batches spread over the run, so that a
     few seconds of a busy machine cannot move their median. *)
  let setups () = Spans.with_span "setup" (fun () -> Cell.time_setups cell ~k:3) in
  let setups_start = setups () in
  let knee_krps =
    match Spans.with_span "knee" (fun () -> Cell.knee cell ~lo:w.knee_lo ~hi:w.knee_hi) with
    | Ok krps -> krps
    | Error e ->
        failures := ("knee search: " ^ e) :: !failures;
        0.
  in
  (* Memory where the simulation is busiest while still healthy. *)
  let live_words =
    if knee_krps = 0. then 0
    else Spans.with_span "live-heap" (fun () -> Cell.live_words_at cell ~rate_rps:(knee_krps *. 1e3))
  in
  let setups_mid = setups () in
  let light = Spans.with_span "light" (fun () -> Cell.probe cell ~rate_rps:w.light) in
  let first = reference w ~seed () in
  let rec repeat acc =
    if Unix.gettimeofday () -. start >= seconds then List.rev acc
    else repeat (reference w ~seed () :: acc)
  in
  let runs = first :: repeat [] in
  let setup_s = Cell.median (setups_start @ setups_mid @ setups ()) in
  List.iter
    (fun r ->
      failures := List.rev_append r.failures !failures;
      if r.report <> first.report || r.fingerprint <> first.fingerprint then
        failures := "a repeated reference run simulated differently" :: !failures)
    runs;
  let r = first.report in
  ( [
      m "knee_krps" knee_krps "kRPS";
      m "p99_light_us" light.Loadgen.p99_us "us";
      m "p50_us" r.Loadgen.p50_us "us";
      m "p99_us" r.Loadgen.p99_us "us";
      m "goodput_krps" (r.Loadgen.goodput_rps /. 1e3) "kRPS";
      m "sim_req_per_cpu_s" (Cell.median !Cell.speeds) "req/s";
      m "live_heap_mb" (float_of_int (live_words * (Sys.word_size / 8)) /. 1e6) "MB";
      m "setup_s" setup_s "s";
    ],
    first,
    List.rev !failures )

let per_layer (w : W.t) ~seed =
  let cell = w.cell seed in
  (* Plain, traced, plain again: the traced run's speed is compared with
     the mean of the two around it, so warm-up does not pass for
     overhead. A scenario cannot be instrumented; it runs once. *)
  let plain = reference w ~seed () in
  let closures = Layers.closures () in
  let traced, plain2 =
    match w.reference with
    | W.Scenario _ -> (plain, plain)
    | W.Steady _ | W.Failover _ ->
        let traced = reference w ~seed ~closures () in
        (traced, reference w ~seed ())
  in
  let failures = ref (List.sort_uniq compare (plain.failures @ traced.failures @ plain2.failures)) in
  if traced.report <> plain.report || traced.fingerprint <> plain.fingerprint then
    failures := "tracing changed the simulation" :: !failures;
  let get k = Option.value (List.assoc_opt k plain.observed) ~default:0. in
  let pending_mean, pending_max, gap_p99 =
    match traced.probe with
    | Some p ->
        (Layers.pending_mean p, float_of_int p.Layers.pending_max, Layers.percentile p.Layers.gaps_ns 0.99)
    | None -> (0., 0., 0.)
  in
  let replay name f = Spans.with_span ("replay " ^ name) f in
  let depth = max 1 (int_of_float (Float.round pending_mean)) in
  let engine_ns, engine_words = replay "engine" (fun () -> Layers.engine_event ~depth) in
  let heap_ns, _ = replay "heap" (fun () -> Layers.heap_op ~depth) in
  let n = cell.params.Hnode.n in
  (* Scenario runs expose no fabric: replay at the cell's port count. *)
  let ports =
    match get "net.ports" with
    | 0. -> n + Cell.clients + 2
    | p -> int_of_float p
  in
  let bytes =
    match get "net.pkts_per_req" with
    | 0. -> 64
    | pkts -> max 1 (int_of_float (get "net.wire_bytes_per_req" /. pkts))
  in
  let unicast_ns, _ =
    replay "fabric unicast" (fun () -> Layers.fabric_send ~ports ~n ~bytes ~multicast:false)
  in
  let multicast_ns, _ =
    replay "fabric multicast" (fun () -> Layers.fabric_send ~ports ~n ~bytes ~multicast:true)
  in
  let cpu_ns, _ = replay "cpu" Layers.cpu_exec in
  let batch = max 1 (min 64 (int_of_float (Float.round (get "raft.entries_per_ae")))) in
  let raft_ns, _ = replay "raft" (fun () -> Layers.raft_entry ~batch) in
  let unordered_ns, _ = replay "unordered" Layers.unordered_req in
  let jbsq_ns, _ =
    replay "jbsq" (fun () ->
        Layers.jbsq_pick ~n ~bound:cell.params.Hnode.features.Hnode.bound)
  in
  (* The scenario's generator is internal to it: time the cell's own
     generator instead, one op per request. *)
  let workload_ns, ops =
    if closures.Layers.gen_calls > 0 then
      ( closures.Layers.gen_s *. 1e9 /. float_of_int closures.Layers.gen_calls,
        closures.Layers.ops )
    else
      let gen, _ = cell.inputs () in
      let ops = Queue.create () in
      let rng = Rng.create seed in
      let (), s =
        Cell.timed (fun () ->
            for _ = 1 to Layers.recorded_max do
              Queue.push (gen rng) ops
            done)
      in
      (s *. 1e9 /. float_of_int Layers.recorded_max, ops)
  in
  let kv_ns, _ =
    replay "apps" (fun () -> Layers.apps_apply ~preload:(snd (cell.inputs ())) ~ops)
  in
  let observe_ns, _ = replay "obs" Layers.obs_observe in
  let replication =
    match (w.baseline, w.reference) with
    | Some mk, W.Steady { rate; warmup; duration } ->
        let b =
          Spans.with_span "baseline" (fun () -> single_run (mk seed) ~rate ~warmup ~duration ())
        in
        failures := !failures @ b.failures;
        (1. -. (speed plain /. speed b), plain.report.Loadgen.p50_us -. b.report.Loadgen.p50_us)
    | _ -> (0., 0.)
  in
  let cpu_ns_per_req = plain.cpu_s *. 1e9 /. float_of_int (max 1 plain.report.Loadgen.sent) in
  let share x = x /. cpu_ns_per_req in
  let share_net = share (unicast_ns *. get "net.pkts_per_req") in
  let share_raft = share (raft_ns *. get "raft.committed_per_req") in
  let share_apps =
    share (workload_ns +. (kv_ns *. get "apps.executed_per_req"))
  in
  let share_obs = share (observe_ns *. get "obs.updates_per_req") in
  let observed name unit_ = m name (get name) unit_ in
  ( [
      m "sim.engine_ns_per_event" engine_ns "ns";
      m "sim.engine_words_per_event" engine_words "words";
      m "sim.heap_ns_per_op" heap_ns "ns";
      m "sim.ref_req_per_cpu_s" (speed plain) "req/s";
      m "sim.pending_mean" pending_mean "count";
      m "sim.pending_max" pending_max "count";
      m "net.fabric_ns_per_unicast" unicast_ns "ns";
      m "net.fabric_ns_per_multicast" multicast_ns "ns";
      m "net.cpu_ns_per_exec" cpu_ns "ns";
      observed "net.pkts_per_req" "count";
      observed "net.wire_bytes_per_req" "bytes";
      observed "net.leader_rx_per_req" "count";
      observed "net.leader_tx_per_req" "count";
      observed "raft.entries_per_ae" "count";
      observed "raft.committed_per_req" "count";
      m "raft.ns_per_entry" raft_ns "ns";
      observed "raft.elections" "count";
      m "raft.outage_ms" plain.outage_ms "ms";
      observed "core.leader_net_util" "ratio";
      observed "core.leader_app_util" "ratio";
      observed "core.follower_net_util" "ratio";
      observed "core.follower_app_util" "ratio";
      observed "core.leader_reply_share" "ratio";
      observed "core.stage_util.ingress" "ratio";
      observed "core.stage_util.sequencer" "ratio";
      observed "core.stage_util.fanout" "ratio";
      observed "core.stage_util.replier" "ratio";
      observed "core.apply_util_max" "ratio";
      observed "core.apply_stalls_per_kreq" "1/kreq";
      observed "core.recoveries_per_kreq" "1/kreq";
      observed "core.recovery_escalations" "count";
      m "core.unordered_ns_per_req" unordered_ns "ns";
      m "r2p2.jbsq_ns_per_pick" jbsq_ns "ns";
      observed "apps.executed_per_req" "count";
      m "apps.workload_ns_per_op" workload_ns "ns";
      m "apps.kv_ns_per_op" kv_ns "ns";
      m "bench.on_reply_ns"
        (closures.Layers.reply_s *. 1e9 /. float_of_int (max 1 closures.Layers.reply_calls))
        "ns";
      observed "cluster.retries_per_kreq" "1/kreq";
      observed "shard.migrations" "count";
      observed "shard.rerouted_per_kreq" "1/kreq";
      observed "control.actions" "count";
      observed "control.slo_window_frac" "ratio";
      m "obs.observe_ns" observe_ns "ns";
      observed "obs.updates_per_req" "count";
      observed "gc.minor_words_per_req" "words";
      observed "gc.promoted_words_per_req" "words";
      observed "gc.major_collections" "count";
      m "gc.wall_ns_per_sim_ms_p99" gap_p99 "ns";
      m "replication.cpu_share" (fst replication) "ratio";
      m "replication.p50_overhead_us" (snd replication) "us";
      m "share.net" share_net "ratio";
      m "share.raft" share_raft "ratio";
      m "share.apps" share_apps "ratio";
      m "share.obs" share_obs "ratio";
      m "share.unattributed" (1. -. share_net -. share_raft -. share_apps -. share_obs) "ratio";
      m "trace.cpu_ns_per_req" cpu_ns_per_req "ns";
      m "trace.overhead_frac"
        (1. -. (2. *. speed traced /. (speed plain +. speed plain2)))
        "ratio";
    ],
    traced,
    !failures )

(* --- command line ------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
     [--spans FILE] | --list";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref 10.
  and trace = ref false and spans_file = ref None and list = ref false in
  let rec parse = function
    | [] -> ()
    | "--list" :: rest ->
        list := true;
        parse rest
    | "--workload" :: v :: rest ->
        workload := Some v;
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := Some n | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0. -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | "--spans" :: v :: rest ->
        spans_file := Some v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list then begin
    List.iter (fun (w : W.t) -> print_endline w.name) W.all;
    exit 0
  end;
  let w =
    match Option.bind !workload W.find with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown or missing --workload; known: %s\n"
          (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
        exit 2
  in
  let seed = Option.value !seed ~default:w.default_seed in
  Spans.enabled := !trace;
  let metrics, reference, failures =
    Spans.with_span w.name (fun () ->
        if !trace then per_layer w ~seed else end_to_end w ~seed ~seconds:!seconds)
  in
  Option.iter Spans.write !spans_file;
  Printf.printf
    "%s seed %d: open loop, Poisson arrivals from %d simulated clients; the \
     simulated clock sends every request when it is due, so the generator is \
     never late\n"
    w.name seed Cell.clients;
  List.iter (fun x -> Printf.printf "%s %s %.6g %s\n" w.name x.name x.value x.unit_) metrics;
  List.iter (fun f -> Printf.printf "%s CORRECTNESS FAILURE: %s\n" w.name f) failures;
  let r = reference.report in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failures = []));
            ("attempted", Json.Int r.Loadgen.sent);
            ("failed", Json.Int (r.Loadgen.nacked + r.Loadgen.lost));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun x ->
                     ( x.name,
                       Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ] ))
                   metrics) );
          ]));
  exit (if failures = [] then 0 else 1)
