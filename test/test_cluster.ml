(* Tests for the deployment, load generator and experiment harness. *)

open Hovercraft_sim
open Hovercraft_core
open Hovercraft_cluster
module Addr = Hovercraft_net.Addr
module Service = Hovercraft_apps.Service

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_deploy_elects_node0 () =
  let deploy = Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Hover ~n:3 ())) in
  match Deploy.leader deploy with
  | Some l -> check_int "node0 bootstrapped as leader" 0 (Hnode.id l)
  | None -> Alcotest.fail "no leader after create"

let test_deploy_client_targets () =
  let target mode ?flow_cap () =
    Deploy.client_target
      (Deploy.create (Deploy.config ?flow_cap (Hnode.params ~mode ~n:3 ())))
  in
  check "unrep -> node" true
    (Addr.equal (target Hnode.Unreplicated ()) (Addr.Node 0));
  check "vanilla -> leader" true (Addr.equal (target Hnode.Vanilla ()) (Addr.Node 0));
  check "hover -> multicast" true
    (Addr.equal (target Hnode.Hover ()) (Addr.Group Addr.cluster_group));
  check "flow control -> middlebox" true
    (Addr.equal (target Hnode.Hover_pp ~flow_cap:100 ()) Addr.Middlebox)

(* Attaching the middlebox is the whole flow-control decision: nodes
   built from default params (flow_control off) still send the per-reply
   credit that frees each admitted slot, so a cap of 100 never wedges a
   load the cluster easily serves. *)
let test_flow_cap_credits () =
  let deploy =
    Deploy.create
      (Deploy.config ~flow_cap:100 (Hnode.params ~mode:Hnode.Hover ~n:3 ()))
  in
  let gen =
    Loadgen.create deploy ~clients:8 ~rate_rps:200_000.
      ~workload:(Service.sample (Service.spec ())) ~seed:3 ()
  in
  let report = Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 20) () in
  check_int "all served" report.Loadgen.sent report.Loadgen.completed;
  check_int "none NACKed" 0 report.Loadgen.nacked;
  check_int "none lost" 0 report.Loadgen.lost

let test_deploy_hoverpp_has_aggregator () =
  let d = Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Hover_pp ~n:3 ())) in
  check "aggregator present" true (d.Deploy.aggregator <> None);
  let d' = Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Hover ~n:3 ())) in
  check "no aggregator in plain hover" true (d'.Deploy.aggregator = None)

let test_deploy_kill_leader_reelects () =
  let deploy = Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Hover ~n:3 ())) in
  let killed = Deploy.kill_leader deploy in
  Alcotest.(check (option int)) "killed node0" (Some 0) killed;
  Deploy.quiesce deploy ~extra:(Timebase.ms 30) ();
  match Deploy.leader deploy with
  | Some l -> check "new leader is a follower" true (Hnode.id l <> 0)
  | None -> Alcotest.fail "no re-election"

let test_loadgen_open_loop_rate () =
  let deploy = Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Unreplicated ~n:1 ())) in
  let gen =
    Loadgen.create deploy ~clients:4 ~rate_rps:100_000.
      ~workload:(Service.sample (Service.spec ())) ~seed:1 ()
  in
  let report = Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 50) () in
  (* Poisson with 5000 expected arrivals: allow 4 sigma. *)
  check "arrival count near rate" true (report.Loadgen.sent > 4_700 && report.Loadgen.sent < 5_300);
  check "all served at low load" true (report.Loadgen.completed > report.Loadgen.sent - 50);
  check_int "no losses" 0 report.Loadgen.lost

let test_loadgen_measures_latency () =
  let deploy = Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Unreplicated ~n:1 ())) in
  let gen =
    Loadgen.create deploy ~clients:2 ~rate_rps:10_000.
      ~workload:(Service.sample (Service.spec ())) ~seed:2 ()
  in
  let report = Loadgen.run gen ~warmup:(Timebase.ms 5) ~duration:(Timebase.ms 30) () in
  (* Unloaded service time is ~1us + two fabric traversals. *)
  check "p50 in the microsecond range" true
    (report.Loadgen.p50_us > 2. && report.Loadgen.p50_us < 20.);
  check "p99 >= p50" true (report.Loadgen.p99_us >= report.Loadgen.p50_us);
  check "mean sane" true (report.Loadgen.mean_us > 1.)

let test_loadgen_deterministic () =
  let run () =
    let deploy = Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Hover ~n:3 ())) in
    let gen =
      Loadgen.create deploy ~clients:2 ~rate_rps:20_000.
        ~workload:(Service.sample (Service.spec ())) ~seed:3 ()
    in
    let r = Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 20) () in
    (r.Loadgen.sent, r.Loadgen.completed, r.Loadgen.p99_us)
  in
  check "same seed, identical run" true (run () = run ())

(* The Traffic guarantee loadgen.mli promises: a flat profile draws the
   same RNG stream as no profile at all, so the two runs are
   byte-identical — same request timeline, same report, same replica
   state. A schedule-path divergence (an extra draw, a reordered one)
   breaks this immediately. *)
let test_flat_profile_byte_identical () =
  let run profile =
    let deploy =
      Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Hover ~n:3 ()))
    in
    let gen =
      Loadgen.create deploy ~clients:2 ~rate_rps:20_000. ?profile
        ~workload:(Service.sample (Service.spec ())) ~seed:3 ()
    in
    let r = Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 20) () in
    Deploy.quiesce deploy ();
    let prints =
      Array.map
        (fun n -> (Hnode.applied_index n, Hnode.app_fingerprint n))
        deploy.Deploy.nodes
    in
    ( (r.Loadgen.sent, r.Loadgen.completed, r.Loadgen.lost),
      (r.Loadgen.p50_us, r.Loadgen.p99_us, r.Loadgen.mean_us),
      prints )
  in
  let bare = run None in
  let flat = run (Some (Traffic.constant 20_000.)) in
  check "flat profile is byte-identical to no profile" true (bare = flat);
  (* A genuinely time-varying profile must NOT be identical (otherwise
     the check above is vacuous). *)
  let ramp =
    run
      (Some
         (Traffic.profile
            [ (0, 5_000.); (Timebase.ms 10, 40_000.) ]))
  in
  let counts (c, _, _) = c in
  check "ramp actually diverges" true (counts ramp <> counts bare)

(* Piecewise-linear interpolation semantics: flat before the first
   point, linear between, flat after the last; peak and time-average
   agree with the curve. *)
let test_traffic_rate_at () =
  let near a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs b) in
  let p =
    Traffic.profile
      [ (Timebase.ms 10, 1_000.); (Timebase.ms 20, 3_000.) ]
  in
  check "flat before first point" true (near (Traffic.rate_at p 0) 1_000.);
  check "at first point" true (near (Traffic.rate_at p (Timebase.ms 10)) 1_000.);
  check "midpoint interpolates" true
    (near (Traffic.rate_at p (Timebase.ms 15)) 2_000.);
  check "at last point" true (near (Traffic.rate_at p (Timebase.ms 20)) 3_000.);
  check "flat after last" true (near (Traffic.rate_at p (Timebase.s 1)) 3_000.);
  check "peak is max control point" true (near (Traffic.peak p) 3_000.);
  (* Mean over [0,30ms]: 10ms at 1000, a 10ms ramp averaging 2000, 10ms
     at 3000 -> 2000. *)
  check "time-average over the curve" true
    (near (Traffic.mean_over p ~duration:(Timebase.ms 30)) 2_000.);
  check "invalid profiles rejected" true
    (List.for_all
       (fun pts ->
         try
           ignore (Traffic.profile pts);
           false
         with Invalid_argument _ -> true)
       [ []; [ (Timebase.ms 5, 100.); (Timebase.ms 2, 100.) ];
         [ (-1, 100.) ]; [ (0, 0.) ] ])

let test_experiment_point_low_load () =
  let s =
    Experiment.setup
      (Hnode.params ~mode:Hnode.Hover_pp ~n:3 ())
      (Service.sample (Service.spec ()))
  in
  let r = Experiment.run_point s ~rate_rps:50_000. in
  check "goodput tracks offered" true (r.Loadgen.goodput_rps > 45_000.);
  check "SLO met at low load" true (r.Loadgen.p99_us < 100.)

let test_experiment_slo_search_brackets () =
  (* The unreplicated knee for S=1us sits below 1M and above 500k; the
     search must land inside. *)
  let s =
    Experiment.setup
      (Hnode.params ~mode:Hnode.Unreplicated ~n:1 ())
      (Service.sample (Service.spec ()))
  in
  let k = Experiment.max_under_slo ~lo:100_000. s in
  check "knee in plausible band" true (k > 500_000. && k < 1_050_000.)

(* The knee search on its own, over a stub probe with no simulation: the
   p99 steps from 100 us to 1 ms at [knee_rps], everything else is a
   clean run. [calls] counts the probes the search spent. *)
let step_probe ~knee_rps =
  let calls = ref 0 in
  let probe rate =
    incr calls;
    let sent = int_of_float (rate *. 0.01) in
    {
      Loadgen.offered_rps = rate;
      sent;
      completed = sent;
      nacked = 0;
      lost = 0;
      goodput_rps = rate;
      mean_us = 50.;
      p50_us = 50.;
      p99_us = (if rate <= knee_rps then 100. else 1_000.);
      max_us = 2_000.;
    }
  in
  (probe, calls)

let test_knee_lo_fails () =
  let probe, calls = step_probe ~knee_rps:1_000. in
  Alcotest.(check (float 0.)) "lo misses the SLO" 0.
    (Experiment.knee ~lo:5_000. ~hi:100_000. probe);
  check_int "one probe" 1 !calls

let test_knee_beyond_hi () =
  let probe, _ = step_probe ~knee_rps:1e9 in
  Alcotest.(check (float 0.)) "capped at hi" 100_000.
    (Experiment.knee ~lo:5_000. ~hi:100_000. probe)

let test_knee_bisection_precision () =
  List.iter
    (fun knee_rps ->
      let probe, calls = step_probe ~knee_rps in
      let lo = 5_000. in
      let k = Experiment.knee ~lo ~hi:2_000_000. probe in
      check "never above the knee" true (k <= knee_rps);
      check "within 2% of the knee" true ((knee_rps -. k) /. k < 0.02);
      (* lo, one probe per x1.6 bracketing step up to the first failure,
         then at most 8 bisections. *)
      let bracketing =
        1 + int_of_float (ceil (log (knee_rps /. lo) /. log 1.6))
      in
      check "probe count bounded" true (!calls <= 1 + bracketing + 8))
    [ 12_345.; 250_000.; 946_000.; 1_500_000. ]

(* The [slo] verb's default cell (HovercRaft, N=3, synthetic 1 us, seed
   42) searched from its 2 kRPS floor: the knee must land near Fig 7's
   ~946 kRPS, not stop at the first Poisson-noisy low-rate probe. *)
let test_slo_verb_knee () =
  let p = Hnode.params ~mode:Hnode.Hover ~n:3 () in
  let s =
    Experiment.setup ~seed:42 { p with Hnode.seed = 42 }
      (Service.sample (Service.spec ()))
  in
  let k = Experiment.max_under_slo ~lo:2_000. s in
  check "knee in (850, 1050) kRPS" true (k > 850_000. && k < 1_050_000.)

let test_experiment_preload () =
  let gen = Hovercraft_apps.Ycsb.create ~seed:4 () in
  let preload = Hovercraft_apps.Ycsb.preload_ops gen 100 in
  let s =
    Experiment.setup ~preload
      (Hnode.params ~mode:Hnode.Hover_pp ~n:3 ())
      (fun _ -> Hovercraft_apps.Ycsb.next gen)
  in
  let r = Experiment.run_point s ~rate_rps:5_000. in
  check "ycsb point runs" true (r.Loadgen.completed > 0)

let test_failure_outcome_shape () =
  let spec = Service.spec ~service:(Dist.Fixed (Timebase.us 5)) ~read_fraction:0.5 () in
  let outcome =
    Failure.run
      ~params:
        (let p = Hnode.params ~mode:Hnode.Hover_pp ~n:3 () in
         {
           p with
           Hnode.features =
             {
               p.Hnode.features with
               Hnode.reply_lb = true;
               flow_control = true;
             };
         })
      ~rate_rps:50_000.
      ~duration:(Timebase.ms 400) ~kill_after:(Timebase.ms 150)
      ~workload:(Service.sample spec) ~seed:5 ()
  in
  Alcotest.(check (option int)) "leader killed" (Some 0) outcome.Failure.killed_node;
  check "new leader exists" true (outcome.Failure.new_leader <> None);
  check "consistent after failover" true outcome.Failure.consistent;
  check "series non-empty" true (List.length outcome.Failure.series >= 4);
  (* Throughput must exist both before and after the kill. *)
  let before, after =
    List.partition
      (fun (b : Failure.bucket) -> b.Failure.t_s < outcome.Failure.killed_at_s)
      outcome.Failure.series
  in
  check "traffic before kill" true
    (List.exists (fun (b : Failure.bucket) -> b.Failure.krps > 10.) before);
  check "traffic after kill" true
    (List.exists (fun (b : Failure.bucket) -> b.Failure.krps > 10.) after)

let test_merge_series_nack_only_bucket () =
  (* Regression: the outcome series used to iterate only the completion
     buckets, silently dropping NACKs recorded in a bucket with zero
     completions — i.e. exactly the blackout window. *)
  let bucket = Timebase.ms 100 in
  let completions = Series.create ~bucket () in
  let nacks = Series.create ~bucket () in
  Series.add completions ~at:(Timebase.ms 50) (Timebase.us 10);
  Series.mark nacks ~at:(Timebase.ms 150);
  Series.mark nacks ~at:(Timebase.ms 160);
  let merged =
    Failure.merge_series ~bucket_width:bucket
      ~completions:(Series.buckets completions)
      ~nacks:(Series.buckets nacks)
  in
  check_int "union of bucket keys" 2 (List.length merged);
  let blackout =
    List.find (fun (b : Failure.bucket) -> b.Failure.krps = 0.) merged
  in
  check_int "NACKs survive in completion-free bucket" 2 blackout.Failure.nacks;
  check "no p99 in completion-free bucket" true (blackout.Failure.p99_us = None)

let test_client_target_leaderless_fallback () =
  (* Regression: mid-election, unicast modes fell back to Addr.Node 0 even
     when node 0 was the freshly killed leader. *)
  let deploy = Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Vanilla ~n:3 ())) in
  let killed = Deploy.kill_leader deploy in
  Alcotest.(check (option int)) "node0 led" (Some 0) killed;
  check "mid-election: no leader" true (Deploy.leader deploy = None);
  match Deploy.client_target deploy with
  | Addr.Node i -> check "target is a live node" true (i <> 0)
  | _ -> Alcotest.fail "expected a node target in vanilla mode"

let test_kill_leader_mid_election () =
  (* Regression: a second kill during the election used to return None,
     letting a failure experiment run with the fault silently skipped. *)
  let deploy = Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Vanilla ~n:5 ())) in
  let first = Deploy.kill_leader deploy in
  Alcotest.(check (option int)) "kills node0 first" (Some 0) first;
  check "mid-election: no leader" true (Deploy.leader deploy = None);
  match Deploy.kill_leader deploy with
  | Some i ->
      check "second kill hits a live node" true (i <> 0);
      check_int "two nodes down" 3 (List.length (Deploy.live_nodes deploy))
  | None -> Alcotest.fail "kill_leader returned None with live nodes"

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  check "has separator" true (String.length s > 0 && String.contains s '-');
  Alcotest.(check string) "krps formatting" "12.3" (Table.fmt_krps 12_345.);
  Alcotest.(check string) "big krps formatting" "946" (Table.fmt_krps 945_580.)

let suite =
  [
    Alcotest.test_case "deploy elects node0" `Quick test_deploy_elects_node0;
    Alcotest.test_case "deploy client targets" `Quick test_deploy_client_targets;
    Alcotest.test_case "flow cap credits without being told to" `Quick
      test_flow_cap_credits;
    Alcotest.test_case "deploy aggregator presence" `Quick
      test_deploy_hoverpp_has_aggregator;
    Alcotest.test_case "deploy kill leader reelects" `Quick
      test_deploy_kill_leader_reelects;
    Alcotest.test_case "loadgen open-loop rate" `Quick test_loadgen_open_loop_rate;
    Alcotest.test_case "loadgen latency measurement" `Quick
      test_loadgen_measures_latency;
    Alcotest.test_case "loadgen determinism" `Quick test_loadgen_deterministic;
    Alcotest.test_case "flat profile byte-identical" `Quick
      test_flat_profile_byte_identical;
    Alcotest.test_case "traffic rate_at semantics" `Quick test_traffic_rate_at;
    Alcotest.test_case "experiment low-load point" `Quick test_experiment_point_low_load;
    Alcotest.test_case "experiment SLO search" `Slow test_experiment_slo_search_brackets;
    Alcotest.test_case "knee search: lo fails" `Quick test_knee_lo_fails;
    Alcotest.test_case "knee search: knee beyond hi" `Quick test_knee_beyond_hi;
    Alcotest.test_case "knee search: bisection precision and probe budget"
      `Quick test_knee_bisection_precision;
    Alcotest.test_case "experiment SLO search from the slo verb's floor" `Slow
      test_slo_verb_knee;
    Alcotest.test_case "experiment preload" `Quick test_experiment_preload;
    Alcotest.test_case "failure outcome shape" `Slow test_failure_outcome_shape;
    Alcotest.test_case "series merge keeps NACK-only buckets" `Quick
      test_merge_series_nack_only_bucket;
    Alcotest.test_case "client target leaderless fallback" `Quick
      test_client_target_leaderless_fallback;
    Alcotest.test_case "kill leader mid-election" `Quick
      test_kill_leader_mid_election;
    Alcotest.test_case "table rendering" `Quick test_table_render;
  ]
