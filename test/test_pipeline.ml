(* Tests for the compartmentalized net path (features.net_stages): knob
   validation, determinism of replica state across stage counts (alone
   and crossed with apply_threads), chaos replay and snapshot installs
   under the pipelined net, the per-stage census, cross-version golden
   per-node timing — and two hot-path regressions: local executions
   pinned to app CPU 0, and the per-packet rx-counter name allocation. *)

open Hovercraft_sim
open Hovercraft_core
open Hovercraft_cluster
module Op = Hovercraft_apps.Op
module Kvstore = Hovercraft_apps.Kvstore
module Metrics = Hovercraft_obs.Metrics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let params ?(mode = Hnode.Hover) ?(apply_threads = 1) ?(net_stages = 1) ~seed
    () =
  let p = Hnode.params ~mode ~n:3 () in
  {
    p with
    Hnode.seed;
    features = { p.Hnode.features with Hnode.apply_threads; net_stages };
  }

(* Mixed kv load over a small key population (same mix the apply tests
   use): reads, writes, genuine key conflicts. *)
let kv_workload rng =
  let k = Printf.sprintf "user%06d" (Rng.int rng 500) in
  if Rng.bool rng 0.3 then Op.Kv (Kvstore.Get k)
  else Op.Kv (Kvstore.Put (k, "v"))

(* ------------------------------------------------------------------ *)
(* Knob validation                                                     *)

let test_net_stages_validation () =
  let raises p =
    try
      Hnode.validate_params p;
      false
    with Invalid_argument _ -> true
  in
  let with_stages s =
    let p = Hnode.params ~mode:Hnode.Hover ~n:3 () in
    { p with Hnode.features = { p.Hnode.features with Hnode.net_stages = s } }
  in
  check "stages=0 rejected" true (raises (with_stages 0));
  check "stages=5 rejected" true (raises (with_stages 5));
  for s = 1 to 4 do
    check (Printf.sprintf "stages=%d accepted" s) true
      (not (raises (with_stages s)))
  done;
  let p = Hnode.params ~mode:Hnode.Hover ~n:3 () in
  check "negative handoff rejected" true
    (raises { p with Hnode.cost = { p.Hnode.cost with Hnode.stage_handoff_ns = -1 } })

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)

let fingerprints ~net_stages ~apply_threads ~seed =
  let p = params ~apply_threads ~net_stages ~seed () in
  let deploy = Deploy.create (Deploy.config p) in
  let gen =
    Loadgen.create deploy ~clients:8 ~rate_rps:80_000. ~workload:kv_workload
      ~seed ()
  in
  ignore (Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 300) ());
  Deploy.quiesce deploy ~extra:(Timebase.ms 100) ();
  ( Array.map Hnode.app_fingerprint deploy.Deploy.nodes,
    Array.map Hnode.executed_ops deploy.Deploy.nodes )

let all_equal a = Array.for_all (fun x -> x = a.(0)) a

(* The compartmentalization contract: stage counts move simulated cycles
   between CPUs but never change handler logic or message order, so (a)
   replicas of a pipelined deployment end byte-identical, (b) a pipelined
   run replays itself exactly, and (c) the final state is independent of
   the stage count — the same arrivals converge to the same store no
   matter how the net path is cut. *)
let test_determinism_across_stages () =
  let fp1, _ = fingerprints ~net_stages:1 ~apply_threads:1 ~seed:31 in
  let fp4, ex4 = fingerprints ~net_stages:4 ~apply_threads:1 ~seed:31 in
  let fp4', ex4' = fingerprints ~net_stages:4 ~apply_threads:1 ~seed:31 in
  check "pipelined replicas agree" true (all_equal fp4);
  check "pipelined replays byte-identically" true (fp4 = fp4' && ex4 = ex4');
  check "serial replicas agree" true (all_equal fp1);
  check "state independent of stage count" true (fp1.(0) = fp4.(0))

(* Crossed with parallel apply: every (net_stages, apply_threads) cell
   must land on the same final state. *)
let test_determinism_stages_by_threads () =
  let base, _ = fingerprints ~net_stages:1 ~apply_threads:1 ~seed:37 in
  List.iter
    (fun (stages, k) ->
      let fp, _ = fingerprints ~net_stages:stages ~apply_threads:k ~seed:37 in
      check
        (Printf.sprintf "stages=%d K=%d replicas agree" stages k)
        true (all_equal fp);
      check
        (Printf.sprintf "stages=%d K=%d matches serial state" stages k)
        true
        (fp.(0) = base.(0)))
    [ (2, 1); (4, 4); (3, 2) ]

(* ------------------------------------------------------------------ *)
(* Stage census                                                        *)

(* Under real load at stages=4 the leader's ingress, sequencer and fanout
   CPUs all accrue busy time (the pipeline actually runs as a pipeline),
   and the roles report through the accessor in pipeline order. *)
let test_stage_census () =
  let p = params ~mode:Hnode.Hover_pp ~net_stages:4 ~seed:41 () in
  let deploy = Deploy.create (Deploy.config p) in
  let gen =
    Loadgen.create deploy ~clients:8 ~rate_rps:100_000. ~workload:kv_workload
      ~seed:41 ()
  in
  ignore (Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 100) ());
  Deploy.quiesce deploy ();
  let leader = Option.get (Deploy.leader deploy) in
  check_int "stage count accessor" 4 (Hnode.net_stages leader);
  let busy = Hnode.stage_busy_times leader in
  Alcotest.(check (list string))
    "roles in pipeline order"
    [ "ingress"; "sequencer"; "fanout"; "replier" ]
    (List.map fst busy);
  List.iter
    (fun role ->
      check
        (Printf.sprintf "leader %s stage busy" role)
        true
        (List.assoc role busy > 0))
    [ "ingress"; "sequencer"; "fanout" ];
  (* The monolithic path carries no stage instrumentation at all. *)
  let p1 = params ~mode:Hnode.Hover_pp ~net_stages:1 ~seed:41 () in
  let d1 = Deploy.create (Deploy.config p1) in
  Array.iter
    (fun n -> check_int "no stalls at stages=1" 0 (Hnode.stage_stalls n))
    d1.Deploy.nodes

(* ------------------------------------------------------------------ *)
(* Regression: local executions must not pin to app CPU 0              *)

(* 100% keyed lease reads at K=4: every read executes locally on the
   leader, and before the fix they all serialized onto apps.(0). Now
   they follow the footprint hash, so several app CPUs accrue busy time
   while the log stays empty (lease reads are never ordered). *)
let test_lease_reads_spread () =
  let p = params ~apply_threads:4 ~seed:53 () in
  let p =
    {
      p with
      Hnode.features =
        { p.Hnode.features with Hnode.read_mode = Hnode.Leader_leases };
    }
  in
  let deploy = Deploy.create (Deploy.config p) in
  let workload rng =
    Op.Kv (Kvstore.Get (Printf.sprintf "user%06d" (Rng.int rng 500)))
  in
  let gen =
    Loadgen.create deploy ~clients:4 ~rate_rps:60_000. ~workload ~seed:53 ()
  in
  let r = Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 100) () in
  Deploy.quiesce deploy ();
  check "reads served" true (r.Loadgen.completed > 2_000);
  let leader = Option.get (Deploy.leader deploy) in
  check "reads bypassed the log" true (Hnode.log_length leader < 16);
  let active =
    Array.fold_left
      (fun acc b -> if b > 0 then acc + 1 else acc)
      0
      (Hnode.apply_busy_times leader)
  in
  if active < 2 then
    Alcotest.failf "lease reads pinned to one app CPU (%d of 4 active)" active

(* ------------------------------------------------------------------ *)
(* Regression: rx accounting must not allocate per packet              *)

let test_rx_counter_interning () =
  (* The interned table agrees with the human-facing view, densely. *)
  let rid = { Hovercraft_r2p2.R2p2.id = 1; src_addr = Hovercraft_net.Addr.Client 0; src_port = 0 } in
  let payloads =
    [
      Protocol.Request { rid; policy = Hovercraft_r2p2.R2p2.Replicated_req; op = Op.Nop };
      Protocol.Response { rid };
      Protocol.Feedback { rid };
      Protocol.Nack { rid };
      Protocol.Recovery_request { rid; asker = 0 };
      Protocol.Probe { term = 1; leader = 0 };
      Protocol.Agg_commit { term = 1; commit = 0; applied = [||] };
      Protocol.Reconfig { term = 1; members = [| 0 |] };
    ]
  in
  List.iter
    (fun p ->
      check "tag_name agrees with describe" true
        (Protocol.tag_name (Protocol.tag_index p) == Protocol.describe p))
    payloads;
  check "indices in range" true
    (List.for_all
       (fun p ->
         let i = Protocol.tag_index p in
         i >= 0 && i < Protocol.tag_count)
       payloads);
  (* Allocation assertion: the pre-interned path allocates (almost)
     nothing per packet, while the old name-building path allocates a
     string + probes the registry every time. Measured via minor-heap
     words so a regression reintroducing the allocation fails loudly. *)
  let m = Metrics.create () in
  let interned =
    Array.init Protocol.tag_count (fun i ->
        Metrics.counter m ("rx." ^ Protocol.tag_name i))
  in
  let payload = Protocol.Response { rid } in
  let iters = 10_000 in
  let words_of f =
    let before = Gc.minor_words () in
    for _ = 1 to iters do
      f ()
    done;
    Gc.minor_words () -. before
  in
  let interned_words =
    words_of (fun () ->
        Metrics.incr interned.(Protocol.tag_index payload))
  in
  let legacy_words =
    words_of (fun () ->
        Metrics.incr (Metrics.counter m ("rx." ^ Protocol.describe payload)))
  in
  if interned_words > float_of_int iters then
    Alcotest.failf "interned rx path allocates: %.0f minor words / %d packets"
      interned_words iters;
  check "legacy path allocates (the test discriminates)" true
    (legacy_words > float_of_int iters)

(* ------------------------------------------------------------------ *)
(* Regression: reply tx charged once, to the right CPU                 *)

(* Same arrivals on both net paths: the app threads do identical
   execution work, but the staged run bills reply tx to the replier
   stage instead of the app CPU — so its app busy time must drop, and
   the replier stage must accrue some. If the cost were double-charged
   the app totals would match instead. *)
let test_reply_tx_ownership () =
  let run stages =
    let p = params ~mode:Hnode.Hover_pp ~net_stages:stages ~seed:59 () in
    let deploy = Deploy.create (Deploy.config p) in
    let gen =
      Loadgen.create deploy ~clients:8 ~rate_rps:80_000. ~workload:kv_workload
        ~seed:59 ()
    in
    ignore (Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 100) ());
    Deploy.quiesce deploy ();
    let app =
      Array.fold_left (fun acc n -> acc + Hnode.app_busy_time n) 0
        deploy.Deploy.nodes
    in
    let replier =
      Array.fold_left
        (fun acc n -> acc + List.assoc "replier" (Hnode.stage_busy_times n))
        0 deploy.Deploy.nodes
    in
    (app, replier)
  in
  let app_serial, _ = run 1 in
  let app_staged, replier_staged = run 4 in
  check "replier stage carries the replies" true (replier_staged > 0);
  if app_staged >= app_serial then
    Alcotest.failf
      "reply tx still on the app CPUs under the pipelined net (%d >= %d)"
      app_staged app_serial

(* ------------------------------------------------------------------ *)
(* Chaos and snapshots under the pipelined net                         *)

let chaos_outcome ~seed =
  let p = Hnode.params ~mode:Hnode.Hover_pp ~n:5 () in
  let p =
    {
      p with
      Hnode.features =
        {
          p.Hnode.features with
          Hnode.bound = 32;
          apply_threads = 4;
          net_stages = 4;
        };
    }
  in
  Chaos.run ~params:p ~rate_rps:40_000.
    ~duration:(Timebase.ms 700) ~workload:kv_workload ~seed ()

(* Kill/restart/partition churn with the pipelined net (and K=4): the
   checker must find nothing, and an identical seed must replay the
   identical run — fault schedules interleave with a four-CPU rx path
   deterministically. *)
let test_chaos_replay_pipelined () =
  let o1 = chaos_outcome ~seed:61 in
  let o2 = chaos_outcome ~seed:61 in
  Alcotest.(check (list string)) "no checker violations" [] o1.Chaos.verdict.Chaos.violations;
  check "exactly once" true o1.Chaos.verdict.Chaos.exactly_once_ok;
  check "committed preserved" true o1.Chaos.verdict.Chaos.committed_preserved;
  check "caught up" true o1.Chaos.verdict.Chaos.caught_up;
  check "consistent" true o1.Chaos.verdict.Chaos.consistent;
  check "replay: same events" true (o1.Chaos.events = o2.Chaos.events);
  check_int "replay: same completions" o1.Chaos.report.Loadgen.completed
    o2.Chaos.report.Loadgen.completed;
  check_int "replay: same retries" o1.Chaos.retried o2.Chaos.retried

(* Snapshots under the pipelined net: checkpoints cut (and compaction
   moves) while the rx path spans four CPUs, and crash/restart catch-up
   still converges under the snapshot-aware checker. *)
let test_snapshot_pipelined () =
  let p = Hnode.params ~mode:Hnode.Hover_pp ~n:5 () in
  let p =
    {
      p with
      Hnode.features =
        { p.Hnode.features with Hnode.bound = 32; net_stages = 4 };
    }
  in
  let o =
    Chaos.run ~params:p ~rate_rps:40_000.
      ~duration:(Timebase.ms 700) ~snapshots:400 ~workload:kv_workload ~seed:67
      ()
  in
  Alcotest.(check (list string)) "no checker violations" [] o.Chaos.verdict.Chaos.violations;
  check "exactly once" true o.Chaos.verdict.Chaos.exactly_once_ok;
  check "consistent" true o.Chaos.verdict.Chaos.consistent;
  check "compaction ran" true (o.Chaos.max_log_base > 0)

(* ------------------------------------------------------------------ *)
(* Cross-version golden: per-node timing                               *)

(* The tests above compare runs against each other (same run twice,
   replica against replica, stage count against stage count), so a cost
   that moves from one CPU to another, or an apply-loop rewrite that
   shifts an event, trips none of them. These pin small fixed-seed runs
   against captured values instead: every node's net and app busy time,
   reply count, applied index and state fingerprint, and the client
   report. *)

type node_timing = {
  net_busy : int;
  app_busy : int;
  replies : int;
  applied : int;
  fingerprint : int;
}

type timing = {
  nodes : node_timing list;
  sent : int;
  completed : int;
  nacked : int;
  lost : int;
  p50_us : float;
  p99_us : float;
}

let pp_node_timing ppf n =
  Format.fprintf ppf
    "{ net_busy = %d; app_busy = %d; replies = %d; applied = %d; \
     fingerprint = %d }"
    n.net_busy n.app_busy n.replies n.applied n.fingerprint

let pp_timing ppf g =
  Format.fprintf ppf
    "@[<v 2>{@ nodes =@ [ %a ];@ sent = %d; completed = %d; nacked = %d; \
     lost = %d;@ p50_us = %h; p99_us = %h }@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_node_timing)
    g.nodes g.sent g.completed g.nacked g.lost g.p50_us g.p99_us

let timing = Alcotest.testable pp_timing ( = )

let timing_of (deploy : Deploy.t) (r : Loadgen.report) =
  {
    nodes =
      Array.to_list
        (Array.map
           (fun n ->
             {
               net_busy = Hnode.net_busy_time n;
               app_busy = Hnode.app_busy_time n;
               replies = Hnode.replies_sent n;
               applied = Hnode.applied_index n;
               fingerprint = Hnode.app_fingerprint n;
             })
           deploy.Deploy.nodes);
    sent = r.Loadgen.sent;
    completed = r.Loadgen.completed;
    nacked = r.Loadgen.nacked;
    lost = r.Loadgen.lost;
    p50_us = r.Loadgen.p50_us;
    p99_us = r.Loadgen.p99_us;
  }

(* Hover++ with flow control, 2% rx loss (a retransmitted write reaches
   the completion-record replay, a retransmitted read is ordered again),
   checkpoints every 150 entries over a 50-entry log and a follower down
   for 30 ms: it comes back through a snapshot install. *)
let churn_cell ~net_stages ~apply_threads =
  let p = Hnode.params ~mode:Hnode.Hover_pp ~n:3 () in
  let p =
    {
      p with
      Hnode.seed = 71;
      features =
        {
          p.Hnode.features with
          Hnode.net_stages;
          apply_threads;
          loss_prob = 0.02;
          flow_control = true;
          snapshot_interval = 150;
          log_retain = 50;
        };
    }
  in
  let deploy = Deploy.create (Deploy.config ~flow_cap:64 p) in
  let engine = deploy.Deploy.engine in
  Engine.after engine (Timebase.ms 20) (fun () -> Deploy.kill_node deploy 2);
  Engine.after engine (Timebase.ms 50) (fun () -> Deploy.restart_node deploy 2);
  let gen =
    Loadgen.create deploy ~clients:4 ~rate_rps:60_000. ~workload:kv_workload
      ~retry:(Timebase.ms 1, 4) ~seed:71 ()
  in
  let r = Loadgen.run gen ~warmup:(Timebase.ms 2) ~duration:(Timebase.ms 80) () in
  Deploy.quiesce deploy ();
  check "retransmissions sent" true (Loadgen.retried gen > 0);
  check "the restarted follower installed a snapshot" true
    (Hnode.installs_received deploy.Deploy.nodes.(2) > 0);
  timing_of deploy r

(* Read-heavy keyed load under leader leases: most requests execute
   locally on the leader, never ordered. *)
let lease_cell ~net_stages =
  let p = params ~net_stages ~seed:73 () in
  let p =
    {
      p with
      Hnode.features =
        {
          p.Hnode.features with
          Hnode.read_mode = Hnode.Leader_leases;
          flow_control = true;
        };
    }
  in
  let deploy = Deploy.create (Deploy.config ~flow_cap:64 p) in
  let workload rng =
    let k = Printf.sprintf "user%06d" (Rng.int rng 500) in
    if Rng.bool rng 0.9 then Op.Kv (Kvstore.Get k)
    else Op.Kv (Kvstore.Put (k, "v"))
  in
  let gen =
    Loadgen.create deploy ~clients:4 ~rate_rps:60_000. ~workload ~seed:73 ()
  in
  let r = Loadgen.run gen ~warmup:(Timebase.ms 2) ~duration:(Timebase.ms 50) () in
  Deploy.quiesce deploy ();
  timing_of deploy r

let node net_busy app_busy replies applied fingerprint =
  { net_busy; app_busy; replies; applied; fingerprint }

(* Captured before the K=1 serial apply loop and the per-site reply-tx
   code were folded into the dispatcher and the shared reply helpers;
   the refactored node must reproduce them exactly. The churn cells were
   captured again when reads stopped keeping completion records: each
   retried read is ordered a second time, so every replica applies 7 to
   13 more entries. *)
let golden_cases =
  [
    ( "churn S=1 K=1",
      (fun () -> churn_cell ~net_stages:1 ~apply_threads:1),
      {
        nodes =
          [
            node 4009313 6029194 2453 4892 184613487;
            node 5044001 5719486 1517 4892 184613487;
            node 3563021 3599762 899 4892 184613487;
          ];
        sent = 4884;
        completed = 4763;
        nacked = 0;
        lost = 0;
        p50_us = 0x1.c9604189374bcp+3;
        p99_us = 0x1.071c189374bc7p+10;
      } );
    ( "churn S=2 K=1",
      (fun () -> churn_cell ~net_stages:2 ~apply_threads:1),
      {
        nodes =
          [
            node 4523278 5941960 2422 4898 184613487;
            node 5415115 5681960 1530 4898 184613487;
            node 3884185 3536700 908 4898 184613487;
          ];
        sent = 4884;
        completed = 4759;
        nacked = 4;
        lost = 0;
        p50_us = 0x1.fec083126e979p+3;
        p99_us = 0x1.1dd999999999ap+10;
      } );
    ( "churn S=4 K=4",
      (fun () -> churn_cell ~net_stages:4 ~apply_threads:4),
      {
        nodes =
          [
            node 4853542 5969380 2447 4894 184613487;
            node 5754064 5654840 1511 4894 184613487;
            node 3981205 3536660 905 4894 184613487;
          ];
        sent = 4884;
        completed = 4762;
        nacked = 1;
        lost = 0;
        p50_us = 0x1.c92f1a9fbe76dp+3;
        p99_us = 0x1.06f1fbe76c8b4p+10;
      } );
    ( "leases S=1 K=1",
      (fun () -> lease_cell ~net_stages:1),
      {
        nodes =
          [
            node 1213904 3321162 2799 333 354283250;
            node 1002474 508232 94 333 354283250;
            node 1002516 508308 96 333 354283250;
          ];
        sent = 2989;
        completed = 2871;
        nacked = 0;
        lost = 0;
        p50_us = 0x1.21fbe76c8b439p+2;
        p99_us = 0x1.6947ae147ae14p+3;
      } );
    ( "leases S=2 K=1",
      (fun () -> lease_cell ~net_stages:2),
      {
        nodes =
          [
            node 1662106 3214800 2799 333 354283250;
            node 1184604 504660 95 333 354283250;
            node 1184646 504660 95 333 354283250;
          ];
        sent = 2989;
        completed = 2871;
        nacked = 0;
        lost = 0;
        p50_us = 0x1.271a9fbe76c8bp+2;
        p99_us = 0x1.6ced916872b02p+3;
      } );
  ]

let golden_tests =
  List.map
    (fun (name, run, expected) ->
      Alcotest.test_case ("timing golden: " ^ name) `Quick (fun () ->
          Alcotest.check timing name expected (run ())))
    golden_cases

let suite =
  [
    Alcotest.test_case "net_stages validation" `Quick test_net_stages_validation;
    Alcotest.test_case "determinism across stage counts" `Slow
      test_determinism_across_stages;
    Alcotest.test_case "determinism stages x threads" `Slow
      test_determinism_stages_by_threads;
    Alcotest.test_case "stage census" `Quick test_stage_census;
    Alcotest.test_case "lease reads spread across app CPUs" `Quick
      test_lease_reads_spread;
    Alcotest.test_case "rx counters pre-interned" `Quick
      test_rx_counter_interning;
    Alcotest.test_case "reply tx ownership" `Quick test_reply_tx_ownership;
    Alcotest.test_case "chaos replay at net_stages=4" `Slow
      test_chaos_replay_pipelined;
    Alcotest.test_case "snapshot install under pipelined net" `Slow
      test_snapshot_pipelined;
  ]
  @ golden_tests
