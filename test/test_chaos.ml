(* Tests for crash-recovery (Hnode.restart) and the chaos subsystem. *)

open Hovercraft_sim
open Hovercraft_core
open Hovercraft_cluster
module Service = Hovercraft_apps.Service

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let workload = Service.sample (Service.spec ~read_fraction:0.5 ())

(* A killed follower restarted mid-run catches all the way up to the
   cluster's commit point and converges to the same application state. *)
let test_restart_catches_up () =
  let params =
    let p = Hnode.params ~mode:Hnode.Hover_pp ~n:3 () in
    {
      p with
      Hnode.timing = { p.Hnode.timing with Hnode.gc_ordered = Timebase.s 2 };
      features = { p.Hnode.features with Hnode.log_retain = max_int / 2 };
    }
  in
  let deploy = Deploy.create (Deploy.config params) in
  let engine = deploy.Deploy.engine in
  let gen =
    Loadgen.create deploy ~clients:4 ~rate_rps:40_000. ~workload ~seed:11 ()
  in
  Engine.after engine (Timebase.ms 50) (fun () -> Deploy.kill_node deploy 2);
  Engine.after engine (Timebase.ms 150) (fun () -> Deploy.restart_node deploy 2);
  let _ = Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 300) () in
  Deploy.quiesce deploy ~extra:(Timebase.ms 200) ();
  let n2 = deploy.Deploy.nodes.(2) in
  check "restarted node alive" true (Hnode.alive n2);
  let max_commit =
    List.fold_left
      (fun acc n -> max acc (Hnode.commit_index n))
      0 (Deploy.live_nodes deploy)
  in
  check "caught up to cluster commit" true (Hnode.applied_index n2 >= max_commit);
  check "replicas consistent" true (Deploy.consistent deploy);
  check_int "no stuck recoveries" 0 (Deploy.total_pending_recoveries deploy)

let test_restart_requires_dead () =
  let deploy = Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Hover ~n:3 ())) in
  check "restarting a live node rejected" true
    (try
       Deploy.restart_node deploy 1;
       false
     with Invalid_argument _ -> true)

(* The PR's acceptance scenario: N=5 HovercRaft++, kill the leader, restart
   it, then kill the new leader — the cluster must end consistent with the
   restarted node fully caught up and zero checker violations. *)
let test_kill_restart_kill_new_leader () =
  let outcome =
    Chaos.run ~n:5 ~rate_rps:40_000. ~duration:(Timebase.ms 700)
      ~schedule:
        [
          (* Node 0 bootstraps as leader, so the first kill is by id. *)
          { Chaos.at = Timebase.ms 100; event = Chaos.Kill 0 };
          { Chaos.at = Timebase.ms 300; event = Chaos.Restart 0 };
          { Chaos.at = Timebase.ms 450; event = Chaos.Kill_leader };
        ]
      ~workload ~seed:21 ()
  in
  check_int "three scheduled events applied (plus epilogue)" 4
    (List.length outcome.Chaos.events);
  Alcotest.(check (list string)) "no checker violations" []
    outcome.Chaos.verdict.Chaos.violations;
  check "consistent" true outcome.Chaos.verdict.Chaos.consistent;
  check "caught up" true outcome.Chaos.verdict.Chaos.caught_up;
  check "exactly once" true outcome.Chaos.verdict.Chaos.exactly_once_ok;
  check "committed preserved" true outcome.Chaos.verdict.Chaos.committed_preserved;
  check "progress was made" true (outcome.Chaos.report.Loadgen.completed > 0)

(* A minority partition severs the leader from nothing it needs; healing
   must lose no committed reply and leave everyone converged. *)
let test_partition_then_heal () =
  let outcome =
    Chaos.run ~n:5 ~rate_rps:40_000. ~duration:(Timebase.ms 600)
      ~schedule:
        [
          {
            Chaos.at = Timebase.ms 150;
            event = Chaos.Partition [ [ 0; 1; 2 ]; [ 3; 4 ] ];
          };
          { Chaos.at = Timebase.ms 350; event = Chaos.Heal };
        ]
      ~workload ~seed:31 ()
  in
  Alcotest.(check (list string)) "no checker violations" []
    outcome.Chaos.verdict.Chaos.violations;
  check "committed replies survived the partition" true
    outcome.Chaos.verdict.Chaos.committed_preserved;
  check "consistent after heal" true outcome.Chaos.verdict.Chaos.consistent;
  check "caught up after heal" true outcome.Chaos.verdict.Chaos.caught_up

(* Equal seeds must replay the same schedule against the same load. *)
let test_chaos_deterministic () =
  let run () =
    let o =
      Chaos.run ~n:5 ~rate_rps:30_000. ~duration:(Timebase.ms 500) ~workload
        ~seed:42 ()
    in
    (o.Chaos.events, o.Chaos.series, o.Chaos.report.Loadgen.completed)
  in
  check "same seed, identical outcome" true (run () = run ())

let test_random_schedule_keeps_quorum () =
  (* On the generator's own model: never more than a minority dead, and
     everything it killed by id is restarted by the end. *)
  List.iter
    (fun seed ->
      let steps =
        Chaos.random_schedule ~events:8 ~n:5 ~duration:(Timebase.s 2) ~seed ()
      in
      let dead = Hashtbl.create 8 in
      let anon = ref 0 in
      List.iter
        (fun { Chaos.event; _ } ->
          (match event with
          | Chaos.Kill i -> Hashtbl.replace dead i ()
          | Chaos.Kill_leader -> incr anon
          | Chaos.Restart i -> Hashtbl.remove dead i
          | Chaos.Partition _ | Chaos.Heal | Chaos.Add_node
          | Chaos.Remove_node _ | Chaos.Transfer _ | Chaos.Slow _
          | Chaos.Shard _ ->
              ());
          check "minority dead" true (Hashtbl.length dead + !anon <= 2))
        steps;
      check_int "id-kills all restarted" 0 (Hashtbl.length dead))
    [ 1; 2; 3; 4; 5 ]

(* One dispatch rule for every run: a [Shard 0] tag reaches the only
   group of a single-group run, and a tag naming no group is noted as
   skipped rather than dropped silently. *)
let test_shard_tags_on_one_group () =
  let outcome =
    Chaos.run ~n:3 ~rate_rps:20_000. ~duration:(Timebase.ms 400)
      ~schedule:
        [
          {
            Chaos.at = Timebase.ms 50;
            event =
              Chaos.Shard (0, Chaos.Slow { node = 1; delay = Timebase.us 300 });
          };
          { Chaos.at = Timebase.ms 100; event = Chaos.Shard (0, Chaos.Kill 1) };
          {
            Chaos.at = Timebase.ms 200;
            event = Chaos.Shard (0, Chaos.Restart 1);
          };
          { Chaos.at = Timebase.ms 300; event = Chaos.Shard (3, Chaos.Kill 0) };
        ]
      ~workload ~seed:23 ()
  in
  let notes = List.map snd outcome.Chaos.events in
  check "Shard (0, Slow _) reached the group" true
    (List.mem "slowed node1 (+300us per hop)" notes);
  check "Shard (0, Kill 1) reached the group" true
    (List.mem "killed node1" notes);
  check "Shard (0, Restart 1) reached the group" true
    (List.mem "restarted node1" notes);
  check "Shard (3, _) noted as skipped" true
    (List.mem "shard3 event skipped (no such group): kill node0" notes);
  Alcotest.(check (list string)) "no checker violations" []
    outcome.Chaos.verdict.Chaos.violations

(* With every replica dead nothing vouches for an acknowledged write: the
   checker must say so in its violation list, which is what makes the
   chaos command exit nonzero. *)
let test_check_reports_no_live_replica () =
  let deploy =
    Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Hover_pp ~n:3 ()))
  in
  for i = 0 to 2 do
    Deploy.kill_node deploy i
  done;
  let rid =
    {
      Hovercraft_r2p2.R2p2.id = 0;
      src_addr = Hovercraft_net.Addr.Client 0;
      src_port = 0;
    }
  in
  let v = Chaos.check [| deploy |] ~completed_writes:[ rid ] in
  check "committed-preserved fails" false v.Chaos.committed_preserved;
  check_int "one violation reported" 1 (List.length v.Chaos.violations)

(* A follower that never receives a client multicast and whose recovery
   requests all vanish can never fetch a body: settling cannot fix that,
   so the checker must report the stuck recoveries as a violation rather
   than leave them in a counter nobody gates on. *)
let test_check_reports_wedged_recovery () =
  let deploy =
    Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Hover ~n:3 ()))
  in
  let fabric = deploy.Deploy.fabric in
  let clients = 4 in
  let drop ~src ~dst =
    Hovercraft_net.Fabric.set_link_fault fabric ~src ~dst ~drop:1. ()
  in
  for c = 0 to clients - 1 do
    drop ~src:(Hovercraft_net.Addr.Client c) ~dst:(Hovercraft_net.Addr.Node 2)
  done;
  List.iter
    (fun peer ->
      drop ~src:(Hovercraft_net.Addr.Node 2)
        ~dst:(Hovercraft_net.Addr.Node peer))
    [ 0; 1 ];
  let gen =
    Loadgen.create deploy ~clients ~rate_rps:20_000. ~workload ~seed:3 ()
  in
  ignore (Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 50) ());
  Deploy.quiesce deploy ~extra:(Timebase.ms 50) ();
  let v = Chaos.check [| deploy |] ~completed_writes:[] in
  check "recoveries pending" true (v.Chaos.pending_recoveries > 0);
  check "pending recoveries reported as a violation" true
    (List.mem
       (Printf.sprintf "%d pending recoveries after quiesce"
          v.Chaos.pending_recoveries)
       v.Chaos.violations)

let suite =
  [
    Alcotest.test_case "restart catches up" `Slow test_restart_catches_up;
    Alcotest.test_case "restart requires dead node" `Quick
      test_restart_requires_dead;
    Alcotest.test_case "kill, restart, kill new leader" `Slow
      test_kill_restart_kill_new_leader;
    Alcotest.test_case "partition then heal" `Slow test_partition_then_heal;
    Alcotest.test_case "chaos determinism" `Slow test_chaos_deterministic;
    Alcotest.test_case "random schedule keeps quorum" `Quick
      test_random_schedule_keeps_quorum;
    Alcotest.test_case "shard tags on one group" `Slow
      test_shard_tags_on_one_group;
    Alcotest.test_case "check reports no live replica" `Quick
      test_check_reports_no_live_replica;
    Alcotest.test_case "check reports a wedged recovery" `Quick
      test_check_reports_wedged_recovery;
  ]
