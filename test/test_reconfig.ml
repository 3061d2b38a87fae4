(* Tests for single-server membership changes and leadership transfer:
   the Deploy reconfiguration surface, the chaos events that drive it,
   and the membership fields in the JSON snapshot. *)

open Hovercraft_sim
open Hovercraft_core
open Hovercraft_cluster
module Service = Hovercraft_apps.Service
module Json = Hovercraft_obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_members = Alcotest.(check (list int))

let workload = Service.sample (Service.spec ~read_fraction:0.5 ())

let assert_clean (o : Chaos.outcome) =
  Alcotest.(check (list string)) "no checker violations" [] o.Chaos.verdict.Chaos.violations;
  check "exactly once" true o.Chaos.verdict.Chaos.exactly_once_ok;
  check "committed preserved" true o.Chaos.verdict.Chaos.committed_preserved;
  check "caught up" true o.Chaos.verdict.Chaos.caught_up;
  check "consistent" true o.Chaos.verdict.Chaos.consistent;
  check "progress was made" true (o.Chaos.report.Loadgen.completed > 0);
  check_int "no stuck recoveries" 0 o.Chaos.verdict.Chaos.pending_recoveries

(* Grow 3 -> 5 one voter at a time, under open-loop load. *)
let test_grow_under_load () =
  let outcome =
    Chaos.run ~n:3 ~rate_rps:40_000. ~duration:(Timebase.ms 600)
      ~schedule:
        [
          { Chaos.at = Timebase.ms 100; event = Chaos.Add_node };
          { Chaos.at = Timebase.ms 250; event = Chaos.Add_node };
        ]
      ~workload ~seed:51 ()
  in
  assert_clean outcome;
  check_members "membership grew to five" [ 0; 1; 2; 3; 4 ]
    outcome.Chaos.final_members

(* Shrink 5 -> 3; the removed nodes are decommissioned, not just dead. *)
let test_shrink_under_load () =
  let outcome =
    Chaos.run ~n:5 ~rate_rps:40_000. ~duration:(Timebase.ms 600)
      ~schedule:
        [
          { Chaos.at = Timebase.ms 100; event = Chaos.Remove_node 4 };
          { Chaos.at = Timebase.ms 250; event = Chaos.Remove_node 3 };
        ]
      ~workload ~seed:52 ()
  in
  assert_clean outcome;
  check_members "membership shrank to three" [ 0; 1; 2 ]
    outcome.Chaos.final_members

(* Removing the leader itself: it leads until the entry commits, then
   steps down (Raft §4.2.2) and a member takes over. *)
let test_remove_leader () =
  let outcome =
    Chaos.run ~n:5 ~rate_rps:40_000. ~duration:(Timebase.ms 700)
      ~schedule:
        (* Node 0 bootstraps as leader. *)
        [ { Chaos.at = Timebase.ms 150; event = Chaos.Remove_node 0 } ]
      ~workload ~seed:53 ()
  in
  assert_clean outcome;
  check_members "old leader out of the configuration" [ 1; 2; 3; 4 ]
    outcome.Chaos.final_members

(* An addition proposed while a minority is partitioned away must still
   commit (majority of the new config is reachable), and the heal must
   reconcile everyone onto the grown configuration. *)
let test_add_during_partition_then_heal () =
  let outcome =
    Chaos.run ~n:5 ~rate_rps:40_000. ~duration:(Timebase.ms 700)
      ~schedule:
        [
          {
            Chaos.at = Timebase.ms 100;
            event = Chaos.Partition [ [ 0; 1; 2 ]; [ 3; 4 ] ];
          };
          { Chaos.at = Timebase.ms 200; event = Chaos.Add_node };
          { Chaos.at = Timebase.ms 350; event = Chaos.Heal };
        ]
      ~workload ~seed:54 ()
  in
  assert_clean outcome;
  check_members "grown config survives the heal" [ 0; 1; 2; 3; 4; 5 ]
    outcome.Chaos.final_members

(* Cooperative transfer must move leadership to the named target well
   inside one election timeout — that is its whole point. *)
let test_transfer_latency () =
  let params = Hnode.params ~mode:Hnode.Hover ~n:3 () in
  let d = Deploy.create (Deploy.config params) in
  let engine = d.Deploy.engine in
  let old_leader =
    match Deploy.leader d with
    | Some l -> l
    | None -> Alcotest.fail "no leader after create"
  in
  check_int "node0 leads initially" 0 (Hnode.id old_leader);
  let t0 = Engine.now engine in
  Deploy.transfer_leadership d ~target:2;
  let budget = params.Hnode.timing.Hnode.election_min in
  let step = Timebase.us 20 in
  let rec wait () =
    match Deploy.leader d with
    | Some l when Hnode.id l = 2 -> ()
    | _ when Engine.now engine - t0 >= budget -> ()
    | _ ->
        Engine.run ~until:(Engine.now engine + step) engine;
        wait ()
  in
  wait ();
  let elapsed = Engine.now engine - t0 in
  (match Deploy.leader d with
  | Some l -> check_int "target leads" 2 (Hnode.id l)
  | None -> Alcotest.fail "transfer left the cluster leaderless");
  check "transfer beat the election timeout" true (elapsed < budget);
  Alcotest.(check (option int))
    "old leader recorded the hand-off" (Some 2)
    (Hnode.last_transfer old_leader)

(* HovercRaft++: the in-network aggregator must reload its membership
   (and thus its quorum arithmetic) when a config entry is applied. *)
let test_aggregator_quorum_updates () =
  let d =
    Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Hover_pp ~n:3 ()))
  in
  let agg =
    match d.Deploy.aggregator with
    | Some a -> a
    | None -> Alcotest.fail "Hover++ deployment has no aggregator"
  in
  check_members "aggregator starts with the bootstrap set" [ 0; 1; 2 ]
    (Aggregator.members agg);
  let id = Deploy.add_node d in
  Deploy.quiesce d ~extra:(Timebase.ms 50) ();
  check_int "next unused id assigned" 3 id;
  (match Deploy.leader d with
  | Some l -> check_members "leader applied the addition" [ 0; 1; 2; 3 ] (Hnode.members l)
  | None -> Alcotest.fail "no leader after reconfiguration");
  check_members "aggregator reloaded membership" [ 0; 1; 2; 3 ]
    (Aggregator.members agg)

(* Membership churn interleaved with crashes and a restart, all through
   the history checker. *)
let test_mixed_chaos_reconfig () =
  let outcome =
    Chaos.run ~n:5 ~rate_rps:40_000. ~duration:(Timebase.ms 800)
      ~schedule:
        [
          { Chaos.at = Timebase.ms 80; event = Chaos.Kill 4 };
          { Chaos.at = Timebase.ms 180; event = Chaos.Add_node };
          { Chaos.at = Timebase.ms 300; event = Chaos.Restart 4 };
          { Chaos.at = Timebase.ms 420; event = Chaos.Remove_node 1 };
          { Chaos.at = Timebase.ms 540; event = Chaos.Transfer 2 };
        ]
      ~workload ~seed:55 ()
  in
  assert_clean outcome;
  check_members "net effect: +node5, -node1" [ 0; 2; 3; 4; 5 ]
    outcome.Chaos.final_members

(* The reconfig-aware generator must keep (on its own model) a quorum of
   members alive and never shrink the cluster below three voters. *)
let test_random_reconfig_schedule_model () =
  List.iter
    (fun seed ->
      let steps =
        Chaos.random_schedule ~events:10 ~reconfig:true ~n:5
          ~duration:(Timebase.s 2) ~seed ()
      in
      let members = ref 5 in
      let dead = Hashtbl.create 8 in
      let anon = ref 0 in
      List.iter
        (fun { Chaos.event; _ } ->
          (match event with
          | Chaos.Kill i -> Hashtbl.replace dead i ()
          | Chaos.Kill_leader -> incr anon
          | Chaos.Restart i -> Hashtbl.remove dead i
          | Chaos.Add_node -> incr members
          | Chaos.Remove_node _ -> decr members
          | Chaos.Partition _ | Chaos.Heal | Chaos.Transfer _ | Chaos.Slow _
          | Chaos.Shard _ -> ());
          check "never below three voters" true (!members >= 3);
          check "minority dead" true
            (Hashtbl.length dead + !anon <= (!members - 1) / 2))
        steps;
      check_int "id-kills all restarted" 0 (Hashtbl.length dead))
    [ 1; 2; 3; 4; 5 ];
  (* Legacy path: omitting [reconfig] must equal passing [false], so old
     seeds keep replaying identically. *)
  let a = Chaos.random_schedule ~events:8 ~n:5 ~duration:(Timebase.s 2) ~seed:9 () in
  let b =
    Chaos.random_schedule ~events:8 ~reconfig:false ~n:5 ~duration:(Timebase.s 2)
      ~seed:9 ()
  in
  check "reconfig:false is the default" true (a = b)

(* The deployment snapshot carries voters / config_index / last_transfer
   and survives a serialize-parse round trip. *)
let test_snapshot_membership_roundtrip () =
  let d = Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Hover ~n:3 ())) in
  let id = Deploy.add_node d in
  Deploy.quiesce d ~extra:(Timebase.ms 50) ();
  let snap = Deploy.snapshot d in
  match Json.of_string (Json.to_string snap) with
  | Error e -> Alcotest.fail ("snapshot did not parse back: " ^ e)
  | Ok reparsed -> (
      check "round trip preserves the snapshot" true (Json.equal snap reparsed);
      match Json.member "membership" reparsed with
      | Some (Json.Obj _ as m) -> (
          (match Json.member "voters" m with
          | Some (Json.List voters) ->
              check "new voter serialized" true (List.mem (Json.Int id) voters);
              check_int "all four voters present" 4 (List.length voters)
          | _ -> Alcotest.fail "membership.voters missing or not a list");
          (match Json.member "config_index" m with
          | Some (Json.Int ci) -> check "config index advanced" true (ci > 0)
          | _ -> Alcotest.fail "membership.config_index missing");
          match Json.member "last_transfer" m with
          | Some (Json.Int _) -> ()
          | _ -> Alcotest.fail "membership.last_transfer missing")
      | _ -> Alcotest.fail "snapshot has no membership object")

let suite =
  [
    Alcotest.test_case "grow 3->5 under load" `Slow test_grow_under_load;
    Alcotest.test_case "shrink 5->3 under load" `Slow test_shrink_under_load;
    Alcotest.test_case "remove the leader" `Slow test_remove_leader;
    Alcotest.test_case "add during partition, then heal" `Slow
      test_add_during_partition_then_heal;
    Alcotest.test_case "transfer beats the election timeout" `Quick
      test_transfer_latency;
    Alcotest.test_case "aggregator reloads quorum on config apply" `Quick
      test_aggregator_quorum_updates;
    Alcotest.test_case "mixed kill/restart/add/remove/transfer chaos" `Slow
      test_mixed_chaos_reconfig;
    Alcotest.test_case "random reconfig schedules keep quorum" `Quick
      test_random_reconfig_schedule_model;
    Alcotest.test_case "snapshot membership round trip" `Quick
      test_snapshot_membership_roundtrip;
  ]
