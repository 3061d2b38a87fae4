(* Tests for the Multi-Raft shard layer: map/partitioners, schedule
   determinism (the S=1 no-op guarantee), sharded deployments under load,
   and live migration with the cross-map history checker. *)

open Hovercraft_sim
open Hovercraft_cluster
open Hovercraft_shard
module Op = Hovercraft_apps.Op
module Kvstore = Hovercraft_apps.Kvstore
module Hnode = Hovercraft_core.Hnode

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A single-key kv workload over a YCSB-shaped key population: keys carry
   shard routing, a write-heavy mix exercises the exactly-once machinery. *)
let kv_workload rng =
  let k = Printf.sprintf "user%08d" (Rng.int rng 2_000) in
  if Rng.bool rng 0.5 then Op.Kv (Kvstore.Get k)
  else Op.Kv (Kvstore.Put (k, "v"))

(* ------------------------------------------------------------------ *)
(* Shard map                                                           *)

let test_map_blocks_and_assign () =
  let m = Shard_map.create ~slots:8 ~groups:4 () in
  check_int "version" 1 (Shard_map.version m);
  check_int "slots of g0" 2 (List.length (Shard_map.slots_of_group m 0));
  check "contiguous blocks" true
    (Shard_map.slots_of_group m 0 = [ 0; 1 ]
    && Shard_map.slots_of_group m 3 = [ 6; 7 ]);
  check "active = all" true (Shard_map.active_groups m = [ 0; 1; 2; 3 ]);
  Shard_map.assign m ~slots:[ 6; 7 ] ~target:0;
  check_int "version bumped" 2 (Shard_map.version m);
  check "reassigned" true (Shard_map.slots_of_group m 3 = []);
  check "g0 grew" true (Shard_map.slots_of_group m 0 = [ 0; 1; 6; 7 ])

let test_map_dormant_and_split_plan () =
  let m = Shard_map.create ~active:1 ~slots:8 ~groups:2 () in
  check "g1 dormant" true (Shard_map.slots_of_group m 1 = []);
  check "plan = upper half" true
    (Shard_map.split_plan m ~source:0 = [ 4; 5; 6; 7 ]);
  (* An odd slot count keeps the larger half at the source. *)
  Shard_map.assign m ~slots:[ 7 ] ~target:1;
  check "odd split" true (Shard_map.split_plan m ~source:0 = [ 4; 5; 6 ])

let test_range_partitioner () =
  let m =
    Shard_map.create
      ~partitioner:(Shard_map.Range [| "g"; "p" |])
      ~slots:3 ~groups:3 ()
  in
  check_int "below first cut" 0 (Shard_map.slot_of_key m "abc");
  check_int "at a cut (inclusive)" 1 (Shard_map.slot_of_key m "g");
  check_int "between cuts" 1 (Shard_map.slot_of_key m "moose");
  check_int "above last cut" 2 (Shard_map.slot_of_key m "zed");
  check "owner follows slot" true (Shard_map.owner_of_key m "zed" = 2)

let test_map_validation () =
  let raises f = try f () |> ignore; false with Invalid_argument _ -> true in
  check "active > groups" true
    (raises (fun () -> Shard_map.create ~active:3 ~slots:8 ~groups:2 ()));
  check "fewer slots than active" true
    (raises (fun () -> Shard_map.create ~slots:2 ~groups:4 ()));
  check "unsorted cuts" true
    (raises (fun () ->
         Shard_map.create ~partitioner:(Shard_map.Range [| "p"; "g" |]) ~slots:3
           ~groups:3 ()));
  let m = Shard_map.create ~slots:4 ~groups:2 () in
  check "split needs two slots" true
    (raises (fun () ->
         Shard_map.assign m ~slots:[ 1; 2; 3 ] ~target:0;
         Shard_map.split_plan m ~source:1))

(* The hash partitioner spreads the YCSB key population near-uniformly:
   every one of 8 shards within +/-20% of the uniform share (satellite:
   key-distribution tests). *)
let test_hash_partitioner_spread () =
  let m = Shard_map.create ~slots:64 ~groups:8 () in
  let counts = Array.make 8 0 in
  let nkeys = 10_000 in
  for i = 0 to nkeys - 1 do
    let g = Shard_map.owner_of_key m (Printf.sprintf "user%08d" i) in
    counts.(g) <- counts.(g) + 1
  done;
  let uniform = float_of_int nkeys /. 8. in
  Array.iteri
    (fun g c ->
      let ratio = float_of_int c /. uniform in
      if ratio < 0.8 || ratio > 1.2 then
        Alcotest.failf "shard %d holds %.2fx the uniform share" g ratio)
    counts

(* ------------------------------------------------------------------ *)
(* Schedule determinism                                                *)

(* [~shards:1] must be a strict no-op: byte-for-byte the schedule every
   historical seed produced. *)
let test_schedule_s1_noop () =
  List.iter
    (fun seed ->
      let legacy =
        Chaos.random_schedule ~n:5 ~duration:(Timebase.s 2) ~seed ()
      in
      let s1 =
        Chaos.random_schedule ~shards:1 ~n:5 ~duration:(Timebase.s 2) ~seed ()
      in
      check (Printf.sprintf "seed %d identical" seed) true (legacy = s1))
    [ 1; 7; 42; 1001 ]

let test_schedule_sharded () =
  let steps =
    Chaos.random_schedule ~shards:4 ~n:5 ~duration:(Timebase.s 2) ~seed:9 ()
  in
  check "nonempty" true (steps <> []);
  List.iter
    (fun { Chaos.at; event } ->
      check "nonnegative time" true (at >= 0);
      match event with
      | Chaos.Shard (g, Chaos.Shard _) ->
          Alcotest.failf "nested shard tag in group %d" g
      | Chaos.Shard (g, _) -> check "group in range" true (g >= 0 && g < 4)
      | _ -> Alcotest.fail "unwrapped event in a sharded schedule")
    steps;
  let times = List.map (fun s -> s.Chaos.at) steps in
  check "time-sorted" true (times = List.sort compare times);
  (* Deterministic per seed. *)
  check "replays identically" true
    (steps
    = Chaos.random_schedule ~shards:4 ~n:5 ~duration:(Timebase.s 2) ~seed:9 ())

(* ------------------------------------------------------------------ *)
(* Sharded deployments                                                 *)

(* Two active groups, no faults, no migration: load routes by key, both
   groups make progress, nothing is lost, histories check out. *)
let test_sharded_load_clean () =
  let o =
    Shard_chaos.run ~n:3 ~shards:2 ~rate_rps:30_000.
      ~duration:(Timebase.ms 400) ~schedule:[] ~workload:kv_workload ~seed:5 ()
  in
  check "violations" true (o.Shard_chaos.violations = []);
  check "exactly once" true o.Shard_chaos.exactly_once_ok;
  check "preserved" true o.Shard_chaos.committed_preserved;
  check "caught up" true o.Shard_chaos.caught_up;
  check "consistent" true o.Shard_chaos.consistent;
  check "completed some" true (o.Shard_chaos.report.Loadgen.completed > 1_000);
  check_int "lost" 0 o.Shard_chaos.report.Loadgen.lost;
  check_int "map untouched" 1 o.Shard_chaos.map_version

(* A live split under sustained write load: group 1 starts dormant, the
   upper half of group 0's slots moves mid-run. Exactly-once and
   committed-stays-committed must hold across the handoff, and the map
   must have flipped. *)
let test_live_split_under_load () =
  let o =
    Shard_chaos.run ~n:3 ~shards:2 ~active:1 ~rate_rps:30_000.
      ~duration:(Timebase.ms 600) ~schedule:[]
      ~migrations:[ (Timebase.ms 150, Shard_chaos.Split { source = 0; target = 1 }) ]
      ~workload:kv_workload ~seed:8 ()
  in
  check "violations" true (o.Shard_chaos.violations = []);
  check "exactly once across map" true o.Shard_chaos.exactly_once_ok;
  check "no committed write lost" true o.Shard_chaos.committed_preserved;
  check "consistent" true o.Shard_chaos.consistent;
  check_int "one migration" 1 o.Shard_chaos.migrations;
  check_int "map flipped" 2 o.Shard_chaos.map_version;
  check_int "lost" 0 o.Shard_chaos.report.Loadgen.lost

(* Per-shard fault injection: each group rides its own schedule (wrapped
   in [Shard]), and the checkers still pass after the epilogue. *)
let test_sharded_chaos_events () =
  let o =
    Shard_chaos.run ~n:3 ~shards:2 ~rate_rps:20_000.
      ~duration:(Timebase.ms 800)
      ~schedule:
        [
          { Chaos.at = Timebase.ms 100; event = Chaos.Shard (0, Chaos.Kill 1) };
          { Chaos.at = Timebase.ms 200; event = Chaos.Shard (1, Chaos.Kill_leader) };
          { Chaos.at = Timebase.ms 400; event = Chaos.Shard (0, Chaos.Restart 1) };
        ]
      ~workload:kv_workload ~seed:13 ()
  in
  check "violations" true (o.Shard_chaos.violations = []);
  check "exactly once" true o.Shard_chaos.exactly_once_ok;
  check "caught up" true o.Shard_chaos.caught_up;
  check "events noted" true
    (List.exists
       (fun (_, s) -> s = "shard0: killed node1")
       o.Shard_chaos.events)

(* Backoff-table leak regression: a live split populates the per-rid
   reroute-backoff table (fence NACKs), and killing the split target the
   moment the map flips strands the freshly rerouted rids — they burn a
   tiny retry budget against dead nodes and are written off as lost.
   Both exits (retry exhaustion mid-run, teardown at end of run) must
   remove their entries; before the fix, exhausted rids left theirs
   behind forever. *)
let test_backoff_table_drains () =
  let p = Hnode.params ~mode:Hnode.Hover ~n:3 () in
  let sd = Shard_deploy.create (Shard_deploy.config ~active:1 ~shards:2 p) in
  let engine = Shard_deploy.engine sd in
  let gen =
    Shard_loadgen.create sd ~clients:8 ~rate_rps:30_000. ~workload:kv_workload
      ~retry:(Timebase.ms 5, 2) ~seed:21 ()
  in
  Engine.after engine (Timebase.ms 100) (fun () ->
      Shard_deploy.split_shard sd
        ~on_done:(fun () ->
          let d = (Shard_deploy.groups sd).(1) in
          Array.iter Hnode.kill d.Deploy.nodes)
        ~source:0 ~target:1 ());
  (* Probe the table late in the run, after every stranded rid has had
     time to exhaust its retries but before teardown can mask a leak. *)
  let late_entries = ref (-1) in
  Engine.after engine (Timebase.ms 380) (fun () ->
      late_entries := Loadgen.backoff_entries gen);
  let r =
    Shard_loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 400)
      ~drain:(Timebase.ms 50) ()
  in
  check "reroutes happened" true (Loadgen.rerouted gen > 0);
  check "some rids were written off" true (r.Loadgen.lost > 0);
  check_int "exhausted rids left no backoff entries" 0 !late_entries;
  check_int "table empty after run" 0 (Loadgen.backoff_entries gen)

(* A one-group run is [Chaos.run]; the sharded runner refuses it up front
   rather than running a second, copied single-group path. *)
let test_single_group_rejected () =
  check "shards=1 raises Invalid_argument" true
    (try
       ignore
         (Shard_chaos.run ~n:3 ~shards:1 ~workload:kv_workload ~seed:17 ());
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "map: blocks and assign" `Quick test_map_blocks_and_assign;
    Alcotest.test_case "map: dormant groups and split plan" `Quick
      test_map_dormant_and_split_plan;
    Alcotest.test_case "map: range partitioner" `Quick test_range_partitioner;
    Alcotest.test_case "map: validation" `Quick test_map_validation;
    Alcotest.test_case "map: YCSB keys spread evenly" `Quick
      test_hash_partitioner_spread;
    Alcotest.test_case "schedule: shards=1 is a strict no-op" `Quick
      test_schedule_s1_noop;
    Alcotest.test_case "schedule: sharded wrapping" `Quick test_schedule_sharded;
    Alcotest.test_case "sharded load, clean run" `Slow test_sharded_load_clean;
    Alcotest.test_case "live split under load" `Slow test_live_split_under_load;
    Alcotest.test_case "per-shard chaos events" `Slow test_sharded_chaos_events;
    Alcotest.test_case "backoff table drains" `Slow test_backoff_table_drains;
    Alcotest.test_case "run: shards=1 rejected" `Quick
      test_single_group_rejected;
  ]
