(* Tests for the snapshot subsystem: checkpointing, compaction past
   follower progress, the chunked Install_snapshot transfer (resumption
   after drops and leader changes), dump/restore/recover of compacted
   logs, and the cluster-level catch-up paths (restart and add_node via
   install instead of replay) under the snapshot-aware history checker. *)

open Hovercraft_sim
open Hovercraft_core
open Hovercraft_cluster
module Node = Hovercraft_raft.Node
module Log = Hovercraft_raft.Log
module Types = Hovercraft_raft.Types
module Snapshot = Hovercraft_raft.Snapshot
module Service = Hovercraft_apps.Service

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* A netless mini-harness for the transfer protocol: like Raft_harness
   but with per-node delivery blocking and a per-message drop predicate,
   so tests can strand a follower, stall a transfer at a chosen offset,
   and watch exactly which chunks flow. Snapshot payload = int marker. *)

type h = {
  nodes : (int, int) Node.t array;
  bag : (int * (int, int) Types.message) Queue.t;
  installed : int array;  (* last installed snapshot marker per node *)
  mutable blocked : int list;  (* node ids that receive nothing *)
  mutable next_cmd : int;
}

let chunk_bytes = 100
let snap_size = 1_000 (* 10 chunks *)

let mk n =
  {
    nodes =
      Array.init n (fun id ->
          Node.create
            {
              Node.id;
              peers = Array.init (n - 1) (fun i -> if i < id then i else i + 1);
              batch_max = 8;
              eager_commit_notify = false;
              snap_chunk_bytes = chunk_bytes;
            }
            ~noop:(-1));
    bag = Queue.create ();
    installed = Array.make n 0;
    blocked = [];
    next_cmd = 0;
  }

let rec feed h i input =
  List.iter
    (function
      | Node.Send (dst, msg) -> Queue.push (dst, msg) h.bag
      | Node.Commit_advanced c -> feed h i (Node.Applied_up_to c)
      | Node.Snapshot_installed meta ->
          h.installed.(i) <- meta.Snapshot.data
      | _ -> ())
    (Node.handle h.nodes.(i) input)

(* Deliver everything in flight; [drop dst msg] inspects (and may veto)
   each delivery. Blocked destinations never receive. *)
let drain ?(drop = fun _ _ -> false) h =
  let steps = ref 0 in
  while (not (Queue.is_empty h.bag)) && !steps < 100_000 do
    incr steps;
    let dst, msg = Queue.pop h.bag in
    if (not (List.mem dst h.blocked)) && not (drop dst msg) then
      feed h dst (Node.Receive msg)
  done

let elect h i =
  feed h i Node.Election_timeout;
  drain h;
  check "election won" true (Node.role h.nodes.(i) = Node.Leader)

let commit_one h i =
  feed h i (Node.Client_command h.next_cmd);
  h.next_cmd <- h.next_cmd + 1;
  drain h;
  feed h i Node.Heartbeat_timeout;
  drain h

(* Checkpoint node [i] at its applied index and compact fully. *)
let checkpoint h i ~marker =
  let nd = h.nodes.(i) in
  let idx = Node.applied_index nd in
  let last_term = (Log.get (Node.log nd) idx).Types.term in
  Node.set_snapshot nd
    (Snapshot.make ~last_idx:idx ~last_term ~members:[ 0; 1; 2 ]
       ~size:snap_size ~data:marker);
  let base = Node.compact nd ~retain:0 in
  check_int "compacted to the checkpoint" idx base;
  idx

(* Stranded leader + stranded follower: elect 0, strand 2, commit load. *)
let strand_follower () =
  let h = mk 3 in
  elect h 0;
  h.blocked <- [ 2 ];
  for _ = 1 to 20 do
    commit_one h 0
  done;
  h

(* Record the offsets of install chunks delivered to [dst]. *)
let record_offsets dst offsets = fun d m ->
  (match m with
  | Types.Install_snapshot { offset; _ } when d = dst ->
      offsets := offset :: !offsets
  | _ -> ());
  false

(* ------------------------------------------------------------------ *)
(* Node-level: the transfer protocol itself                            *)

let test_compaction_past_crashed_follower () =
  let h = strand_follower () in
  let n0 = h.nodes.(0) and n2 = h.nodes.(2) in
  let snap_idx = checkpoint h 0 ~marker:42 in
  (* Compaction did not wait for the stranded follower. *)
  check "base advanced past follower progress" true
    (Node.match_index_of n0 2 < Log.base (Node.log n0));
  h.blocked <- [];
  let offsets = ref [] in
  feed h 0 Node.Heartbeat_timeout;
  drain h ~drop:(record_offsets 2 offsets);
  check_int "follower installed the image" 42 h.installed.(2);
  check_int "follower snapshot at the checkpoint" snap_idx
    (Node.snapshot_index n2);
  check_int "follower log spliced at the checkpoint" snap_idx
    (Log.base (Node.log n2));
  check "every chunk exactly once, in order" true
    (List.rev !offsets
    = List.init (snap_size / chunk_bytes) (fun i -> i * chunk_bytes));
  (* Entry replication resumes after the covered prefix. *)
  commit_one h 0;
  check_int "follower back on the entry path" (Log.last_index (Node.log n0))
    (Log.last_index (Node.log n2));
  check_int "follower applied it all" (Node.applied_index n0)
    (Node.applied_index n2)

let test_dropped_chunk_resumes_at_offset () =
  let h = strand_follower () in
  let snap_idx = checkpoint h 0 ~marker:42 in
  h.blocked <- [];
  (* Lose the chunk at offset 300 once: the transfer stalls (one chunk in
     flight), the leader's heartbeat retransmits it, and the transfer
     resumes from 300 — not from 0. *)
  let dropped = ref false in
  let stall d m =
    match m with
    | Types.Install_snapshot { offset = 300; _ } when d = 2 && not !dropped ->
        dropped := true;
        true
    | _ -> false
  in
  feed h 0 Node.Heartbeat_timeout;
  drain h ~drop:stall;
  check "chunk was dropped" true !dropped;
  check_int "transfer stalled, nothing installed" 0 h.installed.(2);
  let offsets = ref [] in
  feed h 0 Node.Heartbeat_timeout;
  drain h ~drop:(record_offsets 2 offsets);
  check_int "follower installed after resume" 42 h.installed.(2);
  check_int "follower snapshot at the checkpoint" snap_idx
    (Node.snapshot_index h.nodes.(2));
  check "resumed from the dropped offset, not from 0" true
    (List.rev !offsets = [ 300; 400; 500; 600; 700; 800; 900 ])

(* Lose every chunk at offset >= 300 sent by [src] to node 2. *)
let stall_from src = fun d m ->
  match m with
  | Types.Install_snapshot { leader; offset; _ } ->
      leader = src && d = 2 && offset >= 300
  | _ -> false

let test_leader_change_resumes_same_identity () =
  let h = strand_follower () in
  (* Both up-to-date nodes checkpoint the same prefix: the identity
     (last_idx, last_term) is equal, so a mid-transfer leader change may
     resume the transfer instead of restarting it. *)
  let snap_idx = checkpoint h 0 ~marker:42 in
  let snap_idx' = checkpoint h 1 ~marker:43 in
  check_int "same checkpoint index on both" snap_idx snap_idx';
  h.blocked <- [];
  feed h 0 Node.Heartbeat_timeout;
  drain h ~drop:(stall_from 0);
  check_int "transfer incomplete under the old leader" 0 h.installed.(2);
  (* Leadership moves. The new leader has no per-follower transfer state,
     but the follower's ack advertises the 300 contiguous bytes it already
     holds, so the new leader skips straight there: offsets 100 and 200
     are never retransmitted. *)
  let offsets = ref [] in
  feed h 1 Node.Election_timeout;
  drain h ~drop:(record_offsets 2 offsets);
  feed h 1 Node.Heartbeat_timeout;
  drain h ~drop:(record_offsets 2 offsets);
  check "follower installed across the leader change" true
    (h.installed.(2) <> 0);
  check_int "follower snapshot at the checkpoint" snap_idx
    (Node.snapshot_index h.nodes.(2));
  check "early chunks not retransmitted (offset flow control)" true
    (not (List.mem 100 !offsets) && not (List.mem 200 !offsets));
  check "the stalled chunk was delivered by the new leader" true
    (List.mem 300 !offsets);
  commit_one h 1;
  check_int "follower back on the entry path"
    (Log.last_index (Node.log h.nodes.(1)))
    (Log.last_index (Node.log h.nodes.(2)))

let test_leader_change_restarts_superseded_transfer () =
  let h = strand_follower () in
  let snap0 = checkpoint h 0 ~marker:42 in
  h.blocked <- [];
  feed h 0 Node.Heartbeat_timeout;
  drain h ~drop:(stall_from 0);
  check_int "transfer incomplete under the old leader" 0 h.installed.(2);
  (* The cluster moves on while the follower is stranded again; the next
     leader checkpoints a LONGER prefix, so its snapshot supersedes the
     half-received one — different identity, no resumption. *)
  h.blocked <- [ 2 ];
  commit_one h 0;
  let snap1 = checkpoint h 1 ~marker:43 in
  check "new checkpoint covers more" true (snap1 > snap0);
  h.blocked <- [];
  let offsets = ref [] in
  feed h 1 Node.Election_timeout;
  drain h ~drop:(record_offsets 2 offsets);
  feed h 1 Node.Heartbeat_timeout;
  drain h ~drop:(record_offsets 2 offsets);
  check_int "follower installed the superseding image" 43 h.installed.(2);
  check_int "follower snapshot at the new checkpoint" snap1
    (Node.snapshot_index h.nodes.(2));
  (* The stale 300-byte partial bought nothing: the new identity's
     transfer ran from offset 0, every chunk in order. *)
  check "superseded transfer restarted from offset 0" true
    (List.rev !offsets
    = List.init (snap_size / chunk_bytes) (fun i -> i * chunk_bytes));
  commit_one h 1;
  check_int "follower back on the entry path"
    (Log.last_index (Node.log h.nodes.(1)))
    (Log.last_index (Node.log h.nodes.(2)))

let test_dump_restore_recover_compacted () =
  let h = strand_follower () in
  let snap_idx = checkpoint h 0 ~marker:42 in
  let n0 = h.nodes.(0) in
  commit_one h 0;
  (* dump carries the base and the retained suffix *)
  let d = Node.dump n0 in
  let info = Node.dump_info d in
  check_int "dump base is the checkpoint" snap_idx info.Node.i_base;
  check_int "dump carries only the suffix"
    (Log.last_index (Node.log n0) - snap_idx)
    (List.length info.Node.i_entries);
  let cfg =
    {
      Node.id = 0;
      peers = [| 1; 2 |];
      batch_max = 8;
      eager_commit_notify = false;
      snap_chunk_bytes = chunk_bytes;
    }
  in
  let r = Node.restore cfg ~noop:(-1) d in
  check_int "restored base" (Log.base (Node.log n0)) (Log.base (Node.log r));
  check_int "restored snapshot index" snap_idx (Node.snapshot_index r);
  check_int "restored last index" (Log.last_index (Node.log n0))
    (Log.last_index (Node.log r));
  check "dump/restore roundtrips" true (Node.compare_dump (Node.dump r) d = 0);
  (* Crash-restart: the snapshot is part of the durable state and the
     commit floor must not sink below the applied (= checkpointed) prefix. *)
  Node.recover r;
  check "recovered as follower" true (Node.role r = Node.Follower);
  check_int "snapshot survives recovery" snap_idx (Node.snapshot_index r);
  check "commit floored at applied" true (Node.commit_index r >= snap_idx)

(* ------------------------------------------------------------------ *)
(* Cluster-level: catch-up via install instead of replay               *)

let workload = Service.sample (Service.spec ~read_fraction:0.5 ())

(* Mirror the CLI's chaos params (bounded queue); [Deploy] turns on
   [flow_control] because [Chaos.run] always attaches the middlebox. *)
let cluster_params ~n =
  let p = Hnode.params ~mode:Hnode.Hover_pp ~n () in
  { p with Hnode.features = { p.Hnode.features with Hnode.bound = 32 } }

(* A follower sleeps through far more load than the retention window
   holds; on restart it must come back through Install_snapshot, and the
   snapshot-aware checker must find nothing wrong. *)
let test_cluster_restart_via_install () =
  let outcome =
    Chaos.run ~params:(cluster_params ~n:5) ~rate_rps:40_000.
      ~duration:(Timebase.ms 600) ~snapshots:400
      ~schedule:
        [
          { Chaos.at = Timebase.ms 100; event = Chaos.Kill 1 };
          { Chaos.at = Timebase.ms 400; event = Chaos.Restart 1 };
        ]
      ~workload ~seed:5 ()
  in
  Alcotest.(check (list string)) "no checker violations" []
    outcome.Chaos.violations;
  check "consistent" true outcome.Chaos.consistent;
  check "caught up" true outcome.Chaos.caught_up;
  check "log compacted past the crash window" true
    (outcome.Chaos.max_log_base > 0);
  check "restart went through install, not replay" true
    (outcome.Chaos.installs >= 1)

(* PR 3's add_node catch-up, snapshot era: the newcomer joins long after
   the retention window rolled past the beginning of history, so the
   leader cannot replay it in — it must ship the image. *)
let test_add_node_catches_up_via_install () =
  let outcome =
    Chaos.run ~params:(cluster_params ~n:5) ~rate_rps:40_000.
      ~duration:(Timebase.ms 600) ~snapshots:400
      ~schedule:[ { Chaos.at = Timebase.ms 200; event = Chaos.Add_node } ]
      ~workload ~seed:6 ()
  in
  Alcotest.(check (list string)) "no checker violations" []
    outcome.Chaos.violations;
  check_int "newcomer in the final configuration" 6
    (List.length outcome.Chaos.final_members);
  check "newcomer caught up via install" true (outcome.Chaos.installs >= 1);
  check "caught up" true outcome.Chaos.caught_up;
  check "consistent" true outcome.Chaos.consistent

(* Random kill/restart/partition churn with an aggressive checkpoint
   interval: compaction and transfers happen constantly and nothing may
   break. *)
let test_chaos_with_aggressive_interval () =
  let outcome =
    Chaos.run ~params:(cluster_params ~n:5) ~rate_rps:40_000.
      ~duration:(Timebase.ms 700) ~snapshots:250
      ~workload ~seed:77 ()
  in
  Alcotest.(check (list string)) "no checker violations" []
    outcome.Chaos.violations;
  check "consistent" true outcome.Chaos.consistent;
  check "caught up" true outcome.Chaos.caught_up;
  check "exactly once" true outcome.Chaos.exactly_once_ok;
  check "compaction actually ran" true (outcome.Chaos.max_log_base > 0)

(* The preload counter is part of the durable application state: a node
   that acquires its state through Install_snapshot (here a newcomer that
   joined long after compaction rolled past history's start, so replay is
   impossible) must inherit the donor's preloaded count — otherwise its
   [executed_ops - preloaded] accounting is off by the seed size and the
   history checker's expected-ops math breaks. Restart of a preloaded
   node must likewise keep the counter. *)
let test_preloaded_rides_snapshots () =
  let params =
    let p = Hnode.params ~mode:Hnode.Hover_pp ~n:3 () in
    {
      p with
      Hnode.seed = 12;
      features =
        {
          p.Hnode.features with
          Hnode.snapshot_interval = 200;
          log_retain = 200;
        };
    }
  in
  let deploy = Deploy.create (Deploy.config params) in
  let preload =
    List.init 50 (fun i ->
        Hovercraft_apps.Op.Kv
          (Hovercraft_apps.Kvstore.Put (Printf.sprintf "seed%03d" i, "v")))
  in
  Array.iter (fun n -> Hnode.preload n preload) deploy.Deploy.nodes;
  let gen =
    Loadgen.create deploy ~clients:4 ~rate_rps:40_000. ~workload ~seed:12 ()
  in
  ignore (Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 200) ());
  (* Newcomer: joins with empty state, far behind the retention window. *)
  let id = Deploy.add_node deploy in
  ignore (Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 100) ());
  Deploy.quiesce deploy ~extra:(Timebase.ms 200) ();
  let newcomer = deploy.Deploy.nodes.(id) in
  check "newcomer came up via install" true
    (Hnode.installs_received newcomer >= 1);
  check_int "newcomer inherits the preload count" 50 (Hnode.preloaded newcomer);
  (* Crash-restart of an original member: the counter survives too. *)
  Deploy.kill_node deploy 1;
  ignore (Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 100) ());
  Deploy.restart_node deploy 1;
  Deploy.quiesce deploy ~extra:(Timebase.ms 200) ();
  check_int "restart keeps the preload count" 50
    (Hnode.preloaded deploy.Deploy.nodes.(1));
  check "replicas consistent" true (Deploy.consistent deploy)

(* The legacy (pre-snapshot) history checker scans full logs from index
   1; on a compacted log those scans would pass vacuously, so it must
   refuse loudly — and the snapshot-aware checker must handle the same
   deployment. Also pins the Hnode observability surface, under both
   ordering backends (rabia only runs under Hover). *)
let test_legacy_checker_rejects_compacted_logs () =
  List.iter
    (fun (label, mode, backend) ->
      let name what = label ^ ": " ^ what in
      let params =
        let p = Hnode.params ~mode ~backend ~n:3 () in
        {
          p with
          Hnode.seed = 9;
          features =
            {
              p.Hnode.features with
              Hnode.snapshot_interval = 200;
              log_retain = 200;
            };
        }
      in
      let deploy = Deploy.create (Deploy.config params) in
      let gen =
        Loadgen.create deploy ~clients:4 ~rate_rps:40_000. ~workload ~seed:9 ()
      in
      ignore (Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 200) ());
      Deploy.quiesce deploy ();
      let n0 = deploy.Deploy.nodes.(0) in
      check (name "node checkpointed") true (Hnode.snapshots_taken n0 > 0);
      check (name "snapshot index advanced") true (Hnode.snapshot_index n0 > 0);
      check (name "log compacted") true (Hnode.log_base n0 > 0);
      check (name "legacy checker fails fast on a compacted log") true
        (try
           ignore (Chaos.check deploy ~completed_writes:[]);
           false
         with Invalid_argument _ -> true);
      let violations, _, _, _, consistent =
        Chaos.check ~snapshots:true deploy ~completed_writes:[]
      in
      Alcotest.(check (list string))
        (name "snapshot-aware checker passes")
        [] violations;
      check (name "replicas consistent") true consistent)
    [ ("raft", Hnode.Hover_pp, Hnode.Raft); ("rabia", Hnode.Hover, Hnode.Rabia) ]

let suite =
  [
    Alcotest.test_case "compaction past crashed follower" `Quick
      test_compaction_past_crashed_follower;
    Alcotest.test_case "dropped chunk resumes at offset" `Quick
      test_dropped_chunk_resumes_at_offset;
    Alcotest.test_case "leader change resumes same-identity transfer" `Quick
      test_leader_change_resumes_same_identity;
    Alcotest.test_case "leader change restarts superseded transfer" `Quick
      test_leader_change_restarts_superseded_transfer;
    Alcotest.test_case "dump/restore/recover compacted log" `Quick
      test_dump_restore_recover_compacted;
    Alcotest.test_case "restart rejoins via install" `Slow
      test_cluster_restart_via_install;
    Alcotest.test_case "add_node catches up via install" `Slow
      test_add_node_catches_up_via_install;
    Alcotest.test_case "chaos with aggressive interval" `Slow
      test_chaos_with_aggressive_interval;
    Alcotest.test_case "preload counter rides snapshots" `Slow
      test_preloaded_rides_snapshots;
    Alcotest.test_case "legacy checker rejects compacted logs" `Quick
      test_legacy_checker_rejects_compacted_logs;
  ]
