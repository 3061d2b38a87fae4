(* Unit and property tests for the pure Raft core. *)

module Node = Hovercraft_raft.Node
module Log = Hovercraft_raft.Log
module Types = Hovercraft_raft.Types
module H = Raft_harness
open Hovercraft_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_initial_state () =
  let t = H.create ~n:3 ~seed:1 () in
  for i = 0 to 2 do
    check "starts follower" true (Node.role (H.node t i) = Node.Follower);
    check_int "term 0" 0 (Node.term (H.node t i));
    check_int "empty log" 0 (Log.last_index (Node.log (H.node t i)))
  done

let test_single_node_cluster () =
  let t = H.create ~n:1 ~seed:2 () in
  check "elected alone" true (H.elect t 0);
  let c = H.commit_via t 0 in
  let nd = H.node t 0 in
  check "committed own command" true (Node.commit_index nd >= 2);
  let found = ref false in
  Log.iter_range (Node.log nd) ~lo:1 ~hi:(Log.last_index (Node.log nd))
    (fun _ e -> if e.Types.cmd = c then found := true);
  check "command in log" true !found

let test_basic_election () =
  let t = H.create ~n:3 ~seed:3 () in
  check "node0 elected" true (H.elect t 0);
  check_int "term bumped" 1 (Node.term (H.node t 0));
  for i = 1 to 2 do
    check "others followers" true (Node.role (H.node t i) = Node.Follower);
    Alcotest.(check (option int))
      "leader hint set" (Some 0)
      (Node.leader_hint (H.node t i))
  done

let test_no_election_without_majority () =
  let t = H.create ~n:3 ~seed:4 () in
  H.crash t 1;
  H.crash t 2;
  H.timeout t 0;
  H.drain t;
  check "candidate stuck" true (Node.role (H.node t 0) = Node.Candidate)

let test_replication_and_commit () =
  let t = H.create ~n:3 ~seed:5 () in
  ignore (H.elect t 0);
  let cmds = List.init 10 (fun _ -> H.commit_via t 0) in
  let leader = H.node t 0 in
  check "all committed" true (Node.commit_index leader >= 10);
  (* Every node's log contains the commands in the same order. *)
  let extract i =
    let log = Node.log (H.node t i) in
    let out = ref [] in
    Log.iter_range log ~lo:1 ~hi:(Log.last_index log) (fun _ e ->
        if e.Types.cmd >= 0 then out := e.Types.cmd :: !out);
    List.rev !out
  in
  let reference = extract 0 in
  check "all cmds present" true (List.for_all (fun c -> List.mem c reference) cmds);
  check "follower1 log equal" true (extract 1 = reference);
  check "follower2 log equal" true (extract 2 = reference)

let test_commit_propagates_to_followers () =
  let t = H.create ~n:3 ~seed:6 () in
  ignore (H.elect t 0);
  ignore (H.commit_via t 0);
  for i = 1 to 2 do
    check "follower commit caught up" true
      (Node.commit_index (H.node t i) = Node.commit_index (H.node t 0))
  done

let test_stale_leader_steps_down () =
  let t = H.create ~n:3 ~seed:7 () in
  ignore (H.elect t 0);
  ignore (H.elect t 1);
  (* Node 1 is now leader in a later term; node 0 must have stepped down. *)
  check "old leader stepped down" true (Node.role (H.node t 0) = Node.Follower);
  check "new leader" true (Node.role (H.node t 1) = Node.Leader);
  check "terms ordered" true (Node.term (H.node t 0) = Node.term (H.node t 1))

let test_one_vote_per_term () =
  let t = H.create ~n:5 ~seed:8 () in
  (* Two candidates time out before any message is delivered: voters may
     grant only one of them their vote for this term. *)
  H.timeout t 0;
  H.timeout t 1;
  H.drain t;
  H.check t (* election safety is asserted inside *)

let test_log_up_to_date_check () =
  let t = H.create ~n:3 ~seed:9 () in
  ignore (H.elect t 0);
  ignore (H.commit_via t 0);
  ignore (H.commit_via t 0);
  (* Crash the leader; a follower holding the committed entries must win
     and keep them (leader completeness). *)
  let committed = Node.commit_index (H.node t 1) in
  H.crash t 0;
  check "follower1 elected" true (H.elect t 1);
  let log = Node.log (H.node t 1) in
  check "committed entries survive" true (Log.last_index log >= committed)

let test_conflict_resolution () =
  let t = H.create ~n:3 ~seed:10 () in
  ignore (H.elect t 0);
  ignore (H.commit_via t 0);
  (* Leader 0 appends entries that never replicate (we discard the bag):
     divergent suffix on node 0 only. *)
  ignore (H.client_cmd t 0);
  ignore (H.client_cmd t 0);
  t.H.bag <- [];
  (* New leader in a higher term appends different entries and replicates
     them everywhere, including to node 0, whose suffix must be
     truncated. *)
  ignore (H.elect t 1);
  let c = H.commit_via t 1 in
  H.heartbeat t 1;
  H.drain t;
  let log0 = Node.log (H.node t 0) and log1 = Node.log (H.node t 1) in
  check_int "logs converge in length" (Log.last_index log1) (Log.last_index log0);
  let found = ref false in
  Log.iter_range log0 ~lo:1 ~hi:(Log.last_index log0) (fun _ e ->
      if e.Types.cmd = c then found := true);
  check "new leader's entry adopted" true !found

let test_old_term_entries_commit_via_noop () =
  let t = H.create ~n:3 ~seed:11 () in
  ignore (H.elect t 0);
  (* Replicate but never commit: drop the final round by crashing the
     leader right after the entries reach one follower. *)
  ignore (H.client_cmd t 0);
  H.drain t;
  H.crash t 0;
  ignore (H.elect t 1);
  H.heartbeat t 1;
  H.drain t;
  (* The new leader's no-op committed, and with it the inherited entry. *)
  let nd = H.node t 1 in
  check "inherited entry committed" true
    (Node.commit_index nd = Log.last_index (Node.log nd))

let test_applied_index_piggyback () =
  let t = H.create ~n:3 ~seed:12 () in
  ignore (H.elect t 0);
  ignore (H.commit_via t 0);
  H.heartbeat t 0;
  H.drain t;
  let leader = H.node t 0 in
  check "leader learned follower applied" true
    (Node.applied_index_of leader 1 >= 1 && Node.applied_index_of leader 2 >= 1)

let test_announce_gate_blocks () =
  let t = H.create ~n:3 ~seed:13 () in
  ignore (H.elect t 0);
  let leader = H.node t 0 in
  let gate_open = ref false in
  Node.set_announce_gate leader (Some (fun _ _ -> !gate_open));
  let before = Node.commit_index leader in
  ignore (H.client_cmd t 0);
  H.heartbeat t 0;
  H.drain t;
  check_int "nothing commits while gated" before (Node.commit_index leader);
  gate_open := true;
  H.heartbeat t 0;
  H.drain t;
  check "commits once gate opens" true (Node.commit_index leader > before)

let test_aggregated_send () =
  let nd =
    Node.create
      { Node.id = 0; peers = [| 1; 2 |]; batch_max = 8; eager_commit_notify = false; snap_chunk_bytes = 64 }
      ~noop:(-1)
  in
  ignore (Node.handle nd Node.Election_timeout);
  (* Fake the votes. *)
  ignore
    (Node.handle nd (Node.Receive (Types.Vote { term = 1; from = 1; granted = true })));
  assert (Node.role nd = Node.Leader);
  Node.set_aggregated nd true;
  let actions = Node.handle nd (Node.Client_command 7) in
  let agg_sends =
    List.filter (function Node.Send_aggregate _ -> true | _ -> false) actions
  in
  let direct_sends =
    List.filter (function Node.Send _ -> true | _ -> false) actions
  in
  check_int "one aggregated AE" 1 (List.length agg_sends);
  check_int "no direct AEs when in sync" 0 (List.length direct_sends)

let test_agg_failure_ack_triggers_direct () =
  let nd =
    Node.create
      { Node.id = 0; peers = [| 1; 2 |]; batch_max = 8; eager_commit_notify = false; snap_chunk_bytes = 64 }
      ~noop:(-1)
  in
  ignore (Node.handle nd Node.Election_timeout);
  ignore
    (Node.handle nd (Node.Receive (Types.Vote { term = 1; from = 1; granted = true })));
  Node.set_aggregated nd true;
  ignore (Node.handle nd (Node.Client_command 7));
  (* Follower 2 reports a prev mismatch with a fresh sequence number (as it
     would after an aggregator-fanned AE): leader must fall back to
     point-to-point with it. *)
  let actions =
    Node.handle nd
      (Node.Receive
         (Types.Append_ack
            {
              term = 1;
              from = 2;
              success = false;
              seq = 1_000;
              match_idx = 1;
              applied_idx = 0;
            }))
  in
  let direct_to_2 =
    List.exists
      (function Node.Send (2, Types.Append_entries _) -> true | _ -> false)
      actions
  in
  check "direct recovery AE sent" true direct_to_2

let test_duplicate_acks_no_stream_storm () =
  let t = H.create ~n:3 ~seed:14 () in
  ignore (H.elect t 0);
  ignore (H.commit_via t 0);
  (* Force a retransmission (heartbeat) so duplicate acks exist, then count
     the AEs generated while draining: each peer gets at most one per ack
     it sent. *)
  H.heartbeat t 0;
  H.heartbeat t 0;
  let before = List.length t.H.bag in
  H.drain t;
  check "bag drained" true (List.length t.H.bag = 0);
  check "bounded traffic" true (before < 32)

(* --- property tests ------------------------------------------------ *)

(* A random adversarial schedule: interleaves client commands, timeouts,
   heartbeats, message deliveries with drops and duplication, and up to f
   crashes. The harness asserts election safety, log matching and commit
   immutability after every delivery. *)
let random_schedule_prop (n, seed, steps) =
  let t = H.create ~n ~seed () in
  let rng = Rng.create (seed * 31) in
  let f = (n - 1) / 2 in
  let crashes = ref 0 in
  (try
     for _ = 1 to steps do
       (match Rng.int rng 10 with
       | 0 | 1 -> H.timeout t (Rng.int rng n)
       | 2 | 3 -> H.heartbeat t (Rng.int rng n)
       | 4 -> ignore (H.client_cmd t (Rng.int rng n))
       | 5 when !crashes < f ->
           let victim = Rng.int rng n in
           if not (H.crashed t victim) then begin
             H.crash t victim;
             incr crashes
           end
       | _ -> ignore (H.step_network ~drop:0.1 ~dup:0.1 t));
       H.check t
     done;
     (* Quiesce: stop the adversary, run elections and drain reliably. *)
     for i = 0 to n - 1 do
       H.timeout t i;
       H.drain t
     done;
     true
   with H.Violation msg -> Alcotest.failf "safety violation: %s" msg)

let prop_random_schedules =
  QCheck.Test.make ~name:"raft safety under adversarial schedules" ~count:60
    QCheck.(
      triple (oneofl [ 3; 5 ]) (int_range 1 100_000) (int_range 50 400))
    random_schedule_prop

(* After any adversarial run with a live majority, repeatedly timing out a
   fixed live node and draining must yield a leader that can commit new
   commands (liveness smoke). *)
let liveness_prop (seed, steps) =
  let n = 3 in
  let t = H.create ~n ~seed () in
  let rng = Rng.create (seed * 17) in
  for _ = 1 to steps do
    (match Rng.int rng 8 with
    | 0 -> H.timeout t (Rng.int rng n)
    | 1 -> ignore (H.client_cmd t (Rng.int rng n))
    | _ -> ignore (H.step_network ~drop:0.2 ~dup:0.05 t));
    H.check t
  done;
  t.H.bag <- [];
  (* Deterministic recovery: rotate elections until some node wins (a node
     with a stale log can legitimately never win, so try them all). *)
  let rec settle tries =
    if tries = 0 then None
    else begin
      let candidate = tries mod n in
      H.timeout t candidate;
      H.drain t;
      if Node.role (H.node t candidate) = Node.Leader then Some candidate
      else settle (tries - 1)
    end
  in
  (* A leftover candidate from the chaos phase can still depose the first
     settled leader (Raft without pre-vote admits disruptive servers), so
     liveness is: repeated settle-and-commit attempts eventually succeed. *)
  let rec attempt tries =
    if tries = 0 then false
    else
      match settle 12 with
      | None -> false
      | Some l ->
          let before = Node.commit_index (H.node t l) in
          ignore (H.commit_via t l);
          if
            Node.role (H.node t l) = Node.Leader
            && Node.commit_index (H.node t l) > before
          then true
          else attempt (tries - 1)
  in
  if not (attempt 5) then Alcotest.fail "no leader could commit after chaos";
  true

let prop_liveness =
  QCheck.Test.make ~name:"raft recovers and commits after chaos" ~count:40
    QCheck.(pair (int_range 1 100_000) (int_range 20 200))
    liveness_prop

(* --- log compaction -------------------------------------------------- *)

let test_log_compaction_unit () =
  let log = Log.create () in
  for i = 1 to 10 do
    ignore (Log.append log { Types.term = (i + 4) / 5; cmd = i })
  done;
  Log.compact_to log 4;
  check_int "base" 4 (Log.base log);
  check_int "first index" 5 (Log.first_index log);
  check_int "last index stable" 10 (Log.last_index log);
  Alcotest.(check (option int)) "base term retained" (Some 1) (Log.term_at log 4);
  Alcotest.(check (option int)) "below base unknown" None (Log.term_at log 3);
  check_int "entries still addressable" 7 (Log.get log 7).Types.cmd;
  Log.compact_to log 4;
  check_int "idempotent" 4 (Log.base log);
  Alcotest.check_raises "cannot truncate compacted prefix"
    (Invalid_argument "Log.truncate_from: cannot truncate into the compacted prefix")
    (fun () -> Log.truncate_from log 3)

let test_compaction_respects_followers () =
  let t = H.create ~n:3 ~seed:60 () in
  ignore (H.elect t 0);
  for _ = 1 to 20 do
    ignore (H.commit_via t 0)
  done;
  let leader = H.node t 0 in
  (* Everyone applied: bound covers nearly the whole log. *)
  check "bound advanced" true (Node.compaction_bound leader > 10);
  let base = Node.compact leader ~retain:4 in
  check "compacted" true (base > 0);
  check_int "retained suffix" 4 (Log.last_index (Node.log leader) - base);
  (* Replication still works after compaction. *)
  let before = Node.commit_index leader in
  ignore (H.commit_via t 0);
  check "commits after compaction" true (Node.commit_index leader > before);
  H.check t

let test_compaction_blocked_by_lagging_follower () =
  let t = H.create ~n:3 ~seed:61 () in
  ignore (H.elect t 0);
  ignore (H.commit_via t 0);
  (* Partition follower 2 (drop everything it would receive). *)
  H.crash t 2;
  for _ = 1 to 5 do
    ignore (H.commit_via t 0)
  done;
  let leader = H.node t 0 in
  (* The dead follower's match pins the bound at its last ack. *)
  check "bound pinned by lagging follower" true
    (Node.compaction_bound leader <= Node.match_index_of leader 2 + 1)

let compaction_suite =
  [
    Alcotest.test_case "log compaction unit" `Quick test_log_compaction_unit;
    Alcotest.test_case "compaction respects followers" `Quick
      test_compaction_respects_followers;
    Alcotest.test_case "compaction blocked by lagging follower" `Quick
      test_compaction_blocked_by_lagging_follower;
  ]


(* Property: compaction is invisible above the base — slices, terms and
   commit behaviour are unchanged for retained indices. *)
let prop_compaction_transparent =
  QCheck.Test.make ~name:"log compaction preserves retained entries" ~count:200
    QCheck.(pair (int_range 1 60) (int_range 0 60))
    (fun (n_entries, cut) ->
      let log = Log.create () in
      for i = 1 to n_entries do
        ignore (Log.append log { Types.term = 1 + (i / 7); cmd = i })
      done;
      let cut = min cut n_entries in
      let before =
        Array.to_list (Log.slice log ~lo:(cut + 1) ~hi:n_entries)
      in
      let terms_before =
        List.init (n_entries - cut) (fun k -> Log.term_at log (cut + 1 + k))
      in
      Log.compact_to log cut;
      let after = Array.to_list (Log.slice log ~lo:(cut + 1) ~hi:n_entries) in
      let terms_after =
        List.init (n_entries - cut) (fun k -> Log.term_at log (cut + 1 + k))
      in
      Log.base log = cut && before = after && terms_before = terms_after
      && Log.last_index log = n_entries)

(* Property: after any reliable-network run, periodic compaction on every
   node never breaks replication or safety. *)
let prop_compaction_under_load =
  QCheck.Test.make ~name:"compaction composes with replication" ~count:50
    QCheck.(pair (int_range 1 10_000) (int_range 5 40))
    (fun (seed, cmds) ->
      let t = H.create ~n:3 ~seed () in
      ignore (H.elect t 0);
      for i = 1 to cmds do
        ignore (H.commit_via t 0);
        if i mod 5 = 0 then
          for j = 0 to 2 do
            ignore (Node.compact (H.node t j) ~retain:3)
          done
      done;
      H.check t;
      Node.commit_index (H.node t 0) >= cmds)

let compaction_props =
  [
    QCheck_alcotest.to_alcotest prop_compaction_transparent;
    QCheck_alcotest.to_alcotest prop_compaction_under_load;
  ]

(* Leader-side peer state is indexed by node id: grow {0,1,2} by 5, then
   drop 1, and the sends, commits and per-peer match/applied knowledge
   must come out exactly as with the id-keyed table it replaced (the
   expected trace was recorded from it). The state survives a dump and
   restore, the model checker's round trip. *)
let test_sparse_peer_ids () =
  let cfg =
    { Node.id = 0; peers = [| 1; 2 |]; batch_max = 4; eager_commit_notify = true;
      snap_chunk_bytes = 64 }
  in
  let nd = Node.create cfg ~noop:0 in
  let decode = function
    | 1000 -> Some [| 0; 1; 2; 5 |]
    | 1001 -> Some [| 0; 2; 5 |]
    | _ -> None
  in
  Node.set_config_decoder nd decode;
  let buf = Buffer.create 256 in
  let seq = ref 1_000_000 in
  let feed input =
    List.iter
      (function
        | Node.Send (dst, _) -> Buffer.add_string buf (Printf.sprintf " >%d" dst)
        | Node.Commit_advanced c -> Buffer.add_string buf (Printf.sprintf " c%d" c)
        | Node.Reject_command _ -> Buffer.add_string buf " rej"
        | _ -> ())
      (Node.handle nd input)
  in
  let ack from m =
    incr seq;
    feed
      (Node.Receive
         (Types.Append_ack
            { term = Node.term nd; from; success = true; seq = !seq; match_idx = m;
              applied_idx = m - 1 }))
  in
  let state name =
    Buffer.add_string buf (" |" ^ name);
    List.iter
      (fun p ->
        Buffer.add_string buf
          (Printf.sprintf " %d:%d/%d" p (Node.match_index_of nd p) (Node.applied_index_of nd p)))
      [ 0; 1; 2; 3; 4; 5; 6 ];
    Buffer.add_string buf
      (Printf.sprintf " members=%s;"
         (String.concat "," (List.map string_of_int (Node.members nd))))
  in
  feed Node.Election_timeout;
  feed (Node.Receive (Types.Vote { term = 1; from = 2; granted = true }));
  List.iter (fun c -> feed (Node.Client_command c)) [ 1; 2; 3 ];
  ack 1 3;
  ack 2 4;
  state "start";
  feed (Node.Client_command 1000);
  feed Node.Heartbeat_timeout;
  ack 5 5;
  ack 2 5;
  feed (Node.Client_command 4);
  state "add5";
  feed (Node.Client_command 1001);
  feed Node.Heartbeat_timeout;
  ack 5 7;
  ack 2 7;
  ack 1 7;
  feed (Node.Client_command 5);
  feed Node.Heartbeat_timeout;
  state "rm1";
  Alcotest.(check string)
    "trace"
    " >1 >2 >1 >2 c3 >1 >2 >1 c4 >1 >2 |start 0:0/0 1:3/2 2:4/3 3:0/0 4:0/0 \
     5:0/0 6:0/0 members=0,1,2; >2 >1 >2 >5 c5 >1 >2 >5 >2 >5 |add5 0:0/0 \
     1:3/2 2:5/4 3:0/0 4:0/0 5:5/4 6:0/0 members=0,1,2,5; >2 >5 c7 >2 >5 >2 \
     >5 >2 >5 |rm1 0:0/0 1:0/0 2:7/6 3:0/0 4:0/0 5:7/6 6:0/0 members=0,2,5;"
    (Buffer.contents buf);
  let d = Node.dump nd in
  check_int "dump round-trips" 0 (Node.compare_dump (Node.dump (Node.restore cfg ~noop:0 d)) d)

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "single-node cluster" `Quick test_single_node_cluster;
    Alcotest.test_case "basic election" `Quick test_basic_election;
    Alcotest.test_case "no majority, no leader" `Quick
      test_no_election_without_majority;
    Alcotest.test_case "replication and commit" `Quick test_replication_and_commit;
    Alcotest.test_case "commit propagates" `Quick test_commit_propagates_to_followers;
    Alcotest.test_case "stale leader steps down" `Quick test_stale_leader_steps_down;
    Alcotest.test_case "one vote per term" `Quick test_one_vote_per_term;
    Alcotest.test_case "leader completeness" `Quick test_log_up_to_date_check;
    Alcotest.test_case "conflict resolution" `Quick test_conflict_resolution;
    Alcotest.test_case "old-term entries commit via no-op" `Quick
      test_old_term_entries_commit_via_noop;
    Alcotest.test_case "applied index piggyback" `Quick test_applied_index_piggyback;
    Alcotest.test_case "announce gate blocks replication" `Quick
      test_announce_gate_blocks;
    Alcotest.test_case "aggregated replication sends one AE" `Quick
      test_aggregated_send;
    Alcotest.test_case "agg failure ack falls back to direct" `Quick
      test_agg_failure_ack_triggers_direct;
    Alcotest.test_case "duplicate acks bounded" `Quick
      test_duplicate_acks_no_stream_storm;
    Alcotest.test_case "peer state with non-contiguous ids" `Quick test_sparse_peer_ids;
    QCheck_alcotest.to_alcotest prop_random_schedules;
    QCheck_alcotest.to_alcotest prop_liveness;
  ]
  @ compaction_suite @ compaction_props

