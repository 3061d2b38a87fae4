(* Tests for the explicit-state model checker. *)

module Node = Hovercraft_raft.Node
module Types = Hovercraft_raft.Types
open Hovercraft_mc

let check = Alcotest.(check bool)

let verified = function
  | Explore.Verified _ -> true
  | Explore.Violation _ -> false

let test_bounded_raft_safe () =
  let cfg = { Model.default with max_messages = 4; allow_duplication = false } in
  check "raft safe within budget" true
    (verified (Explore.run ~max_states:40_000 cfg))

let test_bounded_hoverpp_safe () =
  let cfg =
    {
      Model.default with
      aggregated = true;
      max_messages = 4;
      allow_duplication = false;
    }
  in
  check "hovercraft++ safe within budget" true
    (verified (Explore.run ~max_states:40_000 cfg))

let test_duplication_and_drops_safe () =
  let cfg = { Model.default with aggregated = true; max_messages = 4 } in
  check "safe with duplication and drops" true
    (verified (Explore.run ~max_states:40_000 cfg))

let test_five_nodes_safe () =
  let cfg =
    { Model.default with n = 5; max_messages = 3; allow_duplication = false }
  in
  check "n=5 safe within budget" true
    (verified (Explore.run ~max_states:30_000 cfg))

(* The checker must have teeth: plant a two-leaders-per-term state and a
   diverged-committed-prefix state and confirm detection. *)
let forced_leader id n =
  let nd =
    Node.create
      {
        Node.id;
        peers = Array.init (n - 1) (fun k -> if k < id then k else k + 1);
        batch_max = 8;
        eager_commit_notify = false;
        snap_chunk_bytes = 64;
      }
      ~noop:(-1)
  in
  ignore (Node.handle nd Node.Election_timeout);
  ignore
    (Node.handle nd
       (Node.Receive
          (Types.Vote
             { term = 1; from = (if id = 0 then 1 else 0); granted = true })));
  assert (Node.role nd = Node.Leader);
  nd

let test_detects_election_violation () =
  let cfg = { Model.default with max_cmds = 0 } in
  let follower =
    Node.dump
      (Node.create
         { Node.id = 2; peers = [| 0; 1 |]; batch_max = 8; eager_commit_notify = false; snap_chunk_bytes = 64 }
         ~noop:(-1))
  in
  let bad =
    Model.of_nodes cfg
      [| Node.dump (forced_leader 0 3); Node.dump (forced_leader 1 3); follower |]
  in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  match Model.check cfg bad with
  | Error msg -> check "names election safety" true (contains msg "election")
  | Ok _ -> Alcotest.fail "planted double leader not detected"

let test_detects_commit_divergence () =
  let cfg = Model.default in
  (* Two single-node-style leaders that committed different entries at
     index 1. *)
  let mk id cmd =
    let nd = forced_leader id 3 in
    (* Force-feed a divergent committed entry. *)
    ignore (Node.handle nd (Node.Client_command cmd));
    ignore
      (Node.handle nd
         (Node.Receive
            (Types.Append_ack
               {
                 term = 1;
                 from = (if id = 0 then 1 else 0);
                 success = true;
                 seq = 1_000;
                 match_idx = 2;
                 applied_idx = 0;
               })));
    nd
  in
  (* Same term on both sides would already trip election safety; raise one
     to term 2 via a vote exchange so only the commit check can catch it. *)
  let a = mk 0 111 in
  let b = mk 1 222 in
  ignore
    (Node.handle b
       (Node.Receive
          (Types.Vote { term = 3; from = 2; granted = false })));
  ignore (Node.handle b Node.Election_timeout);
  let follower =
    Node.create
      { Node.id = 2; peers = [| 0; 1 |]; batch_max = 8; eager_commit_notify = false; snap_chunk_bytes = 64 }
      ~noop:(-1)
  in
  let bad = Model.of_nodes cfg [| Node.dump a; Node.dump b; Node.dump follower |] in
  match Model.check cfg bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "planted divergence not detected"

(* --- rabia: randomized agreement over pure instances ----------------- *)

let test_rabia_agreement () =
  List.iter
    (fun seed ->
      let cfg = { Hovercraft_mc.Rabia_check.default with seed } in
      let o = Hovercraft_mc.Rabia_check.run cfg in
      if o.Hovercraft_mc.Rabia_check.violations <> [] then
        Alcotest.failf "seed %d: %s" seed
          (String.concat "; " o.Hovercraft_mc.Rabia_check.violations);
      Alcotest.(check bool) "agreed" true o.Hovercraft_mc.Rabia_check.agreed;
      Alcotest.(check bool) "valid" true o.Hovercraft_mc.Rabia_check.valid;
      Alcotest.(check bool)
        "all decided" true o.Hovercraft_mc.Rabia_check.all_decided;
      if o.Hovercraft_mc.Rabia_check.decided <= 0 then
        Alcotest.failf "seed %d: nothing decided" seed)
    (List.init 20 (fun i -> i + 1))

let test_rabia_agreement_five_nodes () =
  let o =
    Hovercraft_mc.Rabia_check.run
      {
        Hovercraft_mc.Rabia_check.default with
        n = 5;
        cmds = 10;
        steps = 6_000;
        drop_prob = 0.15;
        recover_prob = 0.004;
        seed = 9;
      }
  in
  if o.Hovercraft_mc.Rabia_check.violations <> [] then
    Alcotest.failf "%s"
      (String.concat "; " o.Hovercraft_mc.Rabia_check.violations)

let suite =
  [
    Alcotest.test_case "bounded raft safe" `Slow test_bounded_raft_safe;
    Alcotest.test_case "rabia agreement under drop+dup+reorder+recover"
      `Quick test_rabia_agreement;
    Alcotest.test_case "rabia agreement, five nodes" `Quick
      test_rabia_agreement_five_nodes;
    Alcotest.test_case "bounded hovercraft++ safe" `Slow test_bounded_hoverpp_safe;
    Alcotest.test_case "safe with dup+drop" `Slow test_duplication_and_drops_safe;
    Alcotest.test_case "five nodes safe" `Slow test_five_nodes_safe;
    Alcotest.test_case "detects double leader" `Quick test_detects_election_violation;
    Alcotest.test_case "detects commit divergence" `Quick
      test_detects_commit_divergence;
  ]
