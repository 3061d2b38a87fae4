(* Tests for the HovercRaft core: unordered set, replier selection, flow
   control, the in-network aggregator, protocol sizing, and end-to-end
   integration of full clusters. *)

open Hovercraft_sim
open Hovercraft_r2p2
open Hovercraft_core
open Hovercraft_cluster
module Addr = Hovercraft_net.Addr
module Fabric = Hovercraft_net.Fabric
module Op = Hovercraft_apps.Op
module K = Hovercraft_apps.Kvstore
module Service = Hovercraft_apps.Service
module Rtypes = Hovercraft_raft.Types

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rid ?(id = 0) ?(node = 0) () =
  { R2p2.id; src_addr = Addr.Client node; src_port = 1000 }

(* --- unordered -------------------------------------------------------- *)

let make_store ?(gc_unordered = 100) ?(gc_ordered = 200) clock =
  Unordered.create ~now:(fun () -> !clock) ~gc_unordered ~gc_ordered ()

let test_unordered_add_find () =
  let clock = ref 0 in
  let s = make_store clock in
  Unordered.add s (rid ()) Op.Nop;
  check "found" true (Unordered.find s (rid ()) <> None);
  check "missing" true (Unordered.find s (rid ~id:9 ()) = None);
  check_int "size" 1 (Unordered.size s);
  check_int "unordered count" 1 (Unordered.unordered_count s)

let test_unordered_mark_and_remove () =
  let clock = ref 0 in
  let s = make_store clock in
  check "mark missing fails" false (Unordered.mark_ordered s (rid ()));
  Unordered.add s (rid ()) Op.Nop;
  check "mark present" true (Unordered.mark_ordered s (rid ()));
  check_int "no longer unordered" 0 (Unordered.unordered_count s);
  check "still findable (recovery material)" true (Unordered.find s (rid ()) <> None);
  Unordered.remove s (rid ());
  check "removed" true (Unordered.find s (rid ()) = None)

let test_unordered_gc_windows () =
  let clock = ref 0 in
  let s = make_store ~gc_unordered:100 ~gc_ordered:300 clock in
  Unordered.add s (rid ~id:1 ()) Op.Nop;
  Unordered.add s (rid ~id:2 ()) Op.Nop;
  ignore (Unordered.mark_ordered s (rid ~id:2 ()));
  clock := 150;
  check_int "unordered collected" 1 (Unordered.gc s);
  check "ordered survives short window" true (Unordered.find s (rid ~id:2 ()) <> None);
  clock := 600;
  check_int "ordered collected eventually" 1 (Unordered.gc s)

let test_unordered_ingest_order () =
  let clock = ref 0 in
  let s = make_store clock in
  Unordered.add s (rid ~id:3 ()) Op.Nop;
  Unordered.add s (rid ~id:1 ()) Op.Nop;
  Unordered.add s (rid ~id:2 ()) Op.Nop;
  ignore (Unordered.mark_ordered s (rid ~id:1 ()));
  let ids = List.map (fun (r, _) -> r.R2p2.id) (Unordered.unordered_bindings s) in
  Alcotest.(check (list int)) "arrival order, ordered excluded" [ 3; 2 ] ids

let test_unordered_ingest_reports_ordered () =
  let clock = ref 0 in
  let s = make_store clock in
  check "new body" false (Unordered.ingest s (rid ()) Op.Nop);
  check "unordered duplicate" false (Unordered.ingest s (rid ()) Op.Nop);
  ignore (Unordered.mark_ordered s (rid ()));
  check "ordered duplicate" true (Unordered.ingest s (rid ()) Op.Nop);
  check "stays ordered" true (Unordered.status s (rid ()) = `Ordered)

let test_unordered_readd_keeps_ordered () =
  let clock = ref 0 in
  let s = make_store clock in
  Unordered.add s (rid ()) Op.Nop;
  ignore (Unordered.mark_ordered s (rid ()));
  Unordered.add s (rid ()) Op.Nop;
  check_int "duplicate multicast keeps ordered state" 0 (Unordered.unordered_count s)

(* --- replier ----------------------------------------------------------- *)

let test_replier_bound_and_applied () =
  let r = Replier.create Jbsq.Jbsq ~bound:2 ~nodes:[ 0; 1 ] ~rng:(Rng.create 1) in
  Replier.assign r ~node:0 ~index:1;
  Replier.assign r ~node:0 ~index:2;
  check_int "depth" 2 (Replier.depth r 0);
  (* Node 0 full: picks must go to node 1. *)
  for _ = 1 to 10 do
    Alcotest.(check (option int)) "full node skipped" (Some 1) (Replier.pick r ())
  done;
  Replier.note_applied r ~node:0 ~applied:1;
  check_int "applied prunes queue" 1 (Replier.depth r 0)

let test_replier_dead_node_bounded () =
  (* A dead node's applied never advances: it receives at most [bound]
     assignments — the paper's at-most-B-lost-replies guarantee (§3.4). *)
  let bound = 4 in
  let r = Replier.create Jbsq.Jbsq ~bound ~nodes:[ 0; 1; 2 ] ~rng:(Rng.create 2) in
  let assigned_to_dead = ref 0 in
  let idx = ref 0 in
  for _ = 1 to 1000 do
    match Replier.pick r () with
    | Some node ->
        incr idx;
        Replier.assign r ~node ~index:!idx;
        if node = 0 then incr assigned_to_dead
        else Replier.note_applied r ~node ~applied:!idx
    | None -> ()
  done;
  check "dead node capped at bound" true (!assigned_to_dead <= bound)

let test_replier_reset () =
  let r = Replier.create Jbsq.Jbsq ~bound:2 ~nodes:[ 0; 1 ] ~rng:(Rng.create 3) in
  Replier.assign r ~node:0 ~index:5;
  Replier.reset r;
  check_int "depths cleared" 0 (Replier.depth r 0);
  check "assign restarts" true (Replier.pick r () <> None);
  Replier.assign r ~node:0 ~index:1

let test_replier_assign_monotone () =
  let r = Replier.create Jbsq.Jbsq ~bound:8 ~nodes:[ 0 ] ~rng:(Rng.create 4) in
  Replier.assign r ~node:0 ~index:5;
  Alcotest.check_raises "indices must increase"
    (Invalid_argument "Replier.assign: indices must be increasing per node")
    (fun () -> Replier.assign r ~node:0 ~index:5)

(* Per-node state is indexed by node id: a membership that skips ids
   (grow {0,1,2} by 5, then drop 1) must pick, prune and forget exactly
   as the id-keyed table it replaced. The expected traces were recorded
   from that table (the last two phases again once nodes could no longer
   be excluded by hand): each phase lists its picks ("-" when nobody is
   eligible), then every id's applied index and queue depth. *)
let replier_trace policy =
  let r = Replier.create policy ~bound:3 ~nodes:[ 2; 0; 1 ] ~rng:(Rng.create 7) in
  let buf = Buffer.create 256 in
  let idx = ref 0 in
  let phase name steps =
    Buffer.add_string buf name;
    for s = 1 to steps do
      (match Replier.pick r () with
      | Some n ->
          incr idx;
          Replier.assign r ~node:n ~index:!idx;
          Buffer.add_string buf (Printf.sprintf " %d" n)
      | None -> Buffer.add_string buf " -");
      if s mod 3 = 0 then
        List.iter
          (fun n -> Replier.note_applied r ~node:n ~applied:(!idx - 2 - n))
          (Replier.nodes r)
    done;
    List.iter
      (fun n ->
        Buffer.add_string buf
          (Printf.sprintf " [%d:%d/%d]" n (Replier.applied_of r n) (Replier.depth r n)))
      [ 0; 1; 2; 3; 4; 5; 6 ];
    Buffer.add_char buf ';'
  in
  phase "start" 10;
  Replier.set_nodes r [ 0; 1; 2; 5 ];
  phase " add5" 12;
  Replier.set_nodes r [ 5; 2; 0 ];
  phase " rm1" 12;
  Replier.reset r;
  phase " reset" 6;
  Buffer.contents buf

let test_replier_sparse_ids () =
  Alcotest.(check string)
    "jbsq"
    "start 1 2 0 2 1 0 1 0 2 1 [0:7/1] [1:6/2] [2:5/1] [3:0/0] [4:0/0] [5:0/0] \
     [6:0/0]; add5 5 2 5 0 1 1 0 2 2 0 1 5 [0:20/0] [1:19/1] [2:18/1] [3:0/0] \
     [4:0/0] [5:15/1] [6:0/0]; rm1 0 5 2 0 2 0 0 2 0 5 0 2 [0:32/1] [1:0/0] \
     [2:30/1] [3:0/0] [4:0/0] [5:27/1] [6:0/0]; reset 2 0 5 2 5 0 [0:38/1] \
     [1:0/0] [2:36/1] [3:0/0] [4:0/0] [5:33/2] [6:0/0];"
    (replier_trace Jbsq.Jbsq);
  Alcotest.(check string)
    "random"
    "start 1 0 2 2 1 0 1 0 0 1 [0:7/2] [1:6/2] [2:5/0] [3:0/0] [4:0/0] [5:0/0] \
     [6:0/0]; add5 1 2 5 0 2 2 0 2 1 2 0 5 [0:20/1] [1:19/0] [2:18/1] [3:0/0] \
     [4:0/0] [5:15/1] [6:0/0]; rm1 5 5 2 2 2 0 0 0 - 2 2 5 [0:31/0] [1:0/0] \
     [2:29/2] [3:0/0] [4:0/0] [5:26/1] [6:0/0]; reset 0 2 2 2 0 5 [0:37/1] \
     [1:0/0] [2:35/2] [3:0/0] [4:0/0] [5:32/1] [6:0/0];"
    (replier_trace Jbsq.Random_choice)

(* --- protocol sizing ---------------------------------------------------- *)

let entry op =
  { Rtypes.term = 1; cmd = Protocol.client_cmd ~rid:(rid ()) ~at:0 op }

let test_protocol_ae_bytes () =
  let op = Op.Synth { cost = 0; read_only = false; req_bytes = 512; rep_bytes = 8 } in
  let entries = [| entry op; entry op |] in
  let with_b = Protocol.ae_bytes ~with_bodies:true entries in
  let without = Protocol.ae_bytes ~with_bodies:false entries in
  check_int "metadata-only AE is fixed cost"
    (R2p2.header_bytes + 32 + (2 * Protocol.meta_wire_bytes))
    without;
  check_int "vanilla AE pays the bodies" (without + 1024) with_b

let test_protocol_meta () =
  let op = Op.Kv (K.Get "x") in
  let cmd = Protocol.client_cmd ~rid:(rid ()) ~at:7 op in
  check "read-only derived" true cmd.Protocol.meta.read_only;
  check_int "stamped" 7 cmd.Protocol.meta.ordered_at;
  check_int "noop unstamped" 0 Protocol.internal_noop.Protocol.meta.ordered_at;
  check_int "replier unassigned" (-1) cmd.Protocol.meta.replier;
  check "not internal" false cmd.Protocol.meta.internal;
  check "noop internal" true Protocol.internal_noop.Protocol.meta.internal

let test_protocol_request_bytes () =
  let op = Op.Synth { cost = 0; read_only = false; req_bytes = 100; rep_bytes = 8 } in
  let p = Protocol.Request { rid = rid (); policy = R2p2.Replicated_req; op } in
  check_int "request = header + body" (R2p2.header_bytes + 100)
    (Protocol.payload_bytes ~with_bodies:false p)

(* --- flow control -------------------------------------------------------- *)

let test_flow_control_caps () =
  let e = Engine.create () in
  let fabric = Fabric.create e () in
  let fc = Flow_control.create e fabric ~cap:2 ~group:9 ~rate_gbps:100. in
  let got_nacks = ref 0 and got_fwd = ref 0 in
  let client =
    Fabric.attach fabric ~addr:(Addr.Client 0) ~rate_gbps:10. ~handler:(fun pkt ->
        match pkt.Fabric.payload with
        | Protocol.Nack _ -> incr got_nacks
        | _ -> ())
  in
  let _member =
    Fabric.attach fabric ~addr:(Addr.Node 0) ~rate_gbps:10. ~handler:(fun pkt ->
        match pkt.Fabric.payload with
        | Protocol.Request _ -> incr got_fwd
        | _ -> ())
  in
  Fabric.join fabric ~group:9 (Addr.Node 0);
  let send_req id =
    let op = Op.Nop in
    Fabric.send fabric client ~dst:Addr.Middlebox ~bytes:32
      (Protocol.Request { rid = rid ~id (); policy = R2p2.Replicated_req; op })
  in
  send_req 1;
  send_req 2;
  send_req 3;
  Engine.run e;
  check_int "two admitted" 2 !got_fwd;
  check_int "third NACKed" 1 !got_nacks;
  check_int "inflight" 2 (Flow_control.inflight fc);
  (* Feedback opens the window again. *)
  Fabric.send fabric client ~dst:Addr.Middlebox ~bytes:16
    (Protocol.Feedback { rid = rid ~id:1 () });
  Engine.run e;
  check_int "feedback decrements" 1 (Flow_control.inflight fc);
  send_req 4;
  Engine.run e;
  check_int "admitted after feedback" 3 !got_fwd

(* --- aggregator ------------------------------------------------------------ *)

let ae ~term ~leader ~prev ~len ~commit ~seq =
  Protocol.Raft
    (Rtypes.Append_entries
       {
         term;
         leader;
         prev_idx = prev;
         prev_term = (if prev = 0 then 0 else term);
         entries = Array.init len (fun _ -> entry Op.Nop);
         commit;
         seq;
       })

let ack ~term ~from ~match_idx ~applied ~seq =
  Protocol.Raft
    (Rtypes.Append_ack
       { term; from; success = true; seq; match_idx; applied_idx = applied })

type agg_env = {
  engine : Engine.t;
  agg : Aggregator.t;
  leader_got : Protocol.payload list ref;
  follower_got : Protocol.payload list ref array;
}

let make_agg_env n =
  let engine = Engine.create () in
  let fabric = Fabric.create engine () in
  let agg =
    Aggregator.create engine fabric
      ~members:(List.init n Fun.id)
      ~cluster_group:0 ~followers_group:1 ~rate_gbps:100.
  in
  let leader_got = ref [] in
  let follower_got = Array.init n (fun _ -> ref []) in
  let leader_port =
    Fabric.attach fabric ~addr:(Addr.Node 0) ~rate_gbps:10. ~handler:(fun pkt ->
        leader_got := pkt.Fabric.payload :: !leader_got)
  in
  for i = 1 to n - 1 do
    let sink = follower_got.(i) in
    ignore
      (Fabric.attach fabric ~addr:(Addr.Node i) ~rate_gbps:10.
         ~handler:(fun pkt -> sink := pkt.Fabric.payload :: !sink))
  done;
  for i = 0 to n - 1 do
    Fabric.join fabric ~group:0 (Addr.Node i)
  done;
  let env = { engine; agg; leader_got; follower_got } in
  let send payload =
    Fabric.send fabric leader_port ~dst:Addr.Netagg ~bytes:64 payload
  in
  (env, send)

let count_ae payloads =
  List.length
    (List.filter
       (function Protocol.Raft (Rtypes.Append_entries _) -> true | _ -> false)
       payloads)

let count_commits payloads =
  List.length
    (List.filter (function Protocol.Agg_commit _ -> true | _ -> false) payloads)

let test_aggregator_fanout_and_commit () =
  let env, send = make_agg_env 3 in
  send (ae ~term:1 ~leader:0 ~prev:0 ~len:1 ~commit:0 ~seq:1);
  Engine.run env.engine;
  check_int "fanned to follower1" 1 (count_ae !(env.follower_got.(1)));
  check_int "fanned to follower2" 1 (count_ae !(env.follower_got.(2)));
  check_int "leader gets no fanout" 0 (count_ae !(env.leader_got));
  (* One follower ack = quorum (leader + 1 of 2 followers). *)
  send (ack ~term:1 ~from:1 ~match_idx:1 ~applied:0 ~seq:1);
  Engine.run env.engine;
  check_int "commit announced" 1 (Aggregator.commit env.agg);
  check_int "AGG_COMMIT to leader" 1 (count_commits !(env.leader_got));
  check_int "AGG_COMMIT to followers" 1 (count_commits !(env.follower_got.(1)))

let test_aggregator_quorum_needs_majority () =
  let env, send = make_agg_env 5 in
  send (ae ~term:1 ~leader:0 ~prev:0 ~len:1 ~commit:0 ~seq:1);
  send (ack ~term:1 ~from:1 ~match_idx:1 ~applied:0 ~seq:1);
  Engine.run env.engine;
  check_int "1 of 4 followers is not quorum" 0 (Aggregator.commit env.agg);
  send (ack ~term:1 ~from:2 ~match_idx:1 ~applied:0 ~seq:1);
  Engine.run env.engine;
  check_int "2 of 4 + leader commits" 1 (Aggregator.commit env.agg)

let test_aggregator_term_flush () =
  let env, send = make_agg_env 3 in
  send (ae ~term:1 ~leader:0 ~prev:0 ~len:1 ~commit:0 ~seq:1);
  send (ack ~term:1 ~from:1 ~match_idx:1 ~applied:0 ~seq:1);
  Engine.run env.engine;
  check_int "committed in term 1" 1 (Aggregator.commit env.agg);
  (* A higher-term probe flushes all soft state. *)
  send (Protocol.Probe { term = 5; leader = 1 });
  Engine.run env.engine;
  check_int "flushed term" 5 (Aggregator.term env.agg);
  check_int "flushed commit" 0 (Aggregator.commit env.agg);
  check_int "flushed matches" 0 (Aggregator.match_of env.agg 1)

let test_aggregator_stale_term_ignored () =
  let env, send = make_agg_env 3 in
  send (ae ~term:3 ~leader:0 ~prev:0 ~len:1 ~commit:0 ~seq:1);
  Engine.run env.engine;
  let forwarded = Aggregator.forwarded env.agg in
  send (ae ~term:2 ~leader:1 ~prev:0 ~len:1 ~commit:0 ~seq:2);
  Engine.run env.engine;
  check_int "stale leader not forwarded" forwarded (Aggregator.forwarded env.agg)

let test_aggregator_pending_commit_repeat () =
  let env, send = make_agg_env 3 in
  send (ae ~term:1 ~leader:0 ~prev:0 ~len:1 ~commit:0 ~seq:1);
  send (ack ~term:1 ~from:1 ~match_idx:1 ~applied:0 ~seq:1);
  Engine.run env.engine;
  let commits = Aggregator.commits_sent env.agg in
  (* Heartbeat with no new entries: pending is set, and the next ack
     triggers an AGG_COMMIT even though the commit index is unchanged. *)
  send (ae ~term:1 ~leader:0 ~prev:1 ~len:0 ~commit:1 ~seq:2);
  send (ack ~term:1 ~from:2 ~match_idx:1 ~applied:1 ~seq:2);
  Engine.run env.engine;
  check_int "pending AGG_COMMIT sent" (commits + 1) (Aggregator.commits_sent env.agg)

let test_aggregator_down () =
  let env, send = make_agg_env 3 in
  Aggregator.set_down env.agg true;
  send (ae ~term:1 ~leader:0 ~prev:0 ~len:1 ~commit:0 ~seq:1);
  Engine.run env.engine;
  check_int "down device forwards nothing" 0 (count_ae !(env.follower_got.(1)))

(* --- integration: full clusters ------------------------------------------ *)

let drive ?(n = 3) ?(mode = Hnode.Hover_pp) ?(rate = 50_000.) ?(requests = 2_000)
    ?(tweak = fun p -> p) ?flow_cap ~seed () =
  let params = tweak (Hnode.params ~mode ~n ()) in
  let deploy = Deploy.create (Deploy.config ?flow_cap params) in
  let spec = Service.spec ~read_fraction:0.5 () in
  let gen =
    Loadgen.create deploy ~clients:4 ~rate_rps:rate
      ~workload:(Service.sample spec) ~seed ()
  in
  let duration = int_of_float (float_of_int requests /. rate *. 1e9) in
  let report = Loadgen.run gen ~warmup:0 ~duration () in
  Deploy.quiesce deploy ();
  (deploy, report)

let test_cluster_end_to_end_each_mode () =
  List.iter
    (fun mode ->
      let n = if mode = Hnode.Unreplicated then 1 else 3 in
      let deploy, report = drive ~n ~mode ~seed:21 () in
      check "served most requests" true
        (report.Loadgen.completed > (report.Loadgen.sent * 9 / 10));
      check_int "nothing lost" 0 report.Loadgen.lost;
      check "replicas consistent" true (Deploy.consistent deploy))
    [ Hnode.Unreplicated; Hnode.Vanilla; Hnode.Hover; Hnode.Hover_pp ]

let test_cluster_replies_load_balanced () =
  let deploy, _ = drive ~mode:Hnode.Hover_pp ~requests:3_000 ~seed:22 () in
  Array.iter
    (fun node ->
      (* With JBSQ over 3 nodes each should take roughly a third. *)
      check "every node replies" true (Hnode.replies_sent node > 500))
    deploy.Deploy.nodes

let test_cluster_vanilla_leader_replies_all () =
  let deploy, report = drive ~mode:Hnode.Vanilla ~seed:23 () in
  let leader = Option.get (Deploy.leader deploy) in
  check "leader answers everything" true
    (Hnode.replies_sent leader >= report.Loadgen.completed)

let test_cluster_recovery_under_loss () =
  (* Drop 2% of all received packets: multicast bodies go missing and the
     recovery protocol must fill the gaps without losing consistency. *)
  let deploy, report =
    drive ~mode:Hnode.Hover ~rate:20_000. ~requests:1_500
      ~tweak:(fun p ->
        { p with Hnode.features = { p.Hnode.features with Hnode.loss_prob = 0.02 } })
      ~seed:24 ()
  in
  check "most requests still served" true
    (report.Loadgen.completed > report.Loadgen.sent * 8 / 10);
  check "replicas consistent despite loss" true (Deploy.consistent deploy);
  let recoveries =
    Array.fold_left
      (fun acc node -> acc + Hnode.recoveries_sent node)
      0 deploy.Deploy.nodes
  in
  check "recovery path exercised" true (recoveries > 0)

let test_cluster_leader_failover () =
  let params =
    let p = Hnode.params ~mode:Hnode.Hover_pp ~n:3 () in
    { p with Hnode.features = { p.Hnode.features with Hnode.reply_lb = true } }
  in
  let deploy = Deploy.create (Deploy.config params) in
  let spec = Service.spec () in
  let gen =
    Loadgen.create deploy ~clients:4 ~rate_rps:30_000.
      ~workload:(Service.sample spec) ~seed:25 ()
  in
  let engine = deploy.Deploy.engine in
  Engine.after engine (Timebase.ms 20) (fun () -> ignore (Deploy.kill_leader deploy));
  let report = Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 60) () in
  Deploy.quiesce deploy ~extra:(Timebase.ms 50) ();
  (match Deploy.leader deploy with
  | Some l -> check "new leader differs" true (Hnode.id l <> 0)
  | None -> Alcotest.fail "no leader after failover");
  check "bounded losses" true (report.Loadgen.lost < 200);
  check "service continued" true
    (report.Loadgen.completed > report.Loadgen.sent / 2);
  check "survivors consistent" true (Deploy.consistent deploy)

let test_cluster_flow_control_prevents_collapse () =
  (* Offered load far beyond capacity: with the middlebox capping in-flight
     requests, goodput stays near capacity and clients see NACKs. *)
  let deploy, report =
    drive ~mode:Hnode.Hover_pp ~rate:2_000_000. ~requests:20_000
      ~tweak:(fun p ->
        { p with Hnode.features = { p.Hnode.features with Hnode.flow_control = true } })
      ~flow_cap:500 ~seed:26 ()
  in
  check "NACKs issued" true (report.Loadgen.nacked > 0);
  check "goodput survives overload" true (report.Loadgen.completed > 1_000);
  check "consistent under overload" true (Deploy.consistent deploy);
  ignore deploy

let test_cluster_hover_vs_vanilla_same_results () =
  (* The three replicated modes must produce identical application state
     for the same client workload (same seed => same op stream). *)
  let fingerprint mode =
    let deploy, _ = drive ~mode ~rate:20_000. ~requests:1_000 ~seed:27 () in
    Hnode.app_fingerprint deploy.Deploy.nodes.(0)
  in
  let v = fingerprint Hnode.Vanilla in
  check "hover matches vanilla" true (fingerprint Hnode.Hover = v);
  check "hover++ matches vanilla" true (fingerprint Hnode.Hover_pp = v)

let test_cluster_kv_workload_applies () =
  let params = Hnode.params ~mode:Hnode.Hover_pp ~n:3 () in
  let deploy = Deploy.create (Deploy.config params) in
  let counter = ref 0 in
  let workload _rng =
    incr counter;
    if !counter mod 3 = 0 then Op.Kv (K.Get (Printf.sprintf "k%d" (!counter mod 7)))
    else Op.Kv (K.Put (Printf.sprintf "k%d" (!counter mod 7), string_of_int !counter))
  in
  let gen = Loadgen.create deploy ~clients:2 ~rate_rps:20_000. ~workload ~seed:28 () in
  let report = Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 50) () in
  Deploy.quiesce deploy ();
  check "kv requests served" true (report.Loadgen.completed > 800);
  check "kv replicas consistent" true (Deploy.consistent deploy);
  check "state machine non-trivial" true
    (Hnode.executed_ops deploy.Deploy.nodes.(0) > 500)

(* Regression: a read retried after its first answer reached the leader,
   which answered it from a completion record filed for a read it never
   ran (its replier was a follower) — an empty [Done] reply. Reads keep
   no record now: a retry is ordered again, and every reply to a read
   carries its value. *)
let test_retried_read_reply_carries_value () =
  let d = Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Hover ~n:3 ())) in
  let leader = Hnode.id (Option.get (Deploy.leader d)) in
  let value = String.make 200 'v' in
  let replies = ref [] in
  let port =
    Fabric.attach d.Deploy.fabric ~addr:(Addr.Client 0) ~rate_gbps:10.
      ~handler:(fun (pkt : Protocol.payload Fabric.packet) ->
        match pkt.payload with
        | Protocol.Response { rid } -> replies := (rid.R2p2.id, pkt.src, pkt.bytes) :: !replies
        | _ -> ())
  in
  let send id op =
    let policy = if Op.read_only op then R2p2.Replicated_req_r else R2p2.Replicated_req in
    let payload = Protocol.Request { rid = rid ~id (); policy; op } in
    Fabric.send d.Deploy.fabric port ~dst:(Deploy.client_target d)
      ~bytes:(Protocol.payload_bytes ~with_bodies:false payload)
      payload
  in
  let reads = List.init 6 (fun i -> i + 1) in
  send 0 (Op.Kv (K.Put ("k", value)));
  Deploy.quiesce d ();
  List.iter (fun id -> send id (Op.Kv (K.Get "k"))) reads;
  Deploy.quiesce d ();
  check "a follower answered some read" true
    (List.exists (fun (id, src, _) -> id > 0 && src <> Addr.Node leader) !replies);
  (* Every read again, same id: the client's retry. *)
  List.iter (fun id -> send id (Op.Kv (K.Get "k"))) reads;
  Deploy.quiesce d ();
  let read_replies = List.filter (fun (id, _, _) -> id > 0) !replies in
  check_int "every read and retry answered" 12 (List.length read_replies);
  List.iter
    (fun (id, src, bytes) ->
      if bytes < String.length value then
        Alcotest.failf "read %d answered by %s with %d bytes" id
          (Format.asprintf "%a" Addr.pp src) bytes)
    read_replies

let suite =
  [
    Alcotest.test_case "unordered add/find" `Quick test_unordered_add_find;
    Alcotest.test_case "unordered mark/remove" `Quick test_unordered_mark_and_remove;
    Alcotest.test_case "unordered gc windows" `Quick test_unordered_gc_windows;
    Alcotest.test_case "unordered ingest order" `Quick test_unordered_ingest_order;
    Alcotest.test_case "unordered ingest reports ordered" `Quick
      test_unordered_ingest_reports_ordered;
    Alcotest.test_case "unordered re-add keeps ordered" `Quick
      test_unordered_readd_keeps_ordered;
    Alcotest.test_case "replier bound and applied" `Quick
      test_replier_bound_and_applied;
    Alcotest.test_case "replier caps dead node" `Quick test_replier_dead_node_bounded;
    Alcotest.test_case "replier reset" `Quick test_replier_reset;
    Alcotest.test_case "replier assign monotone" `Quick test_replier_assign_monotone;
    Alcotest.test_case "replier with non-contiguous ids" `Quick test_replier_sparse_ids;
    Alcotest.test_case "protocol AE sizing" `Quick test_protocol_ae_bytes;
    Alcotest.test_case "protocol metadata" `Quick test_protocol_meta;
    Alcotest.test_case "protocol request sizing" `Quick test_protocol_request_bytes;
    Alcotest.test_case "flow control caps and feedback" `Quick test_flow_control_caps;
    Alcotest.test_case "aggregator fanout and commit" `Quick
      test_aggregator_fanout_and_commit;
    Alcotest.test_case "aggregator quorum" `Quick test_aggregator_quorum_needs_majority;
    Alcotest.test_case "aggregator term flush" `Quick test_aggregator_term_flush;
    Alcotest.test_case "aggregator stale term" `Quick test_aggregator_stale_term_ignored;
    Alcotest.test_case "aggregator pending commit" `Quick
      test_aggregator_pending_commit_repeat;
    Alcotest.test_case "aggregator down" `Quick test_aggregator_down;
    Alcotest.test_case "cluster end-to-end all modes" `Slow
      test_cluster_end_to_end_each_mode;
    Alcotest.test_case "cluster replies load balanced" `Slow
      test_cluster_replies_load_balanced;
    Alcotest.test_case "cluster vanilla leader replies" `Slow
      test_cluster_vanilla_leader_replies_all;
    Alcotest.test_case "cluster recovery under loss" `Slow
      test_cluster_recovery_under_loss;
    Alcotest.test_case "cluster leader failover" `Slow test_cluster_leader_failover;
    Alcotest.test_case "cluster flow control overload" `Slow
      test_cluster_flow_control_prevents_collapse;
    Alcotest.test_case "cluster modes agree on state" `Slow
      test_cluster_hover_vs_vanilla_same_results;
    Alcotest.test_case "cluster kv workload" `Slow test_cluster_kv_workload_applies;
    Alcotest.test_case "retried read reply carries its value" `Quick
      test_retried_read_reply_carries_value;
  ]
