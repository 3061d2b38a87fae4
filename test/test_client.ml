(* Cross-version golden tests for the load generator. Each test replays a
   small fixed-seed run and pins the exact client-side outcome: a change
   to the client that alters RNG draws, event order, routing or the
   report's accounting shows up here even when every same-run
   determinism test still passes. *)

open Hovercraft_sim
open Hovercraft_cluster
open Hovercraft_shard
module Hnode = Hovercraft_core.Hnode
module Op = Hovercraft_apps.Op
module Kvstore = Hovercraft_apps.Kvstore
module Service = Hovercraft_apps.Service

type golden = {
  sent : int;
  completed : int;
  nacked : int;
  lost : int;
  p50_us : float;
  p99_us : float;
  retried : int;
  rerouted : int;
}

let pp_golden ppf g =
  Format.fprintf ppf
    "{ sent = %d; completed = %d; nacked = %d; lost = %d; p50_us = %h; \
     p99_us = %h; retried = %d; rerouted = %d }"
    g.sent g.completed g.nacked g.lost g.p50_us g.p99_us g.retried g.rerouted

let golden = Alcotest.testable pp_golden ( = )

let of_report (r : Loadgen.report) ~retried ~rerouted =
  {
    sent = r.Loadgen.sent;
    completed = r.Loadgen.completed;
    nacked = r.Loadgen.nacked;
    lost = r.Loadgen.lost;
    p50_us = r.Loadgen.p50_us;
    p99_us = r.Loadgen.p99_us;
    retried;
    rerouted;
  }

(* One group, lossy multicast, a flow-control cap tight enough to NACK
   and a short retry timeout: arrivals, retries, NACKs and the latency
   window all contribute. *)
let single_group () =
  let p = Hnode.params ~mode:Hnode.Hover_pp ~n:3 () in
  let p =
    {
      p with
      Hnode.seed = 5;
      features =
        { p.Hnode.features with Hnode.loss_prob = 0.02; flow_control = true };
    }
  in
  let deploy = Deploy.create (Deploy.config ~flow_cap:24 p) in
  let gen =
    Loadgen.create deploy ~clients:4 ~rate_rps:400_000.
      ~workload:(Service.sample (Service.spec ()))
      ~retry:(Timebase.ms 1, 4) ~seed:9 ()
  in
  let r = Loadgen.run gen ~warmup:(Timebase.ms 2) ~duration:(Timebase.ms 20) () in
  of_report r ~retried:(Loadgen.retried gen) ~rerouted:0

let kv_workload rng =
  let k = Printf.sprintf "user%08d" (Rng.int rng 2_000) in
  if Rng.bool rng 0.5 then Op.Kv (Kvstore.Get k)
  else Op.Kv (Kvstore.Put (k, "v"))

(* Two groups, one active, split live under load with the target killed
   the moment the map flips: fence NACKs drive reroutes, and the
   stranded rids burn their retries and are written off as lost. Captured
   again when reads stopped keeping completion records: the migration
   ships fewer of them, so the fence is up for less time. *)
let two_group_split () =
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
  let r =
    Shard_loadgen.run gen ~warmup:(Timebase.ms 20) ~duration:(Timebase.ms 300)
      ~drain:(Timebase.ms 50) ()
  in
  of_report r ~retried:(Loadgen.retried gen) ~rerouted:(Loadgen.rerouted gen)

(* Captured from the two separate generators before they were merged;
   the merged client must reproduce them bit for bit. *)
let test_single_group_golden () =
  Alcotest.check golden "single-group run"
    {
      sent = 7908;
      completed = 3514;
      nacked = 3608;
      lost = 0;
      p50_us = 0x1.0a7ae147ae148p+4;
      p99_us = 0x1.fd97ced916873p+9;
      retried = 83;
      rerouted = 0;
    }
    (single_group ())

let test_two_group_golden () =
  Alcotest.check golden "two-group split run"
    {
      sent = 9017;
      completed = 5358;
      nacked = 0;
      lost = 3013;
      p50_us = 0x1.4a8f5c28f5c29p+3;
      p99_us = 0x1.e8bc6a7ef9db2p+3;
      retried = 6026;
      rerouted = 13;
    }
    (two_group_split ())

let suite =
  [
    Alcotest.test_case "single-group golden" `Quick test_single_group_golden;
    Alcotest.test_case "two-group live-split golden" `Slow test_two_group_golden;
  ]
