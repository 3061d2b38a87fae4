open Hovercraft_sim
open Hovercraft_core
module Ycsb = Hovercraft_apps.Ycsb
module Experiment = Hovercraft_cluster.Experiment

(* kRPS-under-SLO as shard count grows, on a FIXED per-host budget: every
   S shares the same NIC and switch rates (Shard_deploy splits them 1/S
   per group) — the scaling that survives is the multi-core one, each
   group instance bringing its own CPU. YCSB-B (95% reads) so the
   leader's write work is small and reply load-balancing does the rest.

   The host NIC is 40 GbE: at the single-group knee (~1.9 MRPS) the
   binding resource is then per-core packet CPU, not the wire, which is
   exactly the regime where co-located sharding pays — with the default
   10 GbE budget the S=1 knee is already wire-bound and a 1/S slice per
   group caps every shard count at the same total. *)
let shardscale ?(quality = Experiment.Fast) ?(slo = Timebase.us 500)
    ?(shard_counts = [ 1; 2; 4; 8 ]) ?(n = 3) ?(seed = 42) () =
  List.map
    (fun shards ->
      let params = Hnode.params ~mode:Hnode.Hover_pp ~n () in
      let params =
        {
          params with
          Hnode.cost = { params.Hnode.cost with Hnode.link_gbps = 40. };
        }
      in
      let kv = Ycsb.Kv.workload_b ~seed:(seed + shards) in
      let preload = Ycsb.Kv.preload_ops kv in
      (* One fresh, preloaded deployment per probe, measured with the
         single-group experiments' window sizing. *)
      let probe rate_rps =
        let sd = Shard_deploy.create (Shard_deploy.config ~shards params) in
        Shard_deploy.preload sd preload;
        let gen =
          Shard_loadgen.create sd ~clients:8 ~rate_rps
            ~workload:(fun _rng -> Ycsb.Kv.next kv)
            ~seed:(seed + 7) ()
        in
        let warmup, duration = Experiment.window ~quality ~rate_rps in
        Shard_loadgen.run gen ~warmup ~duration ()
      in
      (* The search ceiling must scale with the shard count or every
         S > 1 point saturates against it instead of its own knee. *)
      let hi = 2_000_000. *. float_of_int shards in
      (shards, Experiment.knee ~slo ~hi probe))
    shard_counts
