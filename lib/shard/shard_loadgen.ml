open Hovercraft_r2p2
module Op = Hovercraft_apps.Op
module Loadgen = Hovercraft_cluster.Loadgen

type t = Loadgen.t

let create sd ~clients ~rate_rps ?profile ~workload ?retry ?on_reply ?on_nack
    ~seed () =
  (* Owning group under the LIVE shard map; keyless ops go to a
     deterministic group derived from the request id. *)
  let route rid op =
    match Op.key op with
    | Some k -> fst (Shard_deploy.client_target sd ~key:k)
    | None -> rid.R2p2.id mod Shard_deploy.shards sd
  in
  (* Counting at transmit time (retries included) makes heat reflect the
     demand each slot actually generates. *)
  let tally op =
    match Op.key op with
    | Some k -> Shard_deploy.record_access sd ~key:k
    | None -> ()
  in
  Loadgen.create_routed (Shard_deploy.groups sd) ~route ~tally ~clients
    ~rate_rps ~profile ~workload ~retry ~on_reply ~on_nack ~seed

let run = Loadgen.run
