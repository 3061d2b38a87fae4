open Hovercraft_sim
open Hovercraft_r2p2
module Fabric = Hovercraft_net.Fabric
module Addr = Hovercraft_net.Addr

module Rid_tbl = R2p2.Rid_tbl

type t = {
  fabric : Protocol.payload Fabric.t;
  mutable port : Protocol.payload Fabric.port option;
  queues : Jbsq.t;
  assigned : int Rid_tbl.t;  (* rid -> server, for FEEDBACK accounting *)
  mutable forwarded : int;
  mutable rejected : int;
}

let transmit t ~dst payload ~bytes =
  match t.port with
  | Some port -> Fabric.send t.fabric port ~dst ~bytes payload
  | None -> ()

let handle t (pkt : Protocol.payload Fabric.packet) =
  match pkt.payload with
  | Protocol.Request { rid; _ } -> (
      match Jbsq.pick t.queues with
      | Some server ->
          Jbsq.assign t.queues server;
          Rid_tbl.replace t.assigned rid server;
          t.forwarded <- t.forwarded + 1;
          transmit t ~dst:(Addr.Node server) pkt.payload ~bytes:pkt.bytes
      | None ->
          t.rejected <- t.rejected + 1;
          transmit t ~dst:pkt.src (Protocol.Nack { rid })
            ~bytes:(Protocol.payload_bytes ~with_bodies:false (Protocol.Nack { rid })))
  | Protocol.Feedback { rid } -> (
      match Rid_tbl.find_opt t.assigned rid with
      | Some server ->
          Rid_tbl.remove t.assigned rid;
          if Jbsq.depth t.queues server > 0 then Jbsq.complete t.queues server
      | None -> ())
  | Protocol.Response _ | Protocol.Raft _ | Protocol.Recovery_request _
  | Protocol.Recovery_response _ | Protocol.Probe _ | Protocol.Probe_reply _
  | Protocol.Agg_commit _ | Protocol.Nack _ | Protocol.Wrong_shard _
  | Protocol.Reconfig _ | Protocol.Rabia _ ->
      ()

let create engine fabric ~n ?(bound = 16) ?(seed = 97) ~rate_gbps () =
  ignore engine;
  let t =
    {
      fabric;
      port = None;
      queues = Jbsq.create Jbsq.Jbsq ~bound ~n ~rng:(Rng.create seed);
      assigned = Rid_tbl.create 1024;
      forwarded = 0;
      rejected = 0;
    }
  in
  let port =
    Fabric.attach fabric ~addr:Addr.Router ~rate_gbps ~handler:(handle t)
  in
  t.port <- Some port;
  t

let set_excluded t i flag = Jbsq.set_excluded t.queues i flag
let forwarded t = t.forwarded
let rejected t = t.rejected
let outstanding t i = Jbsq.depth t.queues i
