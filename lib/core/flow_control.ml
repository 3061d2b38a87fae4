module Fabric = Hovercraft_net.Fabric
module Addr = Hovercraft_net.Addr

type t = {
  fabric : Protocol.payload Fabric.t;
  mutable port : Protocol.payload Fabric.port option;
  cap : int;
  group : int;
  outstanding : unit Rid_table.t;
  mutable inflight : int;
  mutable admitted : int;
  mutable nacked : int;
}

let handle t (pkt : Protocol.payload Fabric.packet) =
  let port = Option.get t.port in
  match pkt.payload with
  | Protocol.Request { rid; _ } ->
      if Rid_table.mem t.outstanding rid then
        (* A retransmission of a request that already holds an in-flight
           slot: forward without recharging. It must go through even at
           the cap — a retransmitted body is the recovery path of last
           resort when every replica dropped it, and that loss is exactly
           what wedges the replies whose feedback would free slots. *)
        Fabric.send t.fabric port ~dst:(Addr.Group t.group) ~bytes:pkt.bytes
          pkt.payload
      else if t.inflight < t.cap then begin
        ignore (Rid_table.add t.outstanding rid () ~stamp:0 ~list:0);
        t.inflight <- t.inflight + 1;
        t.admitted <- t.admitted + 1;
        (* Destination rewrite: same payload, multicast delivery. *)
        Fabric.send t.fabric port ~dst:(Addr.Group t.group) ~bytes:pkt.bytes
          pkt.payload
      end
      else begin
        t.nacked <- t.nacked + 1;
        Fabric.send t.fabric port ~dst:pkt.src
          ~bytes:(Protocol.payload_bytes ~with_bodies:false (Protocol.Nack { rid }))
          (Protocol.Nack { rid })
      end
  | Protocol.Feedback { rid } ->
      (* Credit keyed by rid: a duplicate feedback (a replayed reply to a
         retransmission) must not free a second slot. *)
      let h = Rid_table.find t.outstanding rid in
      if not (Rid_table.is_nil h) then begin
        Rid_table.remove_node t.outstanding h;
        t.inflight <- t.inflight - 1
      end
  | Protocol.Response _ | Protocol.Raft _ | Protocol.Recovery_request _
  | Protocol.Recovery_response _ | Protocol.Probe _ | Protocol.Probe_reply _
  | Protocol.Agg_commit _ | Protocol.Nack _ | Protocol.Wrong_shard _
  | Protocol.Reconfig _ | Protocol.Rabia _ ->
      ()

let create engine fabric ~cap ~group ~rate_gbps =
  ignore engine;
  if cap <= 0 then invalid_arg "Flow_control.create: cap must be positive";
  let t =
    {
      fabric;
      port = None;
      cap;
      group;
      outstanding = Rid_table.create ~capacity:4096 ~lists:1 ();
      inflight = 0;
      admitted = 0;
      nacked = 0;
    }
  in
  let port =
    Fabric.attach fabric ~addr:Addr.Middlebox ~rate_gbps ~handler:(handle t)
  in
  t.port <- Some port;
  t

let inflight t = t.inflight
let admitted t = t.admitted
let nacked t = t.nacked
