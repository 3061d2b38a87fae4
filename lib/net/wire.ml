let mtu = 1500
let frame_overhead = 64

(* One snapshot chunk per frame: the MTU minus room for the R2P2 header
   and the install message's own framing (identity, offset, member list).
   Keeping each Install_snapshot inside a single frame means a lost frame
   costs exactly one chunk retransmission, never a partial chunk. *)
let snap_chunk_bytes = mtu - 256

let frames ~payload =
  if payload <= 0 then 1 else (payload + mtu - 1) / mtu

let wire_bytes ~payload =
  let n = frames ~payload in
  Int.max payload 0 + (n * frame_overhead)

let serialize_ns ~rate_gbps ~bytes =
  (* bits / (Gbit/s) = ns *)
  let ns = float_of_int (bytes * 8) /. rate_gbps in
  Int.max 1 (int_of_float (Float.round ns))
