open Hovercraft_sim

type 'a packet = {
  src : Addr.t;
  dst : Addr.t;
  bytes : int;
  payload : 'a;
  sent_at : Timebase.t;
}

type 'a port = {
  addr : Addr.t;
  rate_gbps : float;
  handler : 'a packet -> unit;
  mutable tx_free : Timebase.t;
  mutable rx_free : Timebase.t;
  mutable down : bool;
  mutable tx_packets : int;
  mutable tx_wire_bytes : int;
  mutable rx_packets : int;
  mutable rx_wire_bytes : int;
  mutable dropped : int;
}

type fault = { drop : float; delay : Timebase.t }

type 'a t = {
  engine : Engine.t;
  latency : Timebase.t;
  ports : 'a port option array array;  (* by [Addr.kind], then [Addr.index] *)
  mutable groups : Addr.t list array;  (* members by group id, latest join first *)
  (* Fault injection: per-link impairments and island partitions. The
     dedicated rng keeps fault-free runs byte-identical to the pre-fault
     fabric (it is only drawn when a lossy fault is installed). *)
  faults : (Addr.t * Addr.t, fault) Hashtbl.t;
  islands : (Addr.t, int) Hashtbl.t;
  fault_rng : Rng.t;
  mutable injected_drops : int;
  mutable partition_drops : int;
}

(* [a], or a copy grown (padded with [pad]) until [i] is in range. *)
let covering a i pad =
  let n = Array.length a in
  if i < n then a
  else begin
    let b = Array.make (Int.max (i + 1) (2 * n)) pad in
    Array.blit a 0 b 0 n;
    b
  end

let create engine ?(latency = Timebase.us 1) ?(fault_seed = 0x5eed) () =
  {
    engine;
    latency;
    ports = Array.make Addr.kinds [||];
    groups = [||];
    faults = Hashtbl.create 8;
    islands = Hashtbl.create 8;
    fault_rng = Rng.create fault_seed;
    injected_drops = 0;
    partition_drops = 0;
  }

let attach t ~addr ~rate_gbps ~handler =
  let port =
    {
      addr;
      rate_gbps;
      handler;
      tx_free = 0;
      rx_free = 0;
      down = false;
      tx_packets = 0;
      tx_wire_bytes = 0;
      rx_packets = 0;
      rx_wire_bytes = 0;
      dropped = 0;
    }
  in
  let k = Addr.kind addr and i = Addr.index addr in
  if i < 0 then invalid_arg "Fabric.attach: negative address index";
  t.ports.(k) <- covering t.ports.(k) i None;
  t.ports.(k).(i) <- Some port;
  port

let port_opt t addr =
  let row = Array.unsafe_get t.ports (Addr.kind addr) and i = Addr.index addr in
  if i >= 0 && i < Array.length row then Array.unsafe_get row i else None

let members t group =
  if group >= 0 && group < Array.length t.groups then t.groups.(group) else []

let join t ~group addr =
  if group < 0 then invalid_arg "Fabric.join: negative group";
  t.groups <- covering t.groups group [];
  let l = t.groups.(group) in
  if not (List.exists (Addr.equal addr) l) then t.groups.(group) <- addr :: l

let leave t ~group addr =
  if group >= 0 && group < Array.length t.groups then
    t.groups.(group) <- List.filter (fun a -> not (Addr.equal a addr)) t.groups.(group)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let set_link_fault t ~src ~dst ?(drop = 0.) ?(delay = 0) () =
  if drop < 0. || drop > 1. then
    invalid_arg "Fabric.set_link_fault: drop must be in [0, 1]";
  if delay < 0 then invalid_arg "Fabric.set_link_fault: negative delay";
  if drop = 0. && delay = 0 then Hashtbl.remove t.faults (src, dst)
  else Hashtbl.replace t.faults (src, dst) { drop; delay }

let clear_link_faults t = Hashtbl.reset t.faults

let partition t sets =
  Hashtbl.reset t.islands;
  List.iteri
    (fun island addrs ->
      List.iter (fun a -> Hashtbl.replace t.islands a island) addrs)
    sets

let heal t = Hashtbl.reset t.islands
let partitioned t = Hashtbl.length t.islands > 0

(* Two endpoints can talk unless both sit in distinct islands; endpoints
   not named by the partition (clients, middleboxes, ...) reach everyone. *)
let reachable t a b =
  Hashtbl.length t.islands = 0
  ||
  match (Hashtbl.find_opt t.islands a, Hashtbl.find_opt t.islands b) with
  | Some ia, Some ib -> ia = ib
  | Some _, None | None, Some _ | None, None -> true

let injected_drops t = t.injected_drops
let partition_drops t = t.partition_drops

(* ------------------------------------------------------------------ *)

(* Clock the packet off the receiver's link, then hand it up. *)
let deliver t pkt arrival dst_port =
  let wire = Wire.wire_bytes ~payload:pkt.bytes in
  let start = Int.max arrival dst_port.rx_free in
  dst_port.rx_free <- start + Wire.serialize_ns ~rate_gbps:dst_port.rate_gbps ~bytes:wire;
  let done_at = dst_port.rx_free in
  Engine.at t.engine done_at (fun () ->
      if dst_port.down then dst_port.dropped <- dst_port.dropped + 1
      else begin
        dst_port.rx_packets <- dst_port.rx_packets + 1;
        dst_port.rx_wire_bytes <- dst_port.rx_wire_bytes + wire;
        dst_port.handler pkt
      end)

let send t src_port ~dst ~bytes payload =
  let now = Engine.now t.engine in
  let pkt = { src = src_port.addr; dst; bytes; payload; sent_at = now } in
  let wire = Wire.wire_bytes ~payload:bytes in
  let start = Int.max now src_port.tx_free in
  src_port.tx_free <- start + Wire.serialize_ns ~rate_gbps:src_port.rate_gbps ~bytes:wire;
  src_port.tx_packets <- src_port.tx_packets + 1;
  src_port.tx_wire_bytes <- src_port.tx_wire_bytes + wire;
  let arrival = src_port.tx_free + t.latency in
  let deliver_to addr =
    if not (reachable t src_port.addr addr) then
      t.partition_drops <- t.partition_drops + 1
    else begin
      let fault =
        if Hashtbl.length t.faults = 0 then None
        else Hashtbl.find_opt t.faults (src_port.addr, addr)
      in
      let extra_delay, dropped =
        match fault with
        | None -> (0, false)
        | Some f ->
            (f.delay, f.drop > 0. && Rng.bool t.fault_rng f.drop)
      in
      if dropped then t.injected_drops <- t.injected_drops + 1
      else
        match port_opt t addr with
        | Some p -> deliver t pkt (arrival + extra_delay) p
        | None -> src_port.dropped <- src_port.dropped + 1
    end
  in
  match dst with
  | Addr.Group g ->
      List.iter
        (fun m -> if not (Addr.equal m src_port.addr) then deliver_to m)
        (members t g)
  | Addr.Node _ | Addr.Client _ | Addr.Netagg | Addr.Middlebox | Addr.Router ->
      deliver_to dst

let set_down p flag = p.down <- flag
let tx_packets p = p.tx_packets
let tx_wire_bytes p = p.tx_wire_bytes
let rx_packets p = p.rx_packets
let rx_wire_bytes p = p.rx_wire_bytes
let dropped p = p.dropped

(* How far ahead of the clock the link is booked: the serialization
   backlog, i.e. the queue depth expressed in time. *)
let tx_backlog_ns p ~now = Int.max 0 (p.tx_free - now)
let rx_backlog_ns p ~now = Int.max 0 (p.rx_free - now)

(* Kind-major, index-minor: [Addr.compare]'s order. *)
let ports t =
  Array.fold_right
    (fun row acc ->
      Array.fold_right
        (fun p acc -> match p with Some p -> (p.addr, p) :: acc | None -> acc)
        row acc)
    t.ports []

let port_snapshot t p =
  let now = Engine.now t.engine in
  Hovercraft_obs.Json.Obj
    [
      ("tx_packets", Hovercraft_obs.Json.Int p.tx_packets);
      ("tx_wire_bytes", Hovercraft_obs.Json.Int p.tx_wire_bytes);
      ("rx_packets", Hovercraft_obs.Json.Int p.rx_packets);
      ("rx_wire_bytes", Hovercraft_obs.Json.Int p.rx_wire_bytes);
      ("dropped", Hovercraft_obs.Json.Int p.dropped);
      ("tx_backlog_ns", Hovercraft_obs.Json.Int (tx_backlog_ns p ~now));
      ("rx_backlog_ns", Hovercraft_obs.Json.Int (rx_backlog_ns p ~now));
      ("down", Hovercraft_obs.Json.Bool p.down);
    ]

let snapshot t =
  let fault_fields =
    [
      ( "faults",
        Hovercraft_obs.Json.Obj
          [
            ("links_impaired", Hovercraft_obs.Json.Int (Hashtbl.length t.faults));
            ("partitioned", Hovercraft_obs.Json.Bool (partitioned t));
            ("injected_drops", Hovercraft_obs.Json.Int t.injected_drops);
            ("partition_drops", Hovercraft_obs.Json.Int t.partition_drops);
          ] );
    ]
  in
  Hovercraft_obs.Json.Obj
    (List.map (fun (addr, p) -> (Addr.to_string addr, port_snapshot t p)) (ports t)
    @ fault_fields)
