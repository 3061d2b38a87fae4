(* Tests for addresses, wire framing, CPU resources and the fabric. *)

open Hovercraft_sim
open Hovercraft_net

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- addr ----------------------------------------------------------- *)

let test_addr_equal_hash () =
  check "node eq" true (Addr.equal (Addr.Node 1) (Addr.Node 1));
  check "node neq" false (Addr.equal (Addr.Node 1) (Addr.Node 2));
  check "kinds differ" false (Addr.equal (Addr.Node 1) (Addr.Client 1));
  check "hash consistent" true (Addr.hash (Addr.Node 3) = Addr.hash (Addr.Node 3));
  check_int "compare equal" 0 (Addr.compare Addr.Netagg Addr.Netagg);
  check "compare total" true
    (Addr.compare (Addr.Node 1) (Addr.Client 0) < 0
    = (Addr.compare (Addr.Client 0) (Addr.Node 1) > 0))

let test_addr_to_string () =
  Alcotest.(check string) "node" "node2" (Addr.to_string (Addr.Node 2));
  Alcotest.(check string) "mcast" "mcast0" (Addr.to_string (Addr.Group 0));
  Alcotest.(check string) "mbox" "middlebox" (Addr.to_string Addr.Middlebox)

(* --- wire ------------------------------------------------------------ *)

let test_wire_framing () =
  check_int "empty payload = 1 frame" 1 (Wire.frames ~payload:0);
  check_int "1500 fits one frame" 1 (Wire.frames ~payload:1500);
  check_int "1501 needs two" 2 (Wire.frames ~payload:1501);
  check_int "6kB needs four" 4 (Wire.frames ~payload:6000);
  check_int "overhead per frame" (6000 + (4 * Wire.frame_overhead))
    (Wire.wire_bytes ~payload:6000)

let test_wire_serialization () =
  (* 1250 bytes at 10 Gbps = 1 us exactly. *)
  check_int "10G math" 1000 (Wire.serialize_ns ~rate_gbps:10. ~bytes:1250);
  check_int "never zero" 1 (Wire.serialize_ns ~rate_gbps:100. ~bytes:1)

let test_wire_6kb_rate_bound () =
  (* The §3.3 arithmetic: ~200k replies/s of 6 kB saturate a 10G link. *)
  let wire = Wire.wire_bytes ~payload:6000 in
  let ns = Wire.serialize_ns ~rate_gbps:10. ~bytes:wire in
  let max_rps = 1_000_000_000 / ns in
  check "cap near 200k" true (max_rps > 190_000 && max_rps < 210_000)

(* --- cpu ------------------------------------------------------------- *)

let test_cpu_serializes () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let done_at = ref [] in
  Cpu.exec cpu ~cost:100 (fun () -> done_at := Engine.now e :: !done_at);
  Cpu.exec cpu ~cost:50 (fun () -> done_at := Engine.now e :: !done_at);
  Engine.run e;
  Alcotest.(check (list int)) "FIFO completion times" [ 100; 150 ] (List.rev !done_at);
  check_int "busy accounting" 150 (Cpu.busy_time cpu)

let test_cpu_idle_gap () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let times = ref [] in
  Cpu.exec cpu ~cost:10 (fun () -> times := Engine.now e :: !times);
  Engine.run e;
  (* Submit again after idling: starts from now, not from 0. *)
  Engine.at e 100 (fun () ->
      Cpu.exec cpu ~cost:10 (fun () -> times := Engine.now e :: !times));
  Engine.run e;
  Alcotest.(check (list int)) "idle gap respected" [ 10; 110 ] (List.rev !times)

let test_cpu_halt () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let ran = ref false in
  Cpu.exec cpu ~cost:10 (fun () -> ran := true);
  Cpu.halt cpu;
  Engine.run e;
  check "halted work discarded" false !ran;
  Cpu.exec cpu ~cost:10 (fun () -> ran := true);
  Engine.run e;
  check "new work also discarded" false !ran

let test_cpu_backlog () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  Cpu.exec cpu ~cost:500 ignore;
  check_int "backlog reflects queue" 500 (Cpu.backlog cpu);
  Engine.run e;
  check_int "drains to zero" 0 (Cpu.backlog cpu)

(* --- fabric ----------------------------------------------------------- *)

type probe = { mutable got : (Addr.t * int * Timebase.t) list }

let attach_probe fabric addr ?(rate = 10.) probe =
  Hovercraft_net.Fabric.attach fabric ~addr ~rate_gbps:rate
    ~handler:(fun pkt ->
      probe.got <- (pkt.Fabric.src, pkt.Fabric.bytes, pkt.Fabric.sent_at) :: probe.got)

let test_fabric_unicast_latency () =
  let e = Engine.create () in
  let fabric = Fabric.create e ~latency:1000 () in
  let pa = { got = [] } and pb = { got = [] } in
  let a = attach_probe fabric (Addr.Node 0) pa in
  let _b = attach_probe fabric (Addr.Node 1) pb in
  Fabric.send fabric a ~dst:(Addr.Node 1) ~bytes:36 ();
  Engine.run e;
  check_int "delivered once" 1 (List.length pb.got);
  (* serialization(100B wire at 10G = 80ns) + 1us + rx serialization *)
  let expected = 80 + 1000 + 80 in
  check_int "arrival time" expected (Engine.now e)

let test_fabric_multicast_excludes_sender () =
  let e = Engine.create () in
  let fabric = Fabric.create e () in
  let probes = Array.init 3 (fun _ -> { got = [] }) in
  let ports = Array.init 3 (fun i -> attach_probe fabric (Addr.Node i) probes.(i)) in
  for i = 0 to 2 do
    Fabric.join fabric ~group:7 (Addr.Node i)
  done;
  Fabric.send fabric ports.(0) ~dst:(Addr.Group 7) ~bytes:10 ();
  Engine.run e;
  check_int "sender excluded" 0 (List.length probes.(0).got);
  check_int "member 1 got it" 1 (List.length probes.(1).got);
  check_int "member 2 got it" 1 (List.length probes.(2).got);
  check_int "sender tx counted once" 1 (Fabric.tx_packets ports.(0))

let test_fabric_tx_serialization_queues () =
  let e = Engine.create () in
  let fabric = Fabric.create e ~latency:0 () in
  let p = { got = [] } in
  let a = attach_probe fabric (Addr.Node 0) { got = [] } in
  let _b = attach_probe fabric (Addr.Node 1) ~rate:10. p in
  (* Two 1250-byte-wire packets back to back: second arrives ~1us later. *)
  Fabric.send fabric a ~dst:(Addr.Node 1) ~bytes:(1250 - 64) ();
  Fabric.send fabric a ~dst:(Addr.Node 1) ~bytes:(1250 - 64) ();
  Engine.run e;
  check_int "both delivered" 2 (List.length p.got);
  (* total = 2 tx serializations + 1 rx (overlapped) + final rx *)
  check "second delayed by serialization" true (Engine.now e >= 2000)

let test_fabric_unknown_dst_dropped () =
  let e = Engine.create () in
  let fabric = Fabric.create e () in
  let a = attach_probe fabric (Addr.Node 0) { got = [] } in
  Fabric.send fabric a ~dst:(Addr.Node 9) ~bytes:10 ();
  Engine.run e;
  check_int "drop counted at sender" 1 (Fabric.dropped a)

let test_fabric_down_port () =
  let e = Engine.create () in
  let fabric = Fabric.create e () in
  let p = { got = [] } in
  let a = attach_probe fabric (Addr.Node 0) { got = [] } in
  let b = attach_probe fabric (Addr.Node 1) p in
  Fabric.set_down b true;
  Fabric.send fabric a ~dst:(Addr.Node 1) ~bytes:10 ();
  Engine.run e;
  check_int "down port drops" 0 (List.length p.got);
  check_int "drop counted at receiver" 1 (Fabric.dropped b);
  Fabric.set_down b false;
  Fabric.send fabric a ~dst:(Addr.Node 1) ~bytes:10 ();
  Engine.run e;
  check_int "revived port receives" 1 (List.length p.got)

let test_fabric_leave_group () =
  let e = Engine.create () in
  let fabric = Fabric.create e () in
  let p1 = { got = [] } and p2 = { got = [] } in
  let a = attach_probe fabric (Addr.Node 0) { got = [] } in
  let _ = attach_probe fabric (Addr.Node 1) p1 in
  let _ = attach_probe fabric (Addr.Node 2) p2 in
  Fabric.join fabric ~group:1 (Addr.Node 1);
  Fabric.join fabric ~group:1 (Addr.Node 2);
  Fabric.leave fabric ~group:1 (Addr.Node 2);
  Fabric.send fabric a ~dst:(Addr.Group 1) ~bytes:10 ();
  Engine.run e;
  check_int "member kept" 1 (List.length p1.got);
  check_int "left member skipped" 0 (List.length p2.got)

(* Ports sit in arrays by address kind and index: attached out of order
   with gaps, they still list in [Addr.compare] order, a re-attached
   address replaces its port, and a multicast reaches its members
   latest-join first (the order fault draws and deliveries follow). *)
let test_fabric_port_order () =
  let e = Engine.create () in
  let fabric = Fabric.create e () in
  let addrs =
    Addr.[ Group 3; Client 7; Router; Node 5; Middlebox; Client 0; Node 1; Netagg; Node 5 ]
  in
  List.iter (fun a -> ignore (attach_probe fabric a { got = [] })) addrs;
  Alcotest.(check (list string))
    "sorted, one port per address"
    (List.map Addr.to_string (List.sort_uniq Addr.compare addrs))
    (List.map (fun (a, _) -> Addr.to_string a) (Fabric.ports fabric));
  let order = ref [] in
  let src = attach_probe fabric (Addr.Node 0) { got = [] } in
  List.iter
    (fun a ->
      ignore
        (Fabric.attach fabric ~addr:a ~rate_gbps:10. ~handler:(fun _ ->
             order := Addr.to_string a :: !order));
      Fabric.join fabric ~group:9 a)
    Addr.[ Node 5; Client 7; Node 1 ];
  Fabric.send fabric src ~dst:(Addr.Group 9) ~bytes:0 ();
  Engine.run e;
  Alcotest.(check (list string)) "latest join first" [ "node1"; "client7"; "node5" ]
    (List.rev !order)

let test_fabric_byte_counters () =
  let e = Engine.create () in
  let fabric = Fabric.create e () in
  let p = { got = [] } in
  let a = attach_probe fabric (Addr.Node 0) { got = [] } in
  let b = attach_probe fabric (Addr.Node 1) p in
  Fabric.send fabric a ~dst:(Addr.Node 1) ~bytes:100 ();
  Engine.run e;
  check_int "tx wire bytes include overhead" (100 + Wire.frame_overhead)
    (Fabric.tx_wire_bytes a);
  check_int "rx wire bytes match" (100 + Wire.frame_overhead) (Fabric.rx_wire_bytes b)

(* --- fault injection -------------------------------------------------- *)

let test_fabric_link_drop () =
  let e = Engine.create () in
  let fabric = Fabric.create e () in
  let p = { got = [] } in
  let a = attach_probe fabric (Addr.Node 0) { got = [] } in
  let _b = attach_probe fabric (Addr.Node 1) p in
  Fabric.set_link_fault fabric ~src:(Addr.Node 0) ~dst:(Addr.Node 1) ~drop:1. ();
  for _ = 1 to 10 do
    Fabric.send fabric a ~dst:(Addr.Node 1) ~bytes:10 ()
  done;
  Engine.run e;
  check_int "all dropped" 0 (List.length p.got);
  check_int "drops counted" 10 (Fabric.injected_drops fabric);
  Fabric.clear_link_faults fabric;
  Fabric.send fabric a ~dst:(Addr.Node 1) ~bytes:10 ();
  Engine.run e;
  check_int "cleared link delivers" 1 (List.length p.got)

let test_fabric_link_delay_directional () =
  let e = Engine.create () in
  let fabric = Fabric.create e ~latency:1000 () in
  let pa = { got = [] } and pb = { got = [] } in
  let a = attach_probe fabric (Addr.Node 0) pa in
  let b = attach_probe fabric (Addr.Node 1) pb in
  Fabric.set_link_fault fabric ~src:(Addr.Node 0) ~dst:(Addr.Node 1)
    ~delay:5000 ();
  Fabric.send fabric a ~dst:(Addr.Node 1) ~bytes:36 ();
  Engine.run e;
  (* tx serialization + latency + injected delay + rx serialization *)
  check_int "delayed arrival" (80 + 1000 + 5000 + 80) (Engine.now e);
  (* The reverse direction is unimpaired. *)
  let t0 = Engine.now e in
  Fabric.send fabric b ~dst:(Addr.Node 0) ~bytes:36 ();
  Engine.run e;
  check_int "reverse unimpaired" (t0 + 80 + 1000 + 80) (Engine.now e);
  check_int "both delivered" 2 (List.length pa.got + List.length pb.got)

let test_fabric_partition_heal () =
  let e = Engine.create () in
  let fabric = Fabric.create e () in
  let probes = Array.init 3 (fun _ -> { got = [] }) in
  let ports =
    Array.init 3 (fun i -> attach_probe fabric (Addr.Node i) probes.(i))
  in
  let client = { got = [] } in
  let cport = attach_probe fabric (Addr.Client 0) client in
  Fabric.partition fabric [ [ Addr.Node 0; Addr.Node 1 ]; [ Addr.Node 2 ] ];
  check "partitioned" true (Fabric.partitioned fabric);
  check "cross-island unreachable" false
    (Fabric.reachable fabric (Addr.Node 0) (Addr.Node 2));
  check "same island reachable" true
    (Fabric.reachable fabric (Addr.Node 0) (Addr.Node 1));
  check "unassigned reaches everyone" true
    (Fabric.reachable fabric (Addr.Client 0) (Addr.Node 2));
  Fabric.send fabric ports.(0) ~dst:(Addr.Node 2) ~bytes:10 ();
  Fabric.send fabric ports.(0) ~dst:(Addr.Node 1) ~bytes:10 ();
  Fabric.send fabric cport ~dst:(Addr.Node 2) ~bytes:10 ();
  Engine.run e;
  check_int "cross-island dropped" 0 (List.length probes.(2).got - 1);
  check_int "partition drops counted" 1 (Fabric.partition_drops fabric);
  check_int "same island delivered" 1 (List.length probes.(1).got);
  Fabric.heal fabric;
  check "healed" false (Fabric.partitioned fabric);
  Fabric.send fabric ports.(0) ~dst:(Addr.Node 2) ~bytes:10 ();
  Engine.run e;
  check_int "healed link delivers" 2 (List.length probes.(2).got)

let test_fabric_fault_free_untouched () =
  (* The fault RNG must not be consumed unless a lossy fault is installed:
     a fault-free run is byte-identical whatever the fault seed. *)
  let run fault_seed =
    let e = Engine.create () in
    let fabric = Fabric.create e ~fault_seed () in
    let p = { got = [] } in
    let a = attach_probe fabric (Addr.Node 0) { got = [] } in
    let _ = attach_probe fabric (Addr.Node 1) p in
    Fabric.set_link_fault fabric ~src:(Addr.Node 0) ~dst:(Addr.Node 1)
      ~delay:100 ();
    for _ = 1 to 5 do
      Fabric.send fabric a ~dst:(Addr.Node 1) ~bytes:10 ()
    done;
    Engine.run e;
    p.got
  in
  check "delay-only faults draw no randomness" true (run 1 = run 2)

let suite =
  [
    Alcotest.test_case "addr equality and hashing" `Quick test_addr_equal_hash;
    Alcotest.test_case "addr printing" `Quick test_addr_to_string;
    Alcotest.test_case "wire framing" `Quick test_wire_framing;
    Alcotest.test_case "wire serialization" `Quick test_wire_serialization;
    Alcotest.test_case "wire 6kB ~200kRPS bound" `Quick test_wire_6kb_rate_bound;
    Alcotest.test_case "cpu serializes FIFO" `Quick test_cpu_serializes;
    Alcotest.test_case "cpu idle gap" `Quick test_cpu_idle_gap;
    Alcotest.test_case "cpu halt" `Quick test_cpu_halt;
    Alcotest.test_case "cpu backlog" `Quick test_cpu_backlog;
    Alcotest.test_case "fabric unicast latency" `Quick test_fabric_unicast_latency;
    Alcotest.test_case "fabric multicast excludes sender" `Quick
      test_fabric_multicast_excludes_sender;
    Alcotest.test_case "fabric tx serialization queues" `Quick
      test_fabric_tx_serialization_queues;
    Alcotest.test_case "fabric unknown destination" `Quick
      test_fabric_unknown_dst_dropped;
    Alcotest.test_case "fabric down port" `Quick test_fabric_down_port;
    Alcotest.test_case "fabric leave group" `Quick test_fabric_leave_group;
    Alcotest.test_case "fabric byte counters" `Quick test_fabric_byte_counters;
    Alcotest.test_case "fabric port order and group order" `Quick test_fabric_port_order;
    Alcotest.test_case "fabric link drop fault" `Quick test_fabric_link_drop;
    Alcotest.test_case "fabric link delay fault" `Quick
      test_fabric_link_delay_directional;
    Alcotest.test_case "fabric partition and heal" `Quick
      test_fabric_partition_heal;
    Alcotest.test_case "fabric fault-free determinism" `Quick
      test_fabric_fault_free_untouched;
  ]
