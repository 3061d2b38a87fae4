(* Per-layer measurement, all of it from outside the program:

   (a) timers around the closures the benchmark hands the system (the
       workload generator and the reply callback);
   (b) a probe the benchmark schedules every simulated millisecond with
       the public [Engine.after], sampling the wall clock and
       [Engine.pending];
   (c) public observers read after the run (node CPU and stage busy
       times, rx census, fabric port counters, load-generator retries);
   (d) replays of each layer's public entry points at the run's input
       shape, reported as the median of 7 batches in ns and minor words
       per call. *)

open Hovercraft_sim
open Hovercraft_core
module Op = Hovercraft_apps.Op
module Deploy = Hovercraft_cluster.Deploy
module Fabric = Hovercraft_net.Fabric
module Addr = Hovercraft_net.Addr
module Cpu = Hovercraft_net.Cpu
module Metrics = Hovercraft_obs.Metrics
module Json = Hovercraft_obs.Json
module Rnode = Hovercraft_raft.Node
module R2p2 = Hovercraft_r2p2.R2p2
module Jbsq = Hovercraft_r2p2.Jbsq

(* The per-call timers of (a) and (b) read the wall clock: reading
   processor time is a system call costing several times the closures
   it would time. Replays are timed per batch, in processor time. *)
let now = Unix.gettimeofday

(* --- (a) closure timers ------------------------------------------- *)

let recorded_max = 100_000

type closures = {
  mutable gen_calls : int;
  mutable gen_s : float;
  ops : Op.t Queue.t;  (** The first [recorded_max] generated ops. *)
  mutable reply_calls : int;
  mutable reply_s : float;
}

let closures () =
  { gen_calls = 0; gen_s = 0.; ops = Queue.create (); reply_calls = 0; reply_s = 0. }

let wrap_workload c (w : Rng.t -> Op.t) rng =
  let t0 = now () in
  let op = w rng in
  c.gen_s <- c.gen_s +. (now () -. t0);
  c.gen_calls <- c.gen_calls + 1;
  if Queue.length c.ops < recorded_max then Queue.push op c.ops;
  op

let wrap_on_reply c f ~rid ~op ~sent_at ~latency =
  let t0 = now () in
  f ~rid ~op ~sent_at ~latency;
  c.reply_s <- c.reply_s +. (now () -. t0);
  c.reply_calls <- c.reply_calls + 1

(* --- (b) the per-simulated-millisecond probe ------------------------ *)

type probe = {
  mutable samples : int;
  mutable pending_sum : int;
  mutable pending_max : int;
  mutable last_wall : float;
  mutable gaps_ns : float list;  (** Wall ns per simulated ms. *)
}

let probe_every = Timebase.ms 1

let attach_probe engine ~until =
  let p =
    { samples = 0; pending_sum = 0; pending_max = 0; last_wall = now (); gaps_ns = [] }
  in
  let rec tick () =
    let w = now () in
    let pending = Engine.pending engine in
    p.samples <- p.samples + 1;
    p.pending_sum <- p.pending_sum + pending;
    p.pending_max <- max p.pending_max pending;
    p.gaps_ns <- ((w -. p.last_wall) *. 1e9) :: p.gaps_ns;
    p.last_wall <- w;
    if Engine.now engine + probe_every <= until then
      Engine.after engine probe_every tick
  in
  Engine.after engine probe_every tick;
  p

let pending_mean p =
  if p.samples = 0 then 0. else float_of_int p.pending_sum /. float_of_int p.samples

let percentile xs q =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      a.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* --- (c) observers ------------------------------------------------- *)

(* Busy times are cumulative from node creation, so the run's share is
   the difference across it. *)
type busy = {
  net : int array;
  app : int array;
  stages : (string * int) list array;
  apply : int array array;
}

let busy_of (d : Deploy.t) =
  let nodes = d.Deploy.nodes in
  {
    net = Array.map Hnode.net_busy_time nodes;
    app = Array.map Hnode.app_busy_time nodes;
    stages = Array.map Hnode.stage_busy_times nodes;
    apply = Array.map Hnode.apply_busy_times nodes;
  }

let census node tag =
  match List.assoc_opt tag (Hnode.rx_census node) with Some v -> v | None -> 0

let sum_nodes (d : Deploy.t) f =
  Array.fold_left (fun acc n -> acc + f n) 0 d.Deploy.nodes

(* Counter increments and histogram samples in a registry: the calls the
   run made into the obs layer. *)
let obs_updates m =
  let counters = List.fold_left (fun acc (_, v) -> acc + v) 0 (Metrics.counters m) in
  let hists =
    match Json.member "histograms" (Metrics.snapshot m) with
    | Some (Json.Obj hs) ->
        List.fold_left
          (fun acc (_, h) ->
            match Json.member "count" h with Some (Json.Int c) -> acc + c | _ -> acc)
          0 hs
    | _ -> 0
  in
  counters + hists

(* What the observers say about one reference run on a single-group
   deployment. [before] is the busy census taken when load started,
   [elapsed] the simulated time since, [leader] the node leading at the
   end (after a failover, the new leader). *)
let observe (d : Deploy.t) ~before ~elapsed ~leader ~sent ~completed
    ~loadgen_metrics ~retried =
  let after = busy_of d in
  let req = float_of_int (max 1 sent) in
  let kreq = req /. 1e3 in
  let span = float_of_int (max 1 elapsed) in
  let nodes = d.Deploy.nodes in
  let util a b i cpus = float_of_int (b.(i) - a.(i)) /. (span *. float_of_int cpus) in
  let followers = List.filter (fun i -> i <> leader) (List.init (Array.length nodes) Fun.id) in
  let mean_over is f =
    match is with
    | [] -> 0.
    | _ -> List.fold_left (fun acc i -> acc +. f i) 0. is /. float_of_int (List.length is)
  in
  let stages = Hnode.net_stages nodes.(leader) in
  let apply_k = Hnode.apply_threads nodes.(leader) in
  let ports = Fabric.ports d.Deploy.fabric in
  let port_sum f = List.fold_left (fun acc (_, p) -> acc + f p) 0 ports in
  let leader_port = Hnode.port nodes.(leader) in
  let stage_util role =
    match
      ( List.assoc_opt role before.stages.(leader),
        List.assoc_opt role after.stages.(leader) )
    with
    | Some a, Some b -> float_of_int (b - a) /. span
    | _ -> 0.
  in
  let apply_util_max =
    let a = before.apply.(leader) and b = after.apply.(leader) in
    let m = ref 0. in
    Array.iteri (fun k bk -> m := Float.max !m (float_of_int (bk - a.(k)) /. span)) b;
    !m
  in
  let follower_applied = List.fold_left (fun acc i -> acc + Hnode.applied_index nodes.(i)) 0 followers in
  let follower_ae = List.fold_left (fun acc i -> acc + census nodes.(i) "append_entries") 0 followers in
  let replies = sum_nodes d Hnode.replies_sent in
  let obs =
    obs_updates loadgen_metrics
    + Array.fold_left (fun acc n -> acc + obs_updates (Hnode.metrics n)) 0 nodes
  in
  [
    ("net.ports", float_of_int (List.length ports));
    ("net.pkts_per_req", float_of_int (port_sum Fabric.rx_packets) /. req);
    ("net.wire_bytes_per_req", float_of_int (port_sum Fabric.rx_wire_bytes) /. req);
    ("net.leader_rx_per_req", float_of_int (Fabric.rx_packets leader_port) /. req);
    ("net.leader_tx_per_req", float_of_int (Fabric.tx_packets leader_port) /. req);
    ( "raft.entries_per_ae",
      if follower_ae = 0 then 0. else float_of_int follower_applied /. float_of_int follower_ae );
    ( "raft.elections",
      float_of_int (sum_nodes d (fun n -> Metrics.counter_value (Hnode.metrics n) "elections_started")) );
    ("core.leader_net_util", util before.net after.net leader stages);
    ("core.leader_app_util", util before.app after.app leader apply_k);
    ("core.follower_net_util", mean_over followers (fun i -> util before.net after.net i stages));
    ("core.follower_app_util", mean_over followers (fun i -> util before.app after.app i apply_k));
    ( "core.leader_reply_share",
      if replies = 0 then 0.
      else float_of_int (Hnode.replies_sent nodes.(leader)) /. float_of_int replies );
    ("core.stage_util.ingress", stage_util "ingress");
    ("core.stage_util.sequencer", stage_util "sequencer");
    ("core.stage_util.fanout", stage_util "fanout");
    ("core.stage_util.replier", stage_util "replier");
    ("core.apply_util_max", apply_util_max);
    ("core.apply_stalls_per_kreq", float_of_int (sum_nodes d Hnode.apply_stalls) /. kreq);
    ("core.recoveries_per_kreq", float_of_int (sum_nodes d Hnode.recoveries_sent) /. kreq);
    ("core.recovery_escalations", float_of_int (sum_nodes d Hnode.recovery_escalations));
    ( "apps.executed_per_req",
      float_of_int (sum_nodes d (fun n -> Hnode.executed_ops n - Hnode.preloaded n))
      /. float_of_int (max 1 completed) );
    ("cluster.retries_per_kreq", float_of_int retried /. kreq);
    ("obs.updates_per_req", float_of_int obs /. req);
    ( "raft.committed_per_req",
      float_of_int (Hnode.commit_index nodes.(leader)) /. req );
  ]

(* --- (d) replays ---------------------------------------------------- *)

let batches = 7

(* Median ns and minor words per call over [batches] batches of [calls]
   calls each; [run] performs one batch. *)
let replay ~calls run =
  let per = float_of_int calls in
  let samples =
    List.init batches (fun _ ->
        let w0 = Gc.minor_words () in
        let (), s = Cell.timed run in
        let w1 = Gc.minor_words () in
        (s *. 1e9 /. per, (w1 -. w0) /. per))
  in
  (Cell.median (List.map fst samples), Cell.median (List.map snd samples))

(* Event dispatch at a steady queue depth: every event reschedules one
   successor, so each step is one pop, one closure call and one push. *)
let engine_event ~depth =
  let e = Engine.create () in
  let rng = Rng.create 1 in
  let rec ev () = Engine.after e (1 + Rng.int rng 1_000_000) ev in
  for _ = 1 to depth do
    Engine.after e (1 + Rng.int rng 1_000_000) ev
  done;
  let calls = 200_000 in
  replay ~calls (fun () ->
      for _ = 1 to calls do
        ignore (Engine.step e)
      done)

let heap_op ~depth =
  let h = Heap.create () in
  let rng = Rng.create 2 in
  let seq = ref 0 in
  let push () =
    incr seq;
    Heap.push h ~key:(Rng.int rng 1_000_000_000) ~seq:!seq ()
  in
  for _ = 1 to depth do
    push ()
  done;
  let calls = 200_000 in
  replay ~calls (fun () ->
      for _ = 1 to calls do
        push ();
        ignore (Heap.pop h)
      done)

(* One fabric with as many ports as the run's, [bytes] per packet and
   the cluster's [n] nodes in the multicast group; a call is one send
   from a client port plus every delivery event it causes. *)
let fabric_send ~ports ~n ~bytes ~multicast =
  let e = Engine.create () in
  let f = Fabric.create e () in
  let attached =
    Array.init (max (n + 1) ports) (fun i ->
        Fabric.attach f ~addr:(Addr.Node i) ~rate_gbps:10. ~handler:ignore)
  in
  for i = 1 to n do
    Fabric.join f ~group:1 (Addr.Node i)
  done;
  let calls = 20_000 in
  replay ~calls (fun () ->
      for i = 1 to calls do
        let dst = if multicast then Addr.Group 1 else Addr.Node (1 + (i mod n)) in
        Fabric.send f attached.(0) ~dst ~bytes ()
      done;
      Engine.run e)

let cpu_exec () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let calls = 100_000 in
  replay ~calls (fun () ->
      for _ = 1 to calls do
        Cpu.exec cpu ~cost:100 ignore
      done;
      Engine.run e)

(* A netless 3-node Raft group committing [batch] commands per round:
   append, replicate, acknowledge, commit, report applied. *)
let raft_entry ~batch =
  let mk id =
    Rnode.create
      {
        Rnode.id;
        peers = Array.init 2 (fun i -> if i < id then i else i + 1);
        batch_max = 64;
        eager_commit_notify = false;
        snap_chunk_bytes = Hovercraft_net.Wire.snap_chunk_bytes;
      }
      ~noop:(-1)
  in
  let nodes = Array.init 3 mk in
  let bag = Queue.create () in
  let rec feed i input =
    List.iter
      (function
        | Rnode.Send (dst, msg) -> Queue.push (dst, msg) bag
        | Rnode.Commit_advanced c -> feed i (Rnode.Applied_up_to c)
        | _ -> ())
      (Rnode.handle nodes.(i) input)
  in
  let drain () =
    while not (Queue.is_empty bag) do
      let dst, msg = Queue.pop bag in
      feed dst (Rnode.Receive msg)
    done
  in
  feed 0 Rnode.Election_timeout;
  drain ();
  let rounds = max 1 (20_000 / batch) in
  replay ~calls:(rounds * batch) (fun () ->
      for _ = 1 to rounds do
        for _ = 1 to batch do
          feed 0 (Rnode.Client_command 1)
        done;
        drain ()
      done)

let unordered_req () =
  let clock = ref 0 in
  let store =
    Unordered.create ~now:(fun () -> !clock) ~gc_unordered:1_000_000
      ~gc_ordered:1_000_000 ()
  in
  let i = ref 0 in
  let calls = 200_000 in
  replay ~calls (fun () ->
      for _ = 1 to calls do
        incr i;
        let rid = { R2p2.id = !i; src_addr = Addr.Client 0; src_port = 0 } in
        Unordered.add store rid Op.Nop;
        ignore (Unordered.mark_ordered store rid);
        Unordered.remove store rid
      done)

let jbsq_pick ~n ~bound =
  let q = Jbsq.create Jbsq.Jbsq ~bound ~n ~rng:(Rng.create 3) in
  let calls = 200_000 in
  replay ~calls (fun () ->
      for _ = 1 to calls do
        match Jbsq.pick q with
        | Some i ->
            Jbsq.assign q i;
            Jbsq.complete q i
        | None -> ()
      done)

(* The recorded op stream applied to a replica state holding the cell's
   preload. *)
let apps_apply ~preload ~ops =
  let state = Op.create_state () in
  List.iter (fun op -> ignore (Op.apply state op)) preload;
  let ops = Array.of_seq (Queue.to_seq ops) in
  let calls = max 1 (Array.length ops) in
  replay ~calls (fun () -> Array.iter (fun op -> ignore (Op.apply state op)) ops)

let obs_observe () =
  let h = Metrics.histogram (Metrics.create ()) "latency_ns" in
  let calls = 1_000_000 in
  replay ~calls (fun () ->
      for i = 1 to calls do
        Metrics.observe h (10_000 + (i land 0xffff))
      done)
