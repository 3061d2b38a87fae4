open Hovercraft_sim
open Hovercraft_r2p2
open Hovercraft_core
module Addr = Hovercraft_net.Addr
module Fabric = Hovercraft_net.Fabric
module Op = Hovercraft_apps.Op
module Metrics = Hovercraft_obs.Metrics

(* One client endpoint = one id source + a port on EVERY group's fabric
   (the groups are separate fabrics; a real client has one NIC reaching
   all of them, so each port gets the full client link rate). Ids stay
   globally unique across groups. Endpoint [i] sends as [Addr.Client i]. *)
type endpoint = {
  ports : Protocol.payload Fabric.port array; (* index = group *)
  ids : R2p2.Id_source.t;
}

type report = {
  offered_rps : float;
  sent : int;
  completed : int;
  nacked : int;
  lost : int;
  goodput_rps : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  max_us : float;
}

type t = {
  groups : Deploy.t array;
  route : R2p2.req_id -> Op.t -> int;
  tally : Op.t -> unit;
  engine : Engine.t;
  mutable endpoints : endpoint array;
  rate_rps : float;
  profile : Traffic.profile option;
  mutable run_start : Timebase.t;
  workload : Rng.t -> Op.t;
  target : Addr.t option;
  unrestricted_reads : bool;
  retry : (Timebase.t * int) option;
  on_reply :
    (rid:R2p2.req_id -> op:Op.t -> sent_at:Timebase.t -> latency:Timebase.t -> unit)
    option;
  on_nack : (at:Timebase.t -> unit) option;
  rng : Rng.t;
  outstanding : Op.t Rid_table.t; (* stamped with the first send *)
  backoff : Timebase.t Rid_table.t; (* per-rid reroute backoff *)
  stats : Stats.t;
  metrics : Metrics.t;
  c_sent : Metrics.counter;
  c_completed : Metrics.counter;
  c_nacked : Metrics.counter;
  c_retried : Metrics.counter;
  c_lost : Metrics.counter;
  (* Outside the registry: a single group never reroutes, and its
     snapshot should not carry a counter that is always zero. *)
  mutable rerouted : int;
  h_latency_ns : Metrics.histogram;
  w_latency : Metrics.windowed;
  w_groups : Metrics.windowed array; (* index = owning group at reply time *)
  mutable measure_from : Timebase.t;
  mutable measure_to : Timebase.t;
  mutable next_endpoint : int;
}

let client_link_gbps = 10.

let in_window t sent_at = sent_at >= t.measure_from && sent_at <= t.measure_to
let endpoint t (rid : R2p2.req_id) = t.endpoints.(Addr.index rid.src_addr)

let transmit t ep rid op =
  t.tally op;
  let g = t.route rid op in
  let group = t.groups.(g) in
  let unrestricted = t.unrestricted_reads && Op.read_only op in
  let policy =
    if unrestricted then R2p2.Unrestricted
    else if Op.read_only op then R2p2.Replicated_req_r
    else R2p2.Replicated_req
  in
  let payload = Protocol.Request { rid; policy; op } in
  let bytes = Protocol.payload_bytes ~with_bodies:false payload in
  let dst =
    if unrestricted then Addr.Router
    else
      match t.target with Some a -> a | None -> Deploy.client_target group
  in
  Fabric.send group.Deploy.fabric ep.ports.(g) ~dst ~bytes payload

(* A Wrong_shard NACK means the map moved (or a migration fence is up):
   re-route against the (shared, live) map. During the fence window the
   owning group still refuses fresh requests, so back off exponentially —
   the retransmission keeps the SAME rid, making the eventual landing
   exactly-once. *)
let reroute_base = Timebase.us 10
let reroute_cap = Timebase.ms 2

let on_wrong_shard t rid =
  let h = Rid_table.find t.outstanding rid in
  if not (Rid_table.is_nil h) then begin
    let op = Rid_table.value t.outstanding h in
    t.rerouted <- t.rerouted + 1;
    let b = Rid_table.find t.backoff rid in
    let delay =
      if Rid_table.is_nil b then reroute_base
      else min reroute_cap (2 * Rid_table.value t.backoff b)
    in
    Rid_table.remove_node t.backoff b;
    ignore (Rid_table.add t.backoff rid delay ~stamp:0 ~list:0);
    Engine.after t.engine delay (fun () ->
        if Rid_table.mem t.outstanding rid then transmit t (endpoint t rid) rid op)
  end

(* A request's final answer (reply or NACK) retires it and its reroute
   backoff. Duplicates and answers to retired requests find no entry. *)
let retire t rid h =
  Rid_table.remove_node t.outstanding h;
  if Rid_table.length t.backoff > 0 then Rid_table.remove t.backoff rid

let on_packet t (pkt : Protocol.payload Fabric.packet) =
  let now = Engine.now t.engine in
  match pkt.payload with
  | Protocol.Response { rid } ->
      let h = Rid_table.find t.outstanding rid in
      if not (Rid_table.is_nil h) then begin
        let sent_at = Rid_table.stamp t.outstanding h in
        let op = Rid_table.value t.outstanding h in
        retire t rid h;
        let latency = now - sent_at in
        (* Window membership is decided by when the request was SENT, not
           when the reply arrived: replies landing after measure_to (e.g.
           during drain) still belong to the run. Gating on arrival would
           silently drop exactly the slowest completions and bias every
           tail percentile downward. *)
        if in_window t sent_at then begin
          Metrics.incr t.c_completed;
          Stats.add t.stats latency;
          Metrics.observe t.h_latency_ns latency;
          Metrics.wobserve t.w_latency latency;
          Metrics.wobserve t.w_groups.(t.route rid op) latency;
          match t.on_reply with
          | Some f -> f ~rid ~op ~sent_at ~latency
          | None -> ()
        end
      end
  | Protocol.Nack { rid } ->
      let h = Rid_table.find t.outstanding rid in
      if not (Rid_table.is_nil h) then begin
        let sent_at = Rid_table.stamp t.outstanding h in
        retire t rid h;
        if in_window t sent_at then begin
          Metrics.incr t.c_nacked;
          match t.on_nack with Some f -> f ~at:now | None -> ()
        end
      end
  | Protocol.Wrong_shard { rid; _ } -> on_wrong_shard t rid
  | Protocol.Request _ | Protocol.Raft _ | Protocol.Recovery_request _
  | Protocol.Recovery_response _ | Protocol.Probe _ | Protocol.Probe_reply _
  | Protocol.Agg_commit _ | Protocol.Feedback _ | Protocol.Reconfig _ | Protocol.Rabia _ ->
      ()

let make groups ~route ~tally ~clients ~rate_rps ~profile ~workload ~target
    ~unrestricted_reads ~retry ~on_reply ~on_nack ~seed =
  if Array.length groups = 0 then invalid_arg "Loadgen.create: need at least one group";
  if clients <= 0 then invalid_arg "Loadgen.create: need at least one client";
  if rate_rps <= 0. then invalid_arg "Loadgen.create: rate must be positive";
  let metrics = Metrics.create () in
  let t =
    {
      groups;
      route;
      tally;
      engine = groups.(0).Deploy.engine;
      endpoints = [||];
      rate_rps;
      profile;
      run_start = 0;
      workload;
      target;
      unrestricted_reads;
      retry;
      on_reply;
      on_nack;
      rng = Rng.create seed;
      outstanding = Rid_table.create ~capacity:4096 ~lists:1 ();
      backoff = Rid_table.create ~capacity:64 ~lists:1 ();
      stats = Stats.create ();
      metrics;
      c_sent = Metrics.counter metrics "sent";
      c_completed = Metrics.counter metrics "completed";
      c_nacked = Metrics.counter metrics "nacked";
      c_retried = Metrics.counter metrics "retried";
      c_lost = Metrics.counter metrics "lost";
      rerouted = 0;
      h_latency_ns = Metrics.histogram metrics "latency_ns";
      w_latency = Metrics.windowed metrics "latency_ns_window";
      w_groups =
        Array.mapi
          (fun g _ -> Metrics.windowed metrics (Printf.sprintf "g%d_latency_ns_window" g))
          groups;
      measure_from = max_int;
      measure_to = max_int;
      next_endpoint = 0;
    }
  in
  t.endpoints <-
    Array.init clients (fun i ->
        let addr = Addr.Client i in
        {
          ports =
            Array.map
              (fun (d : Deploy.t) ->
                Fabric.attach d.Deploy.fabric ~addr ~rate_gbps:client_link_gbps
                  ~handler:(on_packet t))
              groups;
          ids = R2p2.Id_source.create ~src_addr:addr ~src_port:(1000 + i);
        });
  t

let create deploy ~clients ~rate_rps ?profile ~workload ?target
    ?(unrestricted_reads = false) ?retry ?on_reply ?on_nack ~seed () =
  make [| deploy |]
    ~route:(fun _ _ -> 0)
    ~tally:ignore ~clients ~rate_rps ~profile ~workload ~target
    ~unrestricted_reads ~retry ~on_reply ~on_nack ~seed

let create_routed groups ~route ~tally ~clients ~rate_rps ~profile ~workload
    ~retry ~on_reply ~on_nack ~seed =
  make groups ~route ~tally ~clients ~rate_rps ~profile ~workload ~target:None
    ~unrestricted_reads:false ~retry ~on_reply ~on_nack ~seed

(* Retransmit with the same request id until answered or out of
   attempts. *)
let rec arm_retry t ep rid op attempts_left =
  match t.retry with
  | None -> ()
  | Some (timeout, _) ->
      Engine.after t.engine timeout (fun () ->
          if Rid_table.mem t.outstanding rid then
            if attempts_left > 0 then begin
              Metrics.incr t.c_retried;
              transmit t ep rid op;
              arm_retry t ep rid op (attempts_left - 1)
            end
            else
              (* Retry budget exhausted: the rid will never be
                 retransmitted, so its reroute-backoff entry is dead.
                 Without this, rids that die mid-migration (rerouted at
                 least once, then lost) leak a table entry forever —
                 only the reply/NACK paths clear it. *)
              Rid_table.remove t.backoff rid)

let send_one t =
  let ep = t.endpoints.(t.next_endpoint) in
  t.next_endpoint <- (t.next_endpoint + 1) mod Array.length t.endpoints;
  let op = t.workload t.rng in
  let rid = R2p2.Id_source.next ep.ids in
  ignore (Rid_table.add t.outstanding rid op ~stamp:(Engine.now t.engine) ~list:0);
  Metrics.incr t.c_sent;
  transmit t ep rid op;
  match t.retry with
  | Some (_, attempts) -> arm_retry t ep rid op attempts
  | None -> ()

(* The same exponential draw whether or not a profile is installed — a
   profile only substitutes the instantaneous rate, so constant-rate runs
   consume the identical RNG stream and stay byte-identical. *)
let interarrival t =
  let u = 1.0 -. Rng.float t.rng in
  let rate =
    match t.profile with
    | None -> t.rate_rps
    | Some p -> Traffic.rate_at p (Engine.now t.engine - t.run_start)
  in
  let gap_ns = -.log u *. 1e9 /. rate in
  max 1 (int_of_float gap_ns)

let run t ~warmup ~duration ?(drain = Timebase.ms 20) () =
  let start = Engine.now t.engine in
  let stop_at = start + duration in
  t.run_start <- start;
  t.measure_from <- start + warmup;
  t.measure_to <- stop_at;
  let rec arrival () =
    if Engine.now t.engine < stop_at then begin
      send_one t;
      Engine.after t.engine (interarrival t) arrival
    end
  in
  Engine.after t.engine (interarrival t) arrival;
  Engine.run ~until:(stop_at + drain) t.engine;
  (* Anything still outstanding that was sent inside the measurement window
     never got an answer: report it as lost instead of pretending the
     window was clean. *)
  let lost = ref 0 in
  Rid_table.iter_list t.outstanding 0 (fun h ->
      if in_window t (Rid_table.stamp t.outstanding h) then incr lost);
  Metrics.add t.c_lost !lost;
  (* Client teardown: whatever is still in flight when the run ends was
     just counted as lost; its backoff state must not outlive it, and the
     in-flight table keeps its entries (a late reply still retires one)
     but gives back the storage its peak needed. *)
  Rid_table.reset t.backoff;
  Rid_table.trim t.outstanding;
  let completed = Metrics.value t.c_completed in
  let window_s = Timebase.to_s_f (t.measure_to - t.measure_from) in
  let pct p = if Stats.count t.stats = 0 then 0. else Timebase.to_us_f (Stats.percentile t.stats p) in
  let offered =
    match t.profile with
    | None -> t.rate_rps
    | Some p -> Traffic.mean_over p ~duration
  in
  {
    offered_rps = offered;
    sent = Metrics.value t.c_sent;
    completed;
    nacked = Metrics.value t.c_nacked;
    lost = !lost;
    goodput_rps = (if window_s > 0. then float_of_int completed /. window_s else 0.);
    mean_us = Stats.mean t.stats /. 1e3;
    p50_us = pct 0.5;
    p99_us = pct 0.99;
    max_us = Timebase.to_us_f (Stats.max_sample t.stats);
  }

let stats t = t.stats
let latency_window t = t.w_latency

let group_latency_window t g =
  if g < 0 || g >= Array.length t.w_groups then
    invalid_arg "Loadgen.group_latency_window: unknown group";
  t.w_groups.(g)

let retried t = Metrics.value t.c_retried
let rerouted t = t.rerouted
let backoff_entries t = Rid_table.length t.backoff
let metrics t = t.metrics
let snapshot t = Metrics.snapshot t.metrics
