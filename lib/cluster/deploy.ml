open Hovercraft_sim
open Hovercraft_core
module Addr = Hovercraft_net.Addr
module Fabric = Hovercraft_net.Fabric
module Trace = Hovercraft_obs.Trace
module Json = Hovercraft_obs.Json

type config = {
  fabric_latency : Timebase.t;
  flow_cap : int option;
  router_bound : int option;
  switch_gbps : float;
  trace : Trace.t option;
  engine : Engine.t option;
      (* Share an existing event engine instead of creating one: how a
         sharded deployment co-schedules several groups in one simulated
         timeline. None (the default) keeps the classic one-engine-per-
         deployment behavior. *)
  bootstrap : int;
      (* Which node opens the first election. Staggering this across
         co-located groups spreads initial leaders over distinct hosts. *)
  params : Hnode.params;
}

let config ?(fabric_latency = Timebase.us 1) ?flow_cap ?router_bound
    ?(switch_gbps = 100.) ?trace ?engine ?(bootstrap = 0) params =
  if fabric_latency < 0 then invalid_arg "Deploy.config: negative fabric latency";
  if switch_gbps <= 0. then invalid_arg "Deploy.config: switch_gbps must be positive";
  (match flow_cap with
  | Some c when c < 1 -> invalid_arg "Deploy.config: flow_cap must be >= 1"
  | Some _ | None -> ());
  (match router_bound with
  | Some b when b < 1 -> invalid_arg "Deploy.config: router_bound must be >= 1"
  | Some _ | None -> ());
  if bootstrap < 0 || bootstrap >= params.Hnode.n then
    invalid_arg "Deploy.config: bootstrap node outside the initial membership";
  Hnode.validate_params params;
  { fabric_latency; flow_cap; router_bound; switch_gbps; trace; engine;
    bootstrap; params }

type t = {
  engine : Engine.t;
  fabric : Protocol.payload Fabric.t;
  mutable nodes : Hnode.t array;
      (* Index = node id. Grows on add_node; removed nodes stay in place,
         dead, so ids are never reused. *)
  aggregator : Aggregator.t option;
  flow : Flow_control.t option;
  router : Router.t option;
  params : Hnode.params;
  cfg : config;
  trace : Trace.t;
  removed : (int, unit) Hashtbl.t;
      (* Nodes whose removal from the configuration completed: dead for
         good, never restarted by failure/chaos epilogues. *)
  mutable last_leader : int option;
}

let followers_group = 1

let leader t =
  let l =
    Array.to_seq t.nodes
    |> Seq.filter (fun n -> Hnode.alive n && Hnode.is_leader n)
    |> fun s -> Seq.uncons s |> Option.map fst
  in
  (match l with Some n -> t.last_leader <- Some (Hnode.id n) | None -> ());
  l

let live_nodes t = Array.to_list t.nodes |> List.filter Hnode.alive

let create (cfg : config) =
  let params = cfg.params in
  let engine =
    match cfg.engine with Some e -> e | None -> Engine.create ()
  in
  let fabric = Fabric.create engine ~latency:cfg.fabric_latency () in
  (* One shared ring for the whole cluster: events from every node
     interleave in simulated-time order, which is what you want when
     reading a failure timeline. *)
  let trace =
    match cfg.trace with
    | Some tr -> tr
    | None -> Trace.create ~level:Trace.Info ()
  in
  let nodes =
    Array.init params.Hnode.n (fun id ->
        Hnode.create ~trace engine fabric params ~id)
  in
  let aggregator =
    match params.Hnode.mode with
    | Hnode.Hover_pp ->
        Some
          (Aggregator.create engine fabric
             ~members:(List.init params.Hnode.n (fun i -> i))
             ~cluster_group:Addr.cluster_group ~followers_group
             ~rate_gbps:cfg.switch_gbps)
    | Hnode.Unreplicated | Hnode.Vanilla | Hnode.Hover -> None
  in
  let flow =
    match cfg.flow_cap with
    | Some cap ->
        Some
          (Flow_control.create engine fabric ~cap ~group:Addr.cluster_group
             ~rate_gbps:cfg.switch_gbps)
    | None -> None
  in
  let router =
    match cfg.router_bound with
    | Some bound ->
        Some
          (Router.create engine fabric ~n:params.Hnode.n ~bound
             ~rate_gbps:cfg.switch_gbps ())
    | None -> None
  in
  let t =
    {
      engine;
      fabric;
      nodes;
      aggregator;
      flow;
      router;
      params;
      cfg;
      trace;
      removed = Hashtbl.create 8;
      last_leader = None;
    }
  in
  (match params.Hnode.mode with
  | Hnode.Unreplicated -> ()
  | Hnode.Vanilla | Hnode.Hover | Hnode.Hover_pp ->
      Hnode.bootstrap nodes.(cfg.bootstrap);
      (* Let leadership (and the aggregator probe) settle. *)
      Engine.run ~until:(Engine.now engine + Timebase.ms 5) engine);
  t

let client_target t =
  match (t.params.Hnode.mode, t.flow) with
  | (Hnode.Unreplicated | Hnode.Vanilla), _ -> (
      match leader t with
      | Some n -> Addr.Node (Hnode.id n)
      | None -> (
          (* Leaderless (mid-election). Unicasting at a fixed node 0 would
             pour the whole blackout into a dead port whenever node 0 is
             the killed leader; follow a live node's leader hint instead,
             and failing that address any live node (a follower rejects
             the request, which at least surfaces as a visible NACK-like
             signal rather than silence). *)
          let live = live_nodes t in
          let hinted =
            List.find_map
              (fun n ->
                match Hnode.leader_hint n with
                | Some l
                  when l >= 0
                       && l < Array.length t.nodes
                       && Hnode.alive t.nodes.(l) ->
                    Some (Addr.Node l)
                | Some _ | None -> None)
              live
          in
          match (hinted, live) with
          | Some a, _ -> a
          | None, n :: _ -> Addr.Node (Hnode.id n)
          | None, [] -> Addr.Node 0))
  | (Hnode.Hover | Hnode.Hover_pp), Some _ -> Addr.Middlebox
  | (Hnode.Hover | Hnode.Hover_pp), None -> Addr.Group Addr.cluster_group

let total_replies t =
  Array.fold_left (fun acc n -> acc + Hnode.replies_sent n) 0 t.nodes

let total_executed t =
  Array.fold_left (fun acc n -> acc + Hnode.executed_ops n) 0 t.nodes

let consistent t =
  let live = Array.to_list t.nodes |> List.filter Hnode.alive in
  match live with
  | [] -> true
  | first :: rest ->
      let f = Hnode.app_fingerprint first in
      List.for_all (fun n -> Hnode.app_fingerprint n = f) rest

let quiesce t ?(extra = Timebase.ms 20) () =
  Engine.run ~until:(Engine.now t.engine + extra) t.engine

let kill_node t i = Hnode.kill t.nodes.(i)
let restart_node t i = Hnode.restart t.nodes.(i)
let is_removed t i = Hashtbl.mem t.removed i

let kill_leader t =
  let kill n =
    Hnode.kill n;
    Some (Hnode.id n)
  in
  match leader t with
  | Some n -> kill n
  | None -> (
      (* Mid-election there is nobody wearing the crown, but returning
         None would let a failure experiment run with zero faults
         injected. Kill the last node known to have led; if that one is
         already dead, the live node with the highest term is the most
         likely next leader. *)
      match t.last_leader with
      | Some i when Hnode.alive t.nodes.(i) -> kill t.nodes.(i)
      | Some _ | None -> (
          match
            List.sort
              (fun a b -> compare (Hnode.term b) (Hnode.term a))
              (live_nodes t)
          with
          | n :: _ -> kill n
          | [] -> None))

(* --- runtime membership changes ------------------------------------ *)

(* Reconfiguration is driven by a polling loop on the engine: a single
   proposal can be lost to a leader change, a partition, or the
   one-change-at-a-time rule, so the driver re-proposes through whoever
   currently leads until the change lands (the change itself is
   idempotent — the member list is absolute, not a delta). *)
let reconfig_poll = Timebase.us 200

let current_membership t =
  match leader t with
  | Some l -> Hnode.raft_members l
  | None -> (
      match live_nodes t with
      | n :: _ -> Hnode.raft_members n
      | [] -> List.init t.params.Hnode.n (fun i -> i))

(* Drive until every check of the current leader's *applied* view agrees
   that [id] is present/absent as requested; call [on_done] once. *)
let drive_membership t ~id ~present ~on_done =
  let rec step () =
    let continue () = Engine.after t.engine reconfig_poll step in
    match leader t with
    | None -> continue ()
    | Some l ->
        let applied_ok = List.mem id (Hnode.members l) = present in
        if applied_ok then on_done l
        else begin
          let raft_ms = Hnode.raft_members l in
          let raft_ok = List.mem id raft_ms = present in
          let change_in_flight =
            Hnode.config_index l > Hnode.commit_index l
          in
          if (not raft_ok) && not change_in_flight then begin
            let target =
              if present then List.sort_uniq compare (id :: raft_ms)
              else List.filter (fun m -> m <> id) raft_ms
            in
            if target <> [] then Hnode.propose_reconfig l ~members:target
          end;
          continue ()
        end
  in
  step ()

let add_node t =
  if t.params.Hnode.backend = Hnode.Rabia then
    invalid_arg
      "Deploy.add_node: the rabia backend is fixed-membership (no \
       leader to drive a reconfiguration)";
  let id = Array.length t.nodes in
  let members = List.sort_uniq compare (id :: current_membership t) in
  let node =
    (* Passive: the newcomer must not campaign before the add commits and
       a leader contacts it — nobody honours a non-member's votes, and
       the inflated term would depose the leader at the first contact. *)
    Hnode.create ~trace:t.trace ~members ~passive:true t.engine t.fabric
      t.params ~id
  in
  t.nodes <- Array.append t.nodes [| node |];
  drive_membership t ~id ~present:true ~on_done:(fun _ -> ());
  id

let remove_node t i =
  if t.params.Hnode.backend = Hnode.Rabia then
    invalid_arg "Deploy.remove_node: the rabia backend is fixed-membership";
  if i < 0 || i >= Array.length t.nodes then
    invalid_arg "Deploy.remove_node: unknown node";
  (* Decommission once the removal has committed (the leader applied it):
     the node usually powers itself off when it applies its own removal,
     but effective-on-append means the leader stops replicating to it
     immediately, so a removed follower may never see the entry — it would
     sit as a zombie, timing out and requesting votes nobody honours.
     Finishing the job here closes that window. *)
  drive_membership t ~id:i ~present:false ~on_done:(fun _ ->
      Hashtbl.replace t.removed i ();
      if Hnode.alive t.nodes.(i) then Hnode.kill t.nodes.(i))

let transfer_leadership t ~target =
  if target < 0 || target >= Array.length t.nodes then
    invalid_arg "Deploy.transfer_leadership: unknown node";
  match leader t with
  | Some l when Hnode.id l <> target -> Hnode.transfer_leadership l ~target
  | Some _ | None -> ()

let total_pending_recoveries t =
  Array.fold_left (fun acc n -> acc + Hnode.pending_recoveries n) 0 t.nodes

let trace t = t.trace

let membership_snapshot t =
  let view =
    match leader t with
    | Some l -> Some l
    | None -> ( match live_nodes t with n :: _ -> Some n | [] -> None)
  in
  match view with
  | None -> Json.Null
  | Some n ->
      Json.Obj
        [
          ( "voters",
            Json.List (List.map (fun i -> Json.Int i) (Hnode.members n)) );
          ("config_index", Json.Int (Hnode.config_index n));
          ( "last_transfer",
            Json.Int
              (match Hnode.last_transfer n with Some x -> x | None -> -1) );
        ]

let snapshot t =
  Json.Obj
    [
      ("at_ns", Json.Int (Engine.now t.engine));
      ("mode", Json.String (Format.asprintf "%a" Hnode.pp_mode t.params.Hnode.mode));
      ("n", Json.Int (Array.length t.nodes));
      ( "leader",
        match leader t with
        | Some n -> Json.Int (Hnode.id n)
        | None -> Json.Null );
      ("consistent", Json.Bool (consistent t));
      ("membership", membership_snapshot t);
      ( "nodes",
        Json.List (Array.to_list (Array.map Hnode.snapshot t.nodes)) );
      ("fabric", Fabric.snapshot t.fabric);
      ("trace", Trace.snapshot t.trace);
    ]
