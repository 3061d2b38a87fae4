open Hovercraft_sim
open Hovercraft_core
module Metrics = Hovercraft_obs.Metrics
module Deploy = Hovercraft_cluster.Deploy
module Shard_map = Hovercraft_shard.Shard_map
module Shard_deploy = Hovercraft_shard.Shard_deploy
module Loadgen = Hovercraft_cluster.Loadgen

type config = {
  slo_p99 : Timebase.t;
  breach_ticks : int;
  cooldown : Timebase.t;
  min_samples : int;
  hot_share : float;
  backlog_limit : int;
  transfer_ticks : int;
  max_actions : int;
}

let config ?(slo_p99 = Timebase.us 500) ?(breach_ticks = 2)
    ?(cooldown = Timebase.ms 300) ?(min_samples = 32) ?(hot_share = 1.25)
    ?(backlog_limit = 4096) ?(transfer_ticks = 5) ?(max_actions = 32) () =
  if breach_ticks < 1 then invalid_arg "Controller.config: breach_ticks < 1";
  if cooldown < 0 then invalid_arg "Controller.config: negative cooldown";
  if min_samples < 1 then invalid_arg "Controller.config: min_samples < 1";
  if hot_share <= 1.0 then invalid_arg "Controller.config: hot_share <= 1";
  if transfer_ticks < 1 then invalid_arg "Controller.config: transfer_ticks < 1";
  if max_actions < 0 then invalid_arg "Controller.config: negative max_actions";
  {
    slo_p99;
    breach_ticks;
    cooldown;
    min_samples;
    hot_share;
    backlog_limit;
    transfer_ticks;
    max_actions;
  }

(* One action in flight per group. [Migration] is released by the
   migration's [on_done] (it marks BOTH endpoints busy — the fence is
   global anyway); [Repair] when the dead node is fully decommissioned;
   [Transfer] when the target leads or the patience budget runs out. *)
type pending =
  | Idle
  | Migration
  | Repair of { dead : int }
  | Transfer of { target : int; mutable ticks_left : int }

type t = {
  cfg : config;
  sd : Shard_deploy.t;
  gen : Loadgen.t;
  engine : Engine.t;
  shards : int;
  mutable prev_heat : int array;
  breach : int array; (* consecutive SLO-breach ticks per group *)
  dead_seen : (int * int, int) Hashtbl.t; (* (group, node) -> ticks dead *)
  pending : pending array;
  cooldown_until : Timebase.t array;
  demoted : int array; (* node leadership was last moved off, -1 = none *)
  mutable actions : (Timebase.t * string) list;
  mutable n_actions : int;
  mutable ticks : int;
}

let create ?(cfg = config ()) sd gen =
  {
    cfg;
    sd;
    gen;
    engine = Shard_deploy.engine sd;
    shards = Shard_deploy.shards sd;
    prev_heat = Shard_deploy.slot_heat sd;
    breach = Array.make (Shard_deploy.shards sd) 0;
    dead_seen = Hashtbl.create 16;
    pending = Array.make (Shard_deploy.shards sd) Idle;
    cooldown_until = Array.make (Shard_deploy.shards sd) 0;
    demoted = Array.make (Shard_deploy.shards sd) (-1);
    actions = [];
    n_actions = 0;
    ticks = 0;
  }

let act t g fmt =
  Format.kasprintf
    (fun s ->
      t.actions <- (Engine.now t.engine, Printf.sprintf "group%d: %s" g s) :: t.actions;
      t.n_actions <- t.n_actions + 1)
    fmt

let release t g =
  t.pending.(g) <- Idle;
  t.cooldown_until.(g) <- Engine.now t.engine + t.cfg.cooldown

let can_act t g =
  t.n_actions < t.cfg.max_actions
  && t.pending.(g) = Idle
  && Engine.now t.engine >= t.cooldown_until.(g)

(* --- signal extraction ---------------------------------------------- *)

(* Per-interval heat by slot (diff of the cumulative tallies) and its
   roll-up per owning group. *)
let heat_delta t =
  let heat = Shard_deploy.slot_heat t.sd in
  let d = Array.mapi (fun i h -> h - t.prev_heat.(i)) heat in
  t.prev_heat <- heat;
  d

let leader_backlog d =
  match Deploy.leader d with
  | Some l -> Hnode.commit_index l - Hnode.applied_index l
  | None -> 0

(* The most caught-up live follower, skipping the node leadership was
   just moved off (do not bounce straight back to a suspect). *)
let transfer_target t g d =
  let leader_id = match Deploy.leader d with Some l -> Hnode.id l | None -> -1 in
  List.fold_left
    (fun best node ->
      let i = Hnode.id node in
      if i = leader_id || i = t.demoted.(g) then best
      else
        match best with
        | Some b when Hnode.applied_index b >= Hnode.applied_index node -> best
        | _ -> Some node)
    None (Deploy.live_nodes d)

(* --- actions --------------------------------------------------------- *)

let start_migration t ~source ~target ~slots ~split =
  let finish () =
    release t source;
    release t target
  in
  try
    if split then
      Shard_deploy.split_shard t.sd ~on_done:finish ~source ~target ()
    else Shard_deploy.move_shard t.sd ~on_done:finish ~slots ~target ();
    t.pending.(source) <- Migration;
    t.pending.(target) <- Migration;
    if split then act t source "split -> group%d" target
    else
      act t source "move %d hot slot(s) -> group%d" (List.length slots) target
  with Invalid_argument _ -> ()

(* Retire the corpse FIRST: a dead voter contributes to no quorum, so
   removing it costs no headroom — while add-first would put the empty
   newcomer in every quorum (4 voters, 3 live, one far behind) and stall
   commits behind its catch-up for the whole replay. *)
let start_repair t g d ~dead =
  Deploy.remove_node d dead;
  let fresh = Deploy.add_node d in
  t.pending.(g) <- Repair { dead };
  act t g "repair: retire dead node%d, add node%d" dead fresh

let start_transfer t g d =
  match (Deploy.leader d, transfer_target t g d) with
  | Some l, Some target when Hnode.id target <> Hnode.id l ->
      Deploy.transfer_leadership d ~target:(Hnode.id target);
      t.demoted.(g) <- Hnode.id l;
      t.pending.(g) <-
        Transfer { target = Hnode.id target; ticks_left = t.cfg.transfer_ticks };
      act t g "transfer leadership node%d -> node%d" (Hnode.id l)
        (Hnode.id target)
  | _ -> ()

(* --- the tick -------------------------------------------------------- *)

let tick t =
  t.ticks <- t.ticks + 1;
  let groups = Shard_deploy.groups t.sd in
  let map = Shard_deploy.map t.sd in
  let dheat = heat_delta t in
  let owner =
    Array.init (Array.length dheat) (fun s -> Shard_map.owner_of_slot map s)
  in
  let group_heat = Array.make t.shards 0 in
  let owned = Array.make t.shards 0 in
  Array.iteri
    (fun s g ->
      group_heat.(g) <- group_heat.(g) + dheat.(s);
      owned.(g) <- owned.(g) + 1)
    owner;
  let total_heat = Array.fold_left ( + ) 0 group_heat in
  (* 1. Progress in-flight actions (migrations release via on_done). *)
  Array.iteri
    (fun g p ->
      match p with
      | Idle | Migration -> ()
      | Repair { dead } ->
          if Deploy.is_removed groups.(g) dead then begin
            (* The replacement node was born filterless; close the gap
               before it can ever lead. *)
            Shard_deploy.refresh_filters t.sd;
            release t g
          end
      | Transfer tr ->
          tr.ticks_left <- tr.ticks_left - 1;
          let landed =
            match Deploy.leader groups.(g) with
            | Some l -> Hnode.id l = tr.target
            | None -> false
          in
          if landed || tr.ticks_left <= 0 then release t g)
    t.pending;
  (* 2. Fault repair: a node dead long enough (and not decommissioned)
     gets replaced — add first, so quorum headroom never shrinks. *)
  Array.iteri
    (fun g d ->
      Array.iteri
        (fun i node ->
          let key = (g, i) in
          if (not (Hnode.alive node)) && not (Deploy.is_removed d i) then begin
            let seen =
              (match Hashtbl.find_opt t.dead_seen key with
              | Some s -> s
              | None -> 0)
              + 1
            in
            Hashtbl.replace t.dead_seen key seen;
            if seen >= t.cfg.breach_ticks && can_act t g then
              start_repair t g d ~dead:i
          end
          else Hashtbl.remove t.dead_seen key)
        d.Deploy.nodes)
    groups;
  (* 3. SLO policy per slot-owning group: hysteresis on consecutive
     breached windows, then pick the remedy the signals point at. *)
  for g = 0 to t.shards - 1 do
    if owned.(g) > 0 then begin
      let w = Loadgen.group_latency_window t.gen g in
      let samples = Metrics.last_count w in
      let p99 = Metrics.last_percentile w 0.99 in
      let breached = samples >= t.cfg.min_samples && p99 > t.cfg.slo_p99 in
      if breached then t.breach.(g) <- t.breach.(g) + 1
      else t.breach.(g) <- 0;
      if t.breach.(g) >= t.cfg.breach_ticks && can_act t g then begin
        (* Fair share is per GROUP, dormant ones included: capacity the
           deployment could bring to bear, not capacity currently in
           use — with a single active group, fair-per-active would make
           "hot" unsatisfiable (a group never exceeds itself). *)
        let fair = float_of_int total_heat /. float_of_int t.shards in
        let hot =
          total_heat > 0
          && float_of_int group_heat.(g) > t.cfg.hot_share *. fair
        in
        let backlogged = leader_backlog groups.(g) > t.cfg.backlog_limit in
        let saturated = hot || backlogged in
        if saturated && owned.(g) > 1 && not (Shard_deploy.migrating t.sd)
        then begin
          (* Shed load: split onto a dormant group when one exists,
             otherwise move the hottest slots to the coolest group. *)
          let dormant = ref (-1) in
          Array.iteri
            (fun g' o -> if o = 0 && !dormant < 0 && can_act t g' then dormant := g')
            owned;
          if !dormant >= 0 then
            start_migration t ~source:g ~target:!dormant ~slots:[] ~split:true
          else begin
            let coolest = ref (-1) in
            Array.iteri
              (fun g' o ->
                if g' <> g && o > 0 && can_act t g'
                   && (!coolest < 0 || group_heat.(g') < group_heat.(!coolest))
                then coolest := g')
              owned;
            if !coolest >= 0 && group_heat.(!coolest) < group_heat.(g) then begin
              let mine =
                Array.to_list
                  (Array.init (Array.length owner) (fun s -> s))
                |> List.filter (fun s -> owner.(s) = g)
              in
              let hottest =
                List.sort
                  (fun a b -> compare (-dheat.(a), a) (-dheat.(b), b))
                  mine
              in
              let k = max 1 (List.length mine / 4) in
              let slots = List.filteri (fun i _ -> i < k) hottest in
              start_migration t ~source:g ~target:!coolest ~slots ~split:false
            end
          end
        end
        else if not saturated then
          (* Breached but the group is not hot: suspect a slow node on
             the ordering path and move leadership to the most caught-up
             follower — try-and-observe, bounded by the cooldown. *)
          start_transfer t g groups.(g);
        if t.pending.(g) <> Idle then t.breach.(g) <- 0
      end
    end
  done

let actions t = List.rev t.actions
let ticks t = t.ticks
let action_count t = t.n_actions
let busy t = Array.exists (fun p -> p <> Idle) t.pending
