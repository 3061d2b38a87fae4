open Hovercraft_sim
open Hovercraft_core
open Hovercraft_r2p2
module Addr = Hovercraft_net.Addr
module Fabric = Hovercraft_net.Fabric
module Wire = Hovercraft_net.Wire
module Op = Hovercraft_apps.Op
module Kvstore = Hovercraft_apps.Kvstore
module Snapshot = Hovercraft_raft.Snapshot
module Rnode = Hovercraft_raft.Node
module Rlog = Hovercraft_raft.Log
module Deploy = Hovercraft_cluster.Deploy
module Rid_tbl = R2p2.Rid_tbl

type config = {
  shards : int;
  active : int;
  slots : int;
  partitioner : Shard_map.partitioner;
  flow_cap : int option;
  fabric_latency : Timebase.t;
  switch_gbps : float;
  migration_gbps : float;
  params : Hnode.params;
}

let config ?active ?(slots = 64) ?(partitioner = Shard_map.Hash) ?flow_cap
    ?(fabric_latency = Timebase.us 1) ?(switch_gbps = 100.)
    ?(migration_gbps = 40.) ~shards params =
  if shards < 1 then invalid_arg "Shard_deploy.config: shards must be >= 1";
  let active = Option.value active ~default:shards in
  if active < 1 || active > shards then
    invalid_arg "Shard_deploy.config: active outside [1, shards]";
  if migration_gbps <= 0. then
    invalid_arg "Shard_deploy.config: migration_gbps must be positive";
  Hnode.validate_params params;
  {
    shards;
    active;
    slots;
    partitioner;
    flow_cap;
    fabric_latency;
    switch_gbps;
    migration_gbps;
    params;
  }

type driver = {
  d_port : Protocol.payload Fabric.port;
  d_ids : R2p2.Id_source.t;
  d_pending : (unit -> unit) Rid_tbl.t;
}

type t = {
  engine : Engine.t;
  map : Shard_map.t;
  groups : Deploy.t array;
  cfg : config;
  moving : (int, unit) Hashtbl.t; (* slots under the migration fence *)
  mutable moving_source : int; (* -1 when no migration is running *)
  mutable migrating : bool;
  mutable migrations : int;
  drivers : driver array;
  notes : (Timebase.t * string) list ref;
  heat : int array; (* per-slot client routing tallies, cumulative *)
}

(* Every node's filter is one closure over the LIVE map and fence state:
   flipping the map (or raising/dropping the fence) changes admission on
   every group at once without touching the nodes again. The version is a
   point-in-time stamp for Wrong_shard NACKs, refreshed after each flip. *)
let group_filter t g op =
  match Op.key op with
  | None -> true
  | Some k ->
      let slot = Shard_map.slot_of_key t.map k in
      Shard_map.owner_of_slot t.map slot = g
      && not (g = t.moving_source && Hashtbl.mem t.moving slot)

let install_filters t =
  let version = Shard_map.version t.map in
  Array.iteri
    (fun g d ->
      Array.iter
        (fun node -> Hnode.set_shard_filter node ~version (group_filter t g))
        d.Deploy.nodes)
    t.groups

let note t fmt =
  Format.kasprintf
    (fun s -> t.notes := (Engine.now t.engine, s) :: !(t.notes))
    fmt

(* The per-group seed stagger also staggers election timers, so groups do
   not elect (or re-elect after a correlated fault) in lockstep. g = 0
   keeps the caller's seed untouched. *)
let group_seed base g = base + (g * 1_000_003)

(* Control-plane client: one endpoint per group fabric. Merge / Prune go
   through the group's ordinary client path (middlebox or multicast
   group) and are retried with the SAME rid until answered — the group's
   completion records make the retries exactly-once. *)
let driver_addr = Addr.Client 9_999

let create (cfg : config) =
  let engine = Engine.create () in
  let map =
    Shard_map.create ~partitioner:cfg.partitioner ~active:cfg.active
      ~slots:cfg.slots ~groups:cfg.shards ()
  in
  let scale = float_of_int cfg.shards in
  let groups =
    Array.init cfg.shards (fun g ->
        let p = cfg.params in
        let p =
          {
            p with
            Hnode.seed = group_seed p.Hnode.seed g;
            (* Co-location budget: the S group instances share each host's
               NIC and the middlebox/aggregator switch ports, so every
               group runs on a 1/S slice of both. CPU stays per instance —
               each group's threads get their own cores, the multi-core
               headroom resource sharding exists to exploit. *)
            cost =
              {
                p.Hnode.cost with
                Hnode.link_gbps = p.Hnode.cost.Hnode.link_gbps /. scale;
              };
          }
        in
        Deploy.create
          (Deploy.config ~fabric_latency:cfg.fabric_latency
             ?flow_cap:cfg.flow_cap
             ~switch_gbps:(cfg.switch_gbps /. scale)
             ~engine
             ~bootstrap:(g mod p.Hnode.n)
             p))
  in
  let drivers =
    Array.mapi
      (fun g (d : Deploy.t) ->
        let d_pending = Rid_tbl.create 16 in
        let d_port =
          Fabric.attach d.Deploy.fabric ~addr:driver_addr ~rate_gbps:10.
            ~handler:(fun pkt ->
              match pkt.Fabric.payload with
              | Protocol.Response { rid } -> (
                  match Rid_tbl.find_opt d_pending rid with
                  | Some k ->
                      Rid_tbl.remove d_pending rid;
                      k ()
                  | None -> ())
              | _ -> ())
        in
        {
          d_port;
          d_ids =
            R2p2.Id_source.create ~src_addr:driver_addr ~src_port:(9_000 + g);
          d_pending;
        })
      groups
  in
  let t =
    {
      engine;
      map;
      groups;
      cfg;
      moving = Hashtbl.create 16;
      moving_source = -1;
      migrating = false;
      migrations = 0;
      drivers;
      notes = ref [];
      heat = Array.make cfg.slots 0;
    }
  in
  install_filters t;
  t

let engine t = t.engine
let map t = t.map

(* Nodes created after the deployment (Deploy.add_node replacements) are
   born without a shard filter; re-installing closes that gap. *)
let refresh_filters t = install_filters t
let groups t = t.groups
let shards t = t.cfg.shards
let migrating t = t.migrating
let migrations t = t.migrations
let notes t = List.rev !(t.notes)

let client_target t ~key =
  let g = Shard_map.owner_of_key t.map key in
  (g, Deploy.client_target t.groups.(g))

(* Key-slot heat: one tally per client routing decision, charged to the
   key's slot. Cumulative — samplers (the autoscaling controller) diff
   successive snapshots, so several consumers can read concurrently
   without stealing each other's deltas. *)
let record_access t ~key =
  let s = Shard_map.slot_of_key t.map key in
  t.heat.(s) <- t.heat.(s) + 1

let slot_heat t = Array.copy t.heat

(* Preload by ownership: each record lands only on the group that owns its
   key (a later migration ships moved sub-ranges explicitly), keyless ops
   on every group. Identical across a group's replicas, as preload
   requires. *)
let preload t ops =
  let per_group = Array.make t.cfg.shards [] in
  List.iter
    (fun op ->
      match Op.key op with
      | Some k ->
          let g = Shard_map.owner_of_key t.map k in
          per_group.(g) <- op :: per_group.(g)
      | None ->
          Array.iteri (fun g l -> per_group.(g) <- op :: l) per_group)
    (List.rev ops);
  Array.iteri
    (fun g d ->
      match per_group.(g) with
      | [] -> ()
      | l -> Array.iter (fun node -> Hnode.preload node l) d.Deploy.nodes)
    t.groups

let driver_propose t ~group op ~on_done =
  let d = t.drivers.(group) in
  let rid = R2p2.Id_source.next d.d_ids in
  Rid_tbl.replace d.d_pending rid on_done;
  let send () =
    let payload = Protocol.Request { rid; policy = R2p2.Replicated_req; op } in
    let bytes = Protocol.payload_bytes ~with_bodies:false payload in
    Fabric.send t.groups.(group).Deploy.fabric d.d_port
      ~dst:(Deploy.client_target t.groups.(group))
      ~bytes payload
  in
  (* A Merge carries the moved range's completion records on the wire —
     megabytes on a large cut. On a thin NIC slice one copy can take
     longer to serialize than a fixed retry interval, and a fixed-rate
     retransmit then enqueues copies faster than the link drains them:
     the target group's ingress collapses under the driver's own
     duplicates and the response never comes. Scale the first retry to
     the payload's serialization time on the group's NIC slice (even one
     duplicate of a megabyte op queues ahead of the commit traffic on
     every replica's ingress), and back off exponentially from there so
     the gap also outgrows ordering and apply time. *)
  let slice_gbps =
    t.cfg.params.Hnode.cost.Hnode.link_gbps /. float_of_int t.cfg.shards
  in
  let first_bytes =
    Protocol.payload_bytes ~with_bodies:false
      (Protocol.Request { rid; policy = R2p2.Replicated_req; op })
  in
  let base =
    max (Timebase.ms 10)
      (4 * Wire.serialize_ns ~rate_gbps:slice_gbps ~bytes:first_bytes)
  in
  let rec arm retries =
    let backoff = min (base * (1 lsl min retries 7)) (Timebase.s 2) in
    Engine.after t.engine backoff (fun () ->
        if Rid_tbl.mem d.d_pending rid then begin
          send ();
          arm (retries + 1)
        end)
  in
  send ();
  arm 0

(* --- live migration -------------------------------------------------- *)

(* Migration of a slot set from its owning group to [target]:

   A. {e Fence}: the moved slots go dark on the source — fresh requests
      get Wrong_shard, but retransmissions of completed requests are
      still answered from the completion record (the dual-ownership
      window during which exactly-once is carried by records alone).
   B. {e Cut}: wait until the source leader has applied its whole log —
      every pre-fence request on the moved range has then executed, so
      the extracted image is final.
   C. {e Extract}: deep-copy the sub-range image off the leader's applied
      state, plus all its completion records (records do not name keys,
      so the full set ships — a safe over-approximation: a record can
      only ever suppress a retransmission of its own rid).
   D. {e Transfer}: pace the image over the wire in snapshot chunks
      (PR 4's chunk arithmetic) at the migration QoS rate. Background
      traffic class: latency is modeled, fabric interference is not.
   E. {e Install}: propose [Op.Merge] through the target's client path —
      the image and records enter the target's LOG, so they are ordered
      before any post-flip client command and replicate to every target
      node (and any node that joins later).
   F. {e Flip}: reassign the slots in the map (version bump), drop the
      fence, refresh every node's advertised filter version. Clients
      re-route on the next Wrong_shard.
   G. {e Prune}: propose [Op.Prune] to the source, deleting the moved
      sub-range from its stores (completion records survive — they are
      what answers stale retransmissions for good). *)

let poll = Timebase.us 200

let move_shard t ?(on_done = fun () -> ()) ~slots ~target () =
  (* The cut below waits for the source group's leader, which a
     leaderless group never has: refuse rather than poll forever with the
     slots fenced. *)
  if t.cfg.params.Hnode.backend = Hnode.Rabia then
    invalid_arg
      "Shard_deploy.move_shard: the rabia backend has no leader to cut the \
       source log at";
  if t.migrating then
    invalid_arg "Shard_deploy.move_shard: a migration is already running";
  if slots = [] then invalid_arg "Shard_deploy.move_shard: empty slot list";
  if target < 0 || target >= t.cfg.shards then
    invalid_arg "Shard_deploy.move_shard: unknown target group";
  let source =
    match
      List.sort_uniq compare
        (List.map (fun s -> Shard_map.owner_of_slot t.map s) slots)
    with
    | [ s ] -> s
    | _ ->
        invalid_arg
          "Shard_deploy.move_shard: slots must share one owning group"
  in
  if source = target then
    invalid_arg "Shard_deploy.move_shard: target already owns these slots";
  t.migrating <- true;
  t.migrations <- t.migrations + 1;
  t.moving_source <- source;
  List.iter (fun s -> Hashtbl.replace t.moving s ()) slots;
  note t "migration %d: fenced %d slot(s) on group%d -> group%d"
    t.migrations (List.length slots) source target;
  let src = t.groups.(source) in
  let moved_slot = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace moved_slot s ()) slots;
  let keep k = Hashtbl.mem moved_slot (Shard_map.slot_of_key t.map k) in
  let last_index node =
    if Hnode.mode node = Hnode.Unreplicated then Hnode.applied_index node
    else Hnode.log_length node
  in
  (* The cut is the source leader's last log index, captured post-fence:
     everything at or below it may still execute on the moved range;
     nothing above it can (the fence rejects fresh ordering). A leader
     change re-captures from the new leader — its log bounds everything
     that can ever commit. *)
  let rec wait_cut cut =
    match Deploy.leader src with
    | None -> Engine.after t.engine poll (fun () -> wait_cut None)
    | Some l ->
        let cut =
          match cut with
          | Some (lid, c) when lid = Hnode.id l -> c
          | _ -> last_index l
        in
        if Hnode.applied_index l >= cut then extract l
        else
          Engine.after t.engine poll (fun () ->
              wait_cut (Some (Hnode.id l, cut)))
  and extract l =
    let image = Hnode.extract_range l ~keep in
    let completions = Hnode.completion_records l in
    let size =
      Kvstore.image_bytes image
      + (Op.completion_wire_bytes * List.length completions)
    in
    note t "migration %d: cut at index %d, %d bytes, %d completion record(s)"
      t.migrations (Hnode.applied_index l) size (List.length completions);
    let meta =
      Snapshot.make ~last_idx:(Hnode.applied_index l) ~last_term:(Hnode.term l)
        ~members:[] ~size ~data:()
    in
    let progress = Snapshot.start meta in
    let rec chunk () =
      if Snapshot.complete progress then propose_merge image completions
      else begin
        let offset = Snapshot.received progress in
        let len =
          Snapshot.chunk_len meta ~chunk_bytes:Wire.snap_chunk_bytes ~offset
        in
        Engine.after t.engine
          (Wire.serialize_ns ~rate_gbps:t.cfg.migration_gbps ~bytes:(len + 64))
          (fun () ->
            ignore (Snapshot.accept progress ~offset ~len);
            chunk ())
      end
    in
    chunk ()
  and propose_merge image completions =
    driver_propose t ~group:target (Op.Merge { chunk = image; completions })
      ~on_done:flip
  and flip () =
    Shard_map.assign t.map ~slots ~target;
    Hashtbl.reset t.moving;
    t.moving_source <- -1;
    install_filters t;
    note t "migration %d: map flipped to v%d (group%d owns the slots)"
      t.migrations (Shard_map.version t.map) target;
    driver_propose t ~group:source
      (Op.Prune { slots = Shard_map.nslots t.map; drop = slots })
      ~on_done:(fun () ->
        t.migrating <- false;
        note t "migration %d: source pruned, done" t.migrations;
        on_done ())
  in
  wait_cut None

let split_shard t ?on_done ~source ~target () =
  let slots = Shard_map.split_plan t.map ~source in
  move_shard t ?on_done ~slots ~target ()
