module Fabric = Hovercraft_net.Fabric
module Addr = Hovercraft_net.Addr
module Rtypes = Hovercraft_raft.Types

type t = {
  fabric : Protocol.payload Fabric.t;
  mutable port : Protocol.payload Fabric.port option;
  mutable members : int list;
  cluster_group : int;
  followers_group : int;
  (* The register file, indexed by node id and at least [width] long:
     membership, and each node's match and completed counts this term
     (0 = nothing acknowledged yet). *)
  mutable member : bool array;
  mutable match_reg : int array;
  mutable completed_reg : int array;
  mutable width : int;  (* 1 + the largest id among members and leader *)
  mutable quorum : int;
  mutable top : int array;  (* scratch for [quorum_match] *)
  mutable term : int;
  mutable leader : int;
  mutable leader_last : int;
  mutable commit : int;
  mutable pending : bool;
  mutable down : bool;
  mutable forwarded : int;
  mutable commits_sent : int;
}

let reg_get reg i = if i >= 0 && i < Array.length reg then reg.(i) else 0

(* Re-derive what depends on who the members and the leader are, growing
   the registers when a higher id appears; [flush] resets their values. *)
let resize t =
  t.width <- 1 + List.fold_left Int.max t.leader t.members;
  if Array.length t.match_reg < t.width then begin
    let grow reg =
      let bigger = Array.make t.width 0 in
      Array.blit reg 0 bigger 0 (Array.length reg);
      bigger
    in
    t.match_reg <- grow t.match_reg;
    t.completed_reg <- grow t.completed_reg;
    t.member <- Array.make t.width false
  end;
  Array.fill t.member 0 (Array.length t.member) false;
  List.iter (fun i -> t.member.(i) <- true) t.members;
  t.quorum <- (List.length t.members / 2) + 1;
  if Array.length t.top < t.quorum then t.top <- Array.make t.quorum 0

let sync_followers_group t =
  (* Followers group = current members minus the leader. Membership and
     leadership both mutate it, so rebuild from scratch each time (the
     fabric makes join/leave idempotent). *)
  List.iter
    (fun i ->
      if i = t.leader then
        Fabric.leave t.fabric ~group:t.followers_group (Addr.Node i)
      else Fabric.join t.fabric ~group:t.followers_group (Addr.Node i))
    t.members

let flush t ~term ~leader =
  Array.fill t.match_reg 0 (Array.length t.match_reg) 0;
  Array.fill t.completed_reg 0 (Array.length t.completed_reg) 0;
  t.term <- term;
  t.leader_last <- 0;
  t.commit <- 0;
  t.pending <- false;
  if leader <> t.leader then begin
    (* Rebuild the follower fan-out group around the new leader. *)
    let old = t.leader in
    t.leader <- leader;
    resize t;
    if old >= 0 && List.mem old t.members then
      Fabric.join t.fabric ~group:t.followers_group (Addr.Node old);
    sync_followers_group t
  end

(* A membership change is the same soft-state invalidation as a term
   change: the old registers and quorum size are meaningless under the new
   configuration, so reuse the flush path and re-derive the fan-out group. *)
let reconfigure t ~term ~members =
  if term >= t.term then begin
    let previous = t.members in
    t.members <- List.sort_uniq compare (Array.to_list members);
    resize t;
    List.iter
      (fun i ->
        if not (List.mem i t.members) then
          Fabric.leave t.fabric ~group:t.followers_group (Addr.Node i))
      previous;
    flush t ~term ~leader:t.leader;
    sync_followers_group t
  end

let transmit t ~dst payload =
  let port = Option.get t.port in
  Fabric.send t.fabric port ~dst
    ~bytes:(Protocol.payload_bytes ~with_bodies:false payload)
    payload

(* AGG_COMMIT carries per-node completed counts as a dense array indexed
   by node id (the wire format of the P4 register file); ids outside the
   current membership read 0. *)
let completed_array t = Array.sub t.completed_reg 0 t.width

let send_agg_commit t =
  t.commits_sent <- t.commits_sent + 1;
  transmit t ~dst:(Addr.Group t.cluster_group)
    (Protocol.Agg_commit
       { term = t.term; commit = t.commit; applied = completed_array t })

(* Keep [top.(0 .. needed-1)] the largest follower matches seen so far,
   descending (registers are non-negative, so a 0-filled slot is the same
   as a missing follower). *)
let rec collect_top t top needed = function
  | [] -> ()
  | i :: rest ->
      (if i <> t.leader then
         let m = t.match_reg.(i) in
         if m > top.(needed - 1) then begin
           let j = ref (needed - 1) in
           while !j > 0 && top.(!j - 1) < m do
             top.(!j) <- top.(!j - 1);
             decr j
           done;
           top.(!j) <- m
         end);
      collect_top t top needed rest

(* Largest index acknowledged by enough followers that, together with the
   leader, a quorum holds it: the needed-th largest follower match. *)
let quorum_match t =
  let needed = t.quorum - 1 in
  if needed = 0 then t.leader_last
  else begin
    let top = t.top in
    Array.fill top 0 needed 0;
    collect_top t top needed t.members;
    top.(needed - 1)
  end

let on_append_entries t ~term ~leader ~end_idx pkt_payload =
  if term > t.term then flush t ~term ~leader;
  if term = t.term then begin
    if leader <> t.leader then flush t ~term ~leader;
    if end_idx <= t.leader_last then t.pending <- true
    else t.leader_last <- end_idx;
    t.forwarded <- t.forwarded + 1;
    transmit t ~dst:(Addr.Group t.followers_group) pkt_payload
  end

let on_append_ack t ~term ~from ~match_idx ~applied_idx =
  if term = t.term && from >= 0 && from < t.width && t.member.(from) then begin
    t.match_reg.(from) <- Int.max t.match_reg.(from) match_idx;
    t.completed_reg.(from) <- Int.max t.completed_reg.(from) applied_idx;
    let candidate = min (quorum_match t) t.leader_last in
    if candidate > t.commit then begin
      t.commit <- candidate;
      t.pending <- false;
      send_agg_commit t
    end
    else if t.pending then begin
      t.pending <- false;
      send_agg_commit t
    end
  end

let handle t (pkt : Protocol.payload Fabric.packet) =
  if not t.down then
    match pkt.payload with
    | Protocol.Raft (Rtypes.Append_entries { term; leader; prev_idx; entries; _ }) ->
        on_append_entries t ~term ~leader
          ~end_idx:(prev_idx + Array.length entries)
          pkt.payload
    | Protocol.Raft
        (Rtypes.Append_ack { term; from; success; match_idx; applied_idx; _ })
      ->
        (* Failure replies go point-to-point to the leader (§5); only
           successes reach the dataplane registers. *)
        if success then on_append_ack t ~term ~from ~match_idx ~applied_idx
    | Protocol.Probe { term; leader } ->
        if term > t.term then flush t ~term ~leader;
        if term = t.term then
          transmit t ~dst:(Addr.Node leader) (Protocol.Probe_reply { term })
    | Protocol.Reconfig { term; members } -> reconfigure t ~term ~members
    | Protocol.Raft (Rtypes.Install_snapshot { term; _ }) ->
        (* Snapshot transfer is point-to-point leader->follower and does
           not touch the match/completed registers; if a chunk transits
           the aggregator (leader addressing the fan-out group in
           aggregated mode) it is passed through unmodified. Receivers
           already past the snapshot index just ack it as covered. *)
        if term >= t.term then
          transmit t ~dst:(Addr.Group t.followers_group) pkt.payload
    | Protocol.Raft (Rtypes.Install_ack { term; _ }) ->
        (* Ack side of the pass-through: flow-control acks belong to the
           leader, not to the dataplane quorum registers. *)
        if term = t.term && t.leader >= 0 then
          transmit t ~dst:(Addr.Node t.leader) pkt.payload
    | Protocol.Raft
        ( Rtypes.Request_vote _ | Rtypes.Vote _ | Rtypes.Commit_to _
        | Rtypes.Agg_ack _ | Rtypes.Timeout_now _ )
    | Protocol.Request _ | Protocol.Response _ | Protocol.Recovery_request _
    | Protocol.Recovery_response _ | Protocol.Probe_reply _
    | Protocol.Agg_commit _ | Protocol.Feedback _ | Protocol.Nack _
    | Protocol.Wrong_shard _ | Protocol.Rabia _ ->
        ()

let create engine fabric ~members ~cluster_group ~followers_group ~rate_gbps =
  ignore engine;
  if members = [] then invalid_arg "Aggregator.create: empty membership";
  let t =
    {
      fabric;
      port = None;
      members = List.sort_uniq compare members;
      cluster_group;
      followers_group;
      member = [||];
      match_reg = [||];
      completed_reg = [||];
      width = 0;
      quorum = 0;
      top = [||];
      term = 0;
      leader = -1;
      leader_last = 0;
      commit = 0;
      pending = false;
      down = false;
      forwarded = 0;
      commits_sent = 0;
    }
  in
  resize t;
  let port = Fabric.attach fabric ~addr:Addr.Netagg ~rate_gbps ~handler:(handle t) in
  t.port <- Some port;
  t

let set_down t flag =
  t.down <- flag;
  match t.port with Some p -> Fabric.set_down p flag | None -> ()

let term t = t.term
let commit t = t.commit
let members t = t.members
let match_of t i = reg_get t.match_reg i
let forwarded t = t.forwarded
let commits_sent t = t.commits_sent
