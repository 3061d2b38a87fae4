open Hovercraft_r2p2
module Op = Hovercraft_apps.Op
module Rtypes = Hovercraft_raft.Types

type meta = {
  rid : R2p2.req_id;
  read_only : bool;
  mutable replier : int;
  body_hash : int;
  internal : bool;
  ordered_at : Hovercraft_sim.Timebase.t;
}

type cmd = {
  meta : meta;
  body : Op.t;
  config : Rtypes.node_id array option;
      (** [Some members] marks a membership-change entry (Raft §4); the
          full new member list rides in the ordered log like any command
          but is interpreted by the consensus layer, not the app. *)
}

let client_cmd ~rid ~at op =
  {
    meta =
      {
        rid;
        read_only = Op.read_only op;
        replier = -1;
        body_hash = Hashtbl.hash op;
        internal = false;
        ordered_at = at;
      };
    body = op;
    config = None;
  }

let internal_noop =
  {
    meta =
      {
        rid = { R2p2.id = -1; src_addr = Hovercraft_net.Addr.Netagg; src_port = 0 };
        read_only = false;
        replier = -1;
        body_hash = 0;
        internal = true;
        ordered_at = 0;
      };
    body = Op.Nop;
    config = None;
  }

(* Config entries are internal: no client reply, no replier assignment,
   nothing for the app state machine to execute. *)
let config_cmd ~members =
  { internal_noop with config = Some (Array.copy members) }

type payload =
  | Request of { rid : R2p2.req_id; policy : R2p2.policy; op : Op.t }
  | Response of { rid : R2p2.req_id }
  | Raft of (cmd, Apply.image) Rtypes.message
  | Recovery_request of { rid : R2p2.req_id; asker : int }
  | Recovery_response of { rid : R2p2.req_id; op : Op.t }
  | Probe of { term : int; leader : int }
  | Probe_reply of { term : int }
  | Agg_commit of { term : int; commit : int; applied : int array }
  | Feedback of { rid : R2p2.req_id }
  | Nack of { rid : R2p2.req_id }
  | Wrong_shard of { rid : R2p2.req_id; version : int }
      (** Shard-routing NACK: this group does not own the request's key
          (under the responder's shard-map [version]). Distinct from the
          flow-control [Nack] so the client knows to refresh its map and
          re-route rather than back off. *)
  | Reconfig of { term : int; members : int array }
      (** Leader -> aggregator: the membership changed; flush soft state,
          resize the quorum and rebuild the followers fan-out group. *)
  | Rabia of (cmd, Apply.image) Hovercraft_ordering.Rabia.msg
      (** Leaderless randomized-agreement traffic (the rabia ordering
          backend). Like HovercRaft append_entries, batch values on the
          wire are metadata-sized — bodies ride the client multicast. *)

let meta_wire_bytes = 32
let hdr = R2p2.header_bytes

let ae_bytes ~with_bodies entries =
  let per_entry acc (e : cmd Rtypes.entry) =
    acc + meta_wire_bytes
    + if with_bodies then Op.request_bytes e.cmd.body else 0
  in
  hdr + 32 + Array.fold_left per_entry 0 entries

let payload_bytes ~with_bodies = function
  | Request { op; _ } -> hdr + Op.request_bytes op
  | Response _ ->
      (* The caller sizes responses explicitly (reply bytes depend on the
         execution result); this is the floor. *)
      hdr
  | Raft (Rtypes.Append_entries { entries; _ }) -> ae_bytes ~with_bodies entries
  | Raft (Rtypes.Request_vote _ | Rtypes.Vote _) -> hdr + 24
  | Raft (Rtypes.Append_ack _) -> hdr + 32
  | Raft (Rtypes.Commit_to _ | Rtypes.Agg_ack _ | Rtypes.Timeout_now _) ->
      hdr + 16
  | Raft (Rtypes.Install_snapshot { snap; len; _ }) ->
      (* Per-chunk framing (identity, offset, member list) plus the chunk
         itself; [len] is the slice of the serialized image on this wire. *)
      hdr + 48 + (8 * List.length snap.Hovercraft_raft.Snapshot.members) + len
  | Raft (Rtypes.Install_ack _) -> hdr + 40
  | Recovery_request _ -> hdr + 24
  | Recovery_response { op; _ } -> hdr + 24 + Op.request_bytes op
  | Probe _ | Probe_reply _ -> hdr + 16
  | Agg_commit { applied; _ } -> hdr + 16 + (8 * Array.length applied)
  | Feedback _ | Nack _ -> hdr + 8
  | Wrong_shard _ -> hdr + 16
  | Reconfig { members; _ } -> hdr + 16 + (8 * Array.length members)
  | Rabia msg -> (
      let value_bytes = function
        | Hovercraft_ordering.Rabia.Bot -> 0
        | Hovercraft_ordering.Rabia.Batch arr ->
            meta_wire_bytes * Array.length arr
      in
      match msg with
      | Hovercraft_ordering.Rabia.Proposal { value; _ } ->
          hdr + 24 + value_bytes value
      | Hovercraft_ordering.Rabia.State { value; _ }
      | Hovercraft_ordering.Rabia.Vote { value; _ } ->
          hdr + 32 + value_bytes value
      | Hovercraft_ordering.Rabia.Status _ -> hdr + 16
      | Hovercraft_ordering.Rabia.Repair { decisions; _ } ->
          List.fold_left
            (fun acc (_, v) -> acc + 16 + value_bytes v)
            (hdr + 16) decisions
      | Hovercraft_ordering.Rabia.Snap { meta; _ } ->
          (* Whole-image install: one (large) packet carrying the full
             serialized snapshot. *)
          hdr + 48
          + (8 * List.length meta.Hovercraft_raft.Snapshot.members)
          + meta.Hovercraft_raft.Snapshot.size)

(* Payload tags are interned: hot-path accounting (the per-packet
   rx.<tag> counters) indexes a pre-resolved array by [tag_index] instead
   of allocating "rx." ^ tag and hashing it per packet. [describe] stays
   the human-facing view and shares the same table. *)

let tag_index = function
  | Request _ -> 0
  | Response _ -> 1
  | Raft (Rtypes.Request_vote _) -> 2
  | Raft (Rtypes.Vote _) -> 3
  | Raft (Rtypes.Append_entries _) -> 4
  | Raft (Rtypes.Append_ack _) -> 5
  | Raft (Rtypes.Commit_to _) -> 6
  | Raft (Rtypes.Agg_ack _) -> 7
  | Raft (Rtypes.Timeout_now _) -> 8
  | Raft (Rtypes.Install_snapshot _) -> 9
  | Raft (Rtypes.Install_ack _) -> 10
  | Recovery_request _ -> 11
  | Recovery_response _ -> 12
  | Probe _ -> 13
  | Probe_reply _ -> 14
  | Agg_commit _ -> 15
  | Feedback _ -> 16
  | Nack _ -> 17
  | Wrong_shard _ -> 18
  | Reconfig _ -> 19
  | Rabia (Hovercraft_ordering.Rabia.Proposal _) -> 20
  | Rabia (Hovercraft_ordering.Rabia.State _) -> 21
  | Rabia (Hovercraft_ordering.Rabia.Vote _) -> 22
  | Rabia (Hovercraft_ordering.Rabia.Status _) -> 23
  | Rabia (Hovercraft_ordering.Rabia.Repair _) -> 24
  | Rabia (Hovercraft_ordering.Rabia.Snap _) -> 25

let tag_names =
  [|
    "request";
    "response";
    "request_vote";
    "vote";
    "append_entries";
    "append_ack";
    "commit_to";
    "agg_ack";
    "timeout_now";
    "install_snapshot";
    "install_ack";
    "recovery_request";
    "recovery_response";
    "probe";
    "probe_reply";
    "agg_commit";
    "feedback";
    "nack";
    "wrong_shard";
    "reconfig";
    "rabia_proposal";
    "rabia_state";
    "rabia_vote";
    "rabia_status";
    "rabia_repair";
    "rabia_snap";
  |]

let tag_count = Array.length tag_names
let tag_name i = tag_names.(i)
let describe p = tag_names.(tag_index p)
