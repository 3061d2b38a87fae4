open Hovercraft_sim
open Hovercraft_r2p2
module Addr = Hovercraft_net.Addr
module Op = Hovercraft_apps.Op

type path = Local | Shipped | Bound

type admission =
  | Replay of Op.result
  | Wrong_shard
  | Execute
  | Propose
  | Wait
  | Duplicate
  | Reject
  | Ignore

type t = {
  id : int;
  path : path;
  ring : int array;  (* leaderless: the static membership; [||] under a leader *)
  leases : bool;
  lease_window : Timebase.t;
  gc_unordered : Timebase.t;
  gc_ordered : Timebase.t;
  retry_max : int;
  apply : Apply.t;
  clock : Timebase.t ref;  (* the caller's clock as of its last input *)
  mutable store : Unordered.t;
  pending : int Rid_table.t;  (* rid -> retries, stamped when issued *)
  heard : (int, Timebase.t) Hashtbl.t;  (* lease contacts: node -> last heard *)
  mutable shard_filter : (Op.t -> bool) option;  (* deployment state: survives crashes *)
  mutable shard_version : int;
}

let store_on clock ~gc_unordered ~gc_ordered =
  Unordered.create ~now:(fun () -> !clock) ~gc_unordered ~gc_ordered ()

let create ~id ~path ~ring ~leases ~lease_window ~gc_unordered ~gc_ordered
    ~retry_max apply =
  let clock = ref 0 in
  {
    id;
    path;
    ring;
    leases;
    lease_window;
    gc_unordered;
    gc_ordered;
    retry_max;
    apply;
    clock;
    store = store_on clock ~gc_unordered ~gc_ordered;
    pending = Rid_table.create ~capacity:64 ~lists:1 ();
    heard = Hashtbl.create 16;
    shard_filter = None;
    shard_version = 0;
  }

let replays t (meta : Protocol.meta) =
  Option.is_some (Apply.find t.apply meta.rid ~ordered_at:meta.ordered_at)

let needs_body t ~index (meta : Protocol.meta) =
  index > Apply.index t.apply
  && (not meta.internal)
  && ((not meta.read_only) || meta.replier = t.id)
  && not (replays t meta)

let recover t ~now rid =
  (not (Rid_table.mem t.pending rid))
  && (ignore (Rid_table.add t.pending rid 0 ~stamp:now ~list:0);
      true)

(* The mark-and-recover step; an entry at or below the applied index (a
   retransmitted append) is left alone. A leaderless entry's replier is a
   function of its index, so whichever replica binds a shared command
   first sets the one every replica would. *)
let bind t ~now ~index (meta : Protocol.meta) =
  (not meta.internal)
  &&
  let n = Array.length t.ring in
  if meta.replier < 0 && n > 0 then meta.replier <- t.ring.(index mod n);
  t.path = Bound
  && index > Apply.index t.apply
  && (t.clock := now;
      not (Unordered.mark_ordered t.store meta.rid))
  && needs_body t ~index meta

let due t ~index (cmd : Protocol.cmd) =
  if cmd.meta.internal then Some Op.Nop
  else
    match t.path with
    | Local | Shipped -> Some cmd.body
    | Bound -> (
        match Unordered.find t.store cmd.meta.rid with
        | Some _ as body -> body
        | None -> if needs_body t ~index cmd.meta then None else Some Op.Nop)

let deliver t ~now rid op =
  Rid_table.mem t.pending rid
  && (t.clock := now;
      Unordered.add t.store rid op;
      ignore (Unordered.mark_ordered t.store rid);
      true)

(* Runs on every apply; on a loss-free run the table is empty. *)
let resolve t ~now rid =
  if Rid_table.length t.pending = 0 then None
  else
    let h = Rid_table.find t.pending rid in
    if Rid_table.is_nil h then None
    else begin
      let retries = Rid_table.value t.pending h
      and waited = now - Rid_table.stamp t.pending h in
      Rid_table.remove_node t.pending h;
      Some (retries, waited)
    end

let pending t rid = Rid_table.mem t.pending rid

let retry t rid ~retries =
  let h = Rid_table.find t.pending rid in
  (not (Rid_table.is_nil h))
  && Rid_table.value t.pending h = retries
  &&
  let issued_at = Rid_table.stamp t.pending h in
  Rid_table.remove_node t.pending h;
  ignore (Rid_table.add t.pending rid (retries + 1) ~stamp:issued_at ~list:0);
  true

(* Keep asking until the body turns up: the apply loop is wedged on this
   rid, and commit never advances past the hole. The first probe goes to
   the leader, retries to a random other member (any may hold the body);
   past [retry_max] unicast retries, to the whole cluster group at once.
   With no peer there is nobody to ask: only a client retry brings the
   body back. *)
let probe t ~retries ~members ~leader rng =
  if retries >= t.retry_max then
    if List.length members <= 1 then None else Some (Addr.Group Addr.cluster_group)
  else
    match List.filter (fun i -> i <> t.id) members with
    | [] -> None
    | others -> (
        match (leader, retries) with
        | Some l, 0 when l <> t.id -> Some (Addr.Node l)
        | _ ->
            let arr = Array.of_list others in
            Some (Addr.Node arr.(Rng.int rng (Array.length arr))))

(* 200 us, doubling per retry up to 10 ms: a node catching up after a
   long dead window has hundreds of recoveries in flight, and probing
   each at a fixed 200 us would flood its own NIC, starving the answers
   (and append acks) it waits for. The first probe resolves in an RTT. *)
let backoff retries =
  Int.min (Timebase.us 200 * (1 lsl Int.min retries 6)) (Timebase.ms 10)

let owner t ~leader rid =
  let n = Array.length t.ring in
  if n = 0 then leader else t.ring.(R2p2.req_id_hash rid land max_int mod n) = t.id

let note_contact t ~now node = Hashtbl.replace t.heard node now

let lease_valid t ~now ~members =
  note_contact t ~now t.id;
  let fresh =
    List.fold_left
      (fun acc i ->
        let heard = Option.value ~default:0 (Hashtbl.find_opt t.heard i) in
        if now - heard <= t.lease_window then acc + 1 else acc)
      0 members
  in
  fresh >= (List.length members / 2) + 1

(* The replay comes before the shard fence, so a retry of a request the
   group completed is answered even once its key moved away. *)
let admit t ~now ~leader ~members rid op =
  let owner = owner t ~leader rid in
  match if owner then Apply.find t.apply rid ~ordered_at:0 else None with
  | Some result -> Replay result
  | None -> (
      match t.shard_filter with
      | Some owns when owner && not (owns op) -> Wrong_shard
      | Some _ | None -> (
          let lease_read = t.leases && Op.read_only op && t.path <> Local in
          if lease_read && not leader then Ignore
          else if lease_read && lease_valid t ~now ~members then Execute
          else
            match t.path with
            | Local -> Execute
            | Shipped -> if leader then Propose else Reject
            | Bound ->
                t.clock := now;
                let ordered = Unordered.ingest t.store rid op in
                if Array.length t.ring > 0 then if ordered then Wait else Propose
                else if not leader then Wait
                else if (not ordered) || Op.read_only op then Propose
                else Duplicate))

let crash t = Rid_table.reset t.pending
let install = crash

let restart t =
  t.store <- store_on t.clock ~gc_unordered:t.gc_unordered ~gc_ordered:t.gc_ordered;
  Hashtbl.reset t.heard

let gc ?keep t ~now =
  t.clock := now;
  ignore (Unordered.gc ?keep t.store)

let set_shard_filter t ~version owns =
  t.shard_filter <- Some owns;
  t.shard_version <- version

let shard_version t = t.shard_version
let body t rid = Unordered.find t.store rid
let unordered t = Unordered.unordered_bindings t.store
let stored t = Unordered.size t.store
let pending_count t = Rid_table.length t.pending
