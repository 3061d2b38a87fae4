type role = Follower | Candidate | Leader

let pp_role fmt = function
  | Follower -> Format.pp_print_string fmt "follower"
  | Candidate -> Format.pp_print_string fmt "candidate"
  | Leader -> Format.pp_print_string fmt "leader"

type config = {
  id : Types.node_id;
  peers : Types.node_id array;
  batch_max : int;
  eager_commit_notify : bool;
  snap_chunk_bytes : int;
}

type ('cmd, 'snap) action =
  | Send of Types.node_id * ('cmd, 'snap) Types.message
  | Send_aggregate of ('cmd, 'snap) Types.message
  | Commit_advanced of int
  | Appended of int
  | Became_leader
  | Became_follower of Types.node_id option
  | Leader_activity
  | Reject_command of 'cmd
  | Snapshot_installed of 'snap Snapshot.meta

type ('cmd, 'snap) input =
  | Receive of ('cmd, 'snap) Types.message
  | Election_timeout
  | Heartbeat_timeout
  | Client_command of 'cmd
  | Applied_up_to of int
  | Announce_kick
  | Transfer_leadership of Types.node_id

type obs_event =
  | Obs_election_started of Types.term
  | Obs_leadership_won of Types.term
  | Obs_leadership_lost of Types.term
  | Obs_commit_advanced of int
  | Obs_announced_to of int
  | Obs_announce_gated of int
  | Obs_config_changed of int * Types.node_id list
  | Obs_transfer_sent of Types.node_id
  | Obs_snapshot_taken of int
  | Obs_install_started of Types.node_id * int
  | Obs_install_completed of Types.node_id * int

(* Leader-side replication state for one peer. Peers come and go with the
   cluster configuration, so this lives in an array indexed by node id
   that grows when a higher id joins, not in one sized at creation. *)
type peer = {
  mutable p_vote : bool;
  mutable p_next : int;
  mutable p_match : int;
  mutable p_applied : int;
  mutable p_in_flight : bool;
  mutable p_direct : bool;
  mutable p_sent_seq : int;  (* last append_entries seq sent to this peer *)
  mutable p_snap : int option;
      (* Snapshot transfer in progress: byte offset of the next chunk to
         send. Shares the seq/in-flight pacing with append_entries — one
         chunk in flight, heartbeats retransmit the unacked chunk. *)
}

type ('cmd, 'snap) t = {
  cfg : config;
  noop : 'cmd;
  log : 'cmd Log.t;
  mutable peers : peer option array;  (* by node id *)
  mutable configs : (int * Types.node_id list) list;
      (* Membership history as a stack of (config entry index, members),
         newest first; the bottom element is (0, bootstrap members). The
         head is the *current* configuration — effective from the moment
         its entry is appended (Raft §4, single-server changes). Entries
         above the commit index can still be truncated away by a new
         leader, which pops the stack back. The stack is persistent state:
         it is derivable from the log plus the bootstrap config, so a
         crash-restart keeps it (see [recover]). Assigned only through
         [set_configs], which keeps [peer_ids] in step. *)
  mutable peer_ids : Types.node_id list;
      (* The current members other than self, in member order. A
         removed-but-still-leading node (self outside the config,
         finishing the removal entry's commit) replicates to every
         member. *)
  mutable decoder : 'cmd -> Types.node_id array option;
      (* Recognizes configuration entries inside the opaque command type.
         Default: none (static membership, the pre-reconfiguration
         behavior — the model checker and the pure-Raft tests run so). *)
  mutable transfer_target : Types.node_id option;
  mutable term : Types.term;
  mutable role : role;
  mutable voted_for : Types.node_id option;
  mutable leader_hint : Types.node_id option;
  mutable commit : int;
  mutable applied : int;
  mutable verified : int;
      (* Follower: highest index confirmed to match the current leader's
         log via an accepted append_entries; bounds Commit_to advances. *)
  mutable announced : int;
  mutable ae_seq : int;
  mutable gate : (int -> 'cmd -> bool) option;
  mutable observer : (obs_event -> unit) option;
  mutable use_agg : bool;
  mutable agg_in_flight : bool;
  mutable agg_next : int;
  mutable agg_pending_end : int;
  mutable snapshot : 'snap Snapshot.meta option;
      (* Latest state-machine checkpoint, set by the embedder
         ([set_snapshot]) or received via Install_snapshot. Persistent:
         it is the durable applied-prefix image, so a crash-restart keeps
         it (see [recover]). *)
  mutable incoming : 'snap Snapshot.progress option;
      (* Chunked install in progress from the current leader. Volatile. *)
}

let fresh_peer ?(next = 1) () =
  {
    p_vote = false;
    p_next = next;
    p_match = 0;
    p_applied = 0;
    p_in_flight = false;
    p_direct = false;
    p_sent_seq = -1;
    p_snap = None;
  }

let create cfg ~noop =
  if cfg.batch_max < 1 then invalid_arg "Node.create: batch_max must be >= 1";
  if cfg.snap_chunk_bytes < 1 then
    invalid_arg "Node.create: snap_chunk_bytes must be >= 1";
  let members =
    List.sort_uniq compare (cfg.id :: Array.to_list cfg.peers)
  in
  if List.exists (fun m -> m < 0) members then
    invalid_arg "Node.create: negative node id";
  let peers = Array.make (List.fold_left Int.max 0 members + 1) None in
  Array.iter (fun p -> peers.(p) <- Some (fresh_peer ())) cfg.peers;
  {
    cfg;
    noop;
    log = Log.create ();
    peers;
    configs = [ (0, members) ];
    peer_ids = List.filter (fun m -> m <> cfg.id) members;
    decoder = (fun _ -> None);
    transfer_target = None;
    term = 0;
    role = Follower;
    voted_for = None;
    leader_hint = None;
    commit = 0;
    applied = 0;
    verified = 0;
    announced = 0;
    ae_seq = 0;
    gate = None;
    observer = None;
    use_agg = false;
    agg_in_flight = false;
    agg_next = 1;
    agg_pending_end = 0;
    snapshot = None;
    incoming = None;
  }

let id t = t.cfg.id
let role t = t.role
let term t = t.term
let leader_hint t = t.leader_hint
let log t = t.log
let commit_index t = t.commit
let applied_index t = t.applied
let announced_index t = t.announced
let voted_for t = t.voted_for
let members t = match t.configs with (_, m) :: _ -> m | [] -> []
let config_index t = match t.configs with (i, _) :: _ -> i | [] -> 0
let is_member t n = List.mem n (members t)
let cluster_size t = List.length (members t)
let quorum t = (cluster_size t / 2) + 1
let transfer_target t = t.transfer_target

let current_peers t = t.peer_ids

let set_configs t configs =
  t.configs <- configs;
  t.peer_ids <- List.filter (fun m -> m <> t.cfg.id) (members t)

let peer_opt t p =
  if p >= 0 && p < Array.length t.peers then Array.unsafe_get t.peers p else None

let set_peer t p st =
  if p < 0 then invalid_arg "Node: negative node id";
  let n = Array.length t.peers in
  if p >= n then begin
    let peers = Array.make (Int.max (p + 1) (2 * n)) None in
    Array.blit t.peers 0 peers 0 n;
    t.peers <- peers
  end;
  t.peers.(p) <- st

let clear_peers t = Array.fill t.peers 0 (Array.length t.peers) None

let ensure_peer t p =
  match peer_opt t p with
  | Some st -> st
  | None ->
      let st = fresh_peer ~next:(Log.last_index t.log + 1) () in
      set_peer t p (Some st);
      st

let applied_index_of t p =
  match peer_opt t p with Some st -> st.p_applied | None -> 0

let match_index_of t p =
  match peer_opt t p with Some st -> st.p_match | None -> 0

let note_peer_applied t p applied =
  match (t.role, peer_opt t p) with
  | Leader, Some st -> st.p_applied <- Int.max st.p_applied applied
  | (Leader | Follower | Candidate), _ -> ()

let set_announce_gate t g = t.gate <- g
let set_observer t f = t.observer <- f
let notify t e = match t.observer with Some f -> f e | None -> ()
let set_config_decoder t d = t.decoder <- d

let set_aggregated t flag =
  t.use_agg <- flag;
  if flag then begin
    t.agg_in_flight <- false;
    t.agg_next <- t.announced + 1;
    t.agg_pending_end <- t.announced
  end

let aggregated t = t.use_agg
let snapshot t = t.snapshot

let snapshot_index t =
  match t.snapshot with Some s -> s.Snapshot.last_idx | None -> 0

(* The embedder checkpointed its state machine: remember the newest image
   so compaction can discard the covered prefix and lagging followers can
   be served the image instead of replayed entries. *)
let set_snapshot t snap =
  if snap.Snapshot.last_idx > t.applied then
    invalid_arg "Node.set_snapshot: snapshot beyond the applied index";
  match t.snapshot with
  | Some cur when cur.Snapshot.last_idx >= snap.Snapshot.last_idx -> ()
  | Some _ | None ->
      t.snapshot <- Some snap;
      notify t (Obs_snapshot_taken snap.Snapshot.last_idx)

(* --- configuration bookkeeping ------------------------------------- *)

(* Drop the state of departed nodes (a re-added node starts fresh) and
   make sure every current peer has replication state. *)
let sync_peers t =
  let ms = members t in
  Array.iteri
    (fun p st -> if Option.is_some st && not (List.mem p ms) then t.peers.(p) <- None)
    t.peers;
  List.iter (fun m -> ignore (ensure_peer t m)) (current_peers t)

(* A configuration entry just landed in the log at [idx]: it governs from
   now on. On a leader the aggregated fast path is stale (its quorum and
   fan-out group are for the old membership), so drop to per-peer
   replication; the embedder re-probes once the entry commits. *)
let apply_config t ~idx ms =
  let ms = List.sort_uniq compare (Array.to_list ms) in
  set_configs t ((idx, ms) :: t.configs);
  sync_peers t;
  if t.role = Leader then begin
    t.use_agg <- false;
    t.agg_in_flight <- false
  end;
  notify t (Obs_config_changed (idx, ms))

(* Entries from [from] on were truncated by a conflicting append: any
   configuration they carried rolls back with them. *)
let rollback_configs t ~from =
  let rec pop = function
    | (ci, _) :: (_ :: _ as rest) when ci >= from -> pop rest
    | stack -> stack
  in
  let stack' = pop t.configs in
  if stack' != t.configs then begin
    set_configs t stack';
    sync_peers t;
    notify t (Obs_config_changed (config_index t, members t))
  end

let note_appended_entry t ~idx cmd =
  match t.decoder cmd with
  | Some ms -> apply_config t ~idx ms
  | None -> ()

(* Single-server rule: each config entry adds or removes at most one
   node, and only one change may be in flight (uncommitted) at a time. *)
let config_change_allowed t ms =
  let proposed = List.sort_uniq compare (Array.to_list ms) in
  let current = members t in
  let added = List.filter (fun m -> not (List.mem m current)) proposed in
  let removed = List.filter (fun m -> not (List.mem m proposed)) current in
  config_index t <= t.commit
  && List.length added + List.length removed = 1
  && proposed <> []

(* --- internal helpers; [emit] appends to the (reversed) action list --- *)

let become_follower t ~term ~leader emit =
  let was = t.role in
  if term > t.term then begin
    t.term <- term;
    t.voted_for <- None;
    t.verified <- 0
  end;
  t.role <- Follower;
  t.leader_hint <- leader;
  t.use_agg <- false;
  t.agg_in_flight <- false;
  t.transfer_target <- None;
  if was = Leader then notify t (Obs_leadership_lost t.term);
  if was <> Follower then emit (Became_follower leader)

let extend_announced t =
  if t.role = Leader then begin
    let before = t.announced in
    let stop = ref false in
    while (not !stop) && t.announced < Log.last_index t.log do
      let i = t.announced + 1 in
      let ok =
        match t.gate with
        | None -> true
        | Some g -> g i (Log.get t.log i).Types.cmd
      in
      if ok then t.announced <- i
      else begin
        notify t (Obs_announce_gated i);
        stop := true
      end
    done;
    if t.announced > before then notify t (Obs_announced_to t.announced)
  end

let next_seq t =
  t.ae_seq <- t.ae_seq + 1;
  t.ae_seq

let make_append_entries t ~lo ~hi ~seq =
  let entries = Log.slice t.log ~lo ~hi in
  let prev_idx = lo - 1 in
  let prev_term =
    match Log.term_at t.log prev_idx with
    | Some tm -> tm
    | None -> invalid_arg "make_append_entries: prev index beyond log"
  in
  Types.Append_entries
    {
      term = t.term;
      leader = t.cfg.id;
      prev_idx;
      prev_term;
      entries;
      commit = t.commit;
      seq;
    }

(* A follower is served the snapshot image instead of entries when entry
   replay is impossible (its next_index fell below the log base — the
   entries it needs were compacted away) or pointless (its log is empty:
   the conflict hint told us to start from 1, which is how a freshly
   added node announces itself — §4.4 catch-up ships the checkpoint, not
   history). A transfer in progress continues until acked complete. *)
let needs_snapshot t st =
  match t.snapshot with
  | None -> false
  | Some snap ->
      st.p_snap <> None
      || st.p_next <= Log.base t.log
      || (st.p_match = 0 && st.p_next <= 1 && snap.Snapshot.last_idx > 0)

let send_snapshot t ~force p st emit =
  match t.snapshot with
  | None -> ()
  | Some snap ->
      if (not st.p_in_flight) || force then begin
        let offset =
          match st.p_snap with
          | Some o when o <= snap.Snapshot.size -> o
          | Some _ (* superseded by a smaller image: restart *) | None ->
              notify t (Obs_install_started (p, snap.Snapshot.last_idx));
              0
        in
        st.p_snap <- Some offset;
        let chunk_bytes = t.cfg.snap_chunk_bytes in
        let len = Snapshot.chunk_len snap ~chunk_bytes ~offset in
        let last = Snapshot.is_last snap ~chunk_bytes ~offset in
        let seq = next_seq t in
        st.p_sent_seq <- seq;
        st.p_in_flight <- true;
        emit
          (Send
             ( p,
               Types.Install_snapshot
                 { term = t.term; leader = t.cfg.id; snap; offset; len; last; seq }
             ))
      end

let replicate_peer t ~force p st emit =
  if needs_snapshot t st then send_snapshot t ~force p st emit
  else if (not st.p_in_flight) || force then begin
    let nx = st.p_next in
    let hi = Int.min t.announced (nx + t.cfg.batch_max - 1) in
    if hi >= nx || force then begin
      let hi = Int.max hi (nx - 1) in
      let seq = next_seq t in
      st.p_sent_seq <- seq;
      emit (Send (p, make_append_entries t ~lo:nx ~hi ~seq));
      st.p_in_flight <- true
    end
  end

let replicate_agg t ~force emit =
  if (not t.agg_in_flight) || force then begin
    let nx = t.agg_next in
    let hi = Int.min t.announced (nx + t.cfg.batch_max - 1) in
    if hi >= nx || force then begin
      let hi = Int.max hi (nx - 1) in
      emit (Send_aggregate (make_append_entries t ~lo:nx ~hi ~seq:(next_seq t)));
      t.agg_in_flight <- true;
      t.agg_pending_end <- hi
    end
  end

let replicate t ~force emit =
  if t.role = Leader then begin
    extend_announced t;
    if t.use_agg then begin
      replicate_agg t ~force emit;
      (* Peers in point-to-point recovery are served directly (§5). *)
      List.iter
        (fun p ->
          match peer_opt t p with
          | Some st when st.p_direct -> replicate_peer t ~force p st emit
          | Some _ | None -> ())
        (current_peers t)
    end
    else
      List.iter
        (fun p -> replicate_peer t ~force p (ensure_peer t p) emit)
        (current_peers t)
  end

(* A leader that removed itself keeps driving replication until the
   removal entry commits, then steps aside (Raft §4.2.2). *)
let maybe_step_down t emit =
  if t.role = Leader && t.commit >= config_index t && not (is_member t t.cfg.id)
  then become_follower t ~term:t.term ~leader:None emit

let set_commit t c emit =
  if c > t.commit then begin
    t.commit <- c;
    notify t (Obs_commit_advanced c);
    emit (Commit_advanced c);
    maybe_step_down t emit
  end

let broadcast_commit_hint t emit =
  if t.cfg.eager_commit_notify then
    List.iter
      (fun p -> emit (Send (p, Types.Commit_to { term = t.term; commit = t.commit })))
      (current_peers t)

let try_advance_commit t emit =
  if t.role = Leader then begin
    let hi = Int.min t.announced (Log.last_index t.log) in
    let found = ref 0 in
    let i = ref hi in
    while !found = 0 && !i > t.commit do
      if Log.term_at t.log !i = Some t.term then begin
        (* Majority of the *current* configuration; self counts only
           while still a member. *)
        let count = ref (if is_member t t.cfg.id then 1 else 0) in
        List.iter
          (fun p ->
            match peer_opt t p with
            | Some st when st.p_match >= !i -> incr count
            | Some _ | None -> ())
          (current_peers t);
        if !count >= quorum t then found := !i
      end;
      decr i
    done;
    if !found > 0 then begin
      set_commit t !found emit;
      broadcast_commit_hint t emit
    end
  end

let finish_transfer t target emit =
  t.transfer_target <- None;
  emit (Send (target, Types.Timeout_now { term = t.term }));
  notify t (Obs_transfer_sent target)

let become_leader t emit =
  t.role <- Leader;
  t.leader_hint <- Some t.cfg.id;
  t.use_agg <- false;
  t.agg_in_flight <- false;
  t.transfer_target <- None;
  let last = Log.last_index t.log in
  clear_peers t;
  List.iter (fun p -> set_peer t p (Some (fresh_peer ~next:(last + 1) ()))) (current_peers t);
  (* Entries inherited from previous terms were announced by their leader;
     only entries appended from here on pass through the gate. *)
  t.announced <- last;
  ignore (Log.append t.log { Types.term = t.term; cmd = t.noop });
  notify t (Obs_leadership_won t.term);
  emit Became_leader;
  replicate t ~force:true emit;
  (* Single-node clusters commit immediately. *)
  try_advance_commit t emit

let start_election t emit =
  if is_member t t.cfg.id then begin
    t.term <- t.term + 1;
    t.role <- Candidate;
    t.voted_for <- Some t.cfg.id;
    t.leader_hint <- None;
    t.verified <- 0;
    t.use_agg <- false;
    t.transfer_target <- None;
    notify t (Obs_election_started t.term);
    Array.iter (function Some st -> st.p_vote <- false | None -> ()) t.peers;
    if quorum t = 1 then become_leader t emit
    else
      List.iter
        (fun p ->
          ignore (ensure_peer t p);
          emit
            (Send
               ( p,
                 Types.Request_vote
                   {
                     term = t.term;
                     candidate = t.cfg.id;
                     last_idx = Log.last_index t.log;
                     last_term = Log.last_term t.log;
                   } )))
        (current_peers t)
  end

(* --- message handlers --- *)

let on_request_vote t ~term ~candidate ~last_idx ~last_term emit =
  if term < t.term || not (is_member t candidate) then
    emit (Send (candidate, Types.Vote { term = t.term; from = t.cfg.id; granted = false }))
  else begin
    let up_to_date =
      last_term > Log.last_term t.log
      || (last_term = Log.last_term t.log && last_idx >= Log.last_index t.log)
    in
    let granted =
      up_to_date
      &&
      match t.voted_for with None -> true | Some v -> v = candidate
    in
    if granted then begin
      t.voted_for <- Some candidate;
      emit Leader_activity
    end;
    emit (Send (candidate, Types.Vote { term = t.term; from = t.cfg.id; granted }))
  end

let on_vote t ~term ~from ~granted emit =
  if t.role = Candidate && term = t.term && granted && is_member t from then begin
    (ensure_peer t from).p_vote <- true;
    let count = ref (if is_member t t.cfg.id then 1 else 0) in
    List.iter
      (fun p ->
        match peer_opt t p with
        | Some st when st.p_vote -> incr count
        | Some _ | None -> ())
      (current_peers t);
    if !count >= quorum t then become_leader t emit
  end

let on_append_entries t ~term ~leader ~prev_idx ~prev_term ~entries ~commit ~seq emit =
  if term < t.term then
    emit
      (Send
         ( leader,
           Types.Append_ack
             {
               term = t.term;
               from = t.cfg.id;
               success = false;
               seq;
               match_idx = 0;
               applied_idx = t.applied;
             } ))
  else begin
    if t.role <> Follower then become_follower t ~term ~leader:(Some leader) emit;
    t.leader_hint <- Some leader;
    emit Leader_activity;
    (* A prev point inside our compacted prefix is below our applied index:
       those entries are committed and immutable, so the check passes and
       the overlapping entries are skipped below. *)
    let ok =
      prev_idx < Log.base t.log || Log.term_at t.log prev_idx = Some prev_term
    in
    if not ok then begin
      (* Conflict hint: skip a whole divergent term in one round trip. *)
      let hint =
        if prev_idx > Log.last_index t.log then Log.last_index t.log + 1
        else if prev_idx > Log.base t.log then
          Log.first_index_of_term_at t.log prev_idx
        else 1
      in
      emit
        (Send
           ( leader,
             Types.Append_ack
               {
                 term = t.term;
                 from = t.cfg.id;
                 success = false;
                 seq;
                 match_idx = hint;
                 applied_idx = t.applied;
               } ))
    end
    else begin
      Array.iteri
        (fun i e ->
          let idx = prev_idx + 1 + i in
          if
            idx > Log.base t.log
            && Log.term_at t.log idx <> Some e.Types.term
          then begin
            if idx <= Log.last_index t.log then begin
              Log.truncate_from t.log idx;
              rollback_configs t ~from:idx
            end;
            ignore (Log.append t.log e);
            note_appended_entry t ~idx e.Types.cmd
          end)
        entries;
      let new_match = prev_idx + Array.length entries in
      t.verified <- Int.max t.verified new_match;
      set_commit t (Int.min commit t.verified) emit;
      (* Claim at least our commit index: committed entries are immutable
         and present in every current leader's log (Leader Completeness),
         so the leader may fast-forward its next-index past them. Without
         this, a leader whose per-peer cursor went stale (e.g. while the
         aggregated fast path carried replication) re-walks the whole
         already-replicated log one batch per round trip. *)
      emit
        (Send
           ( leader,
             Types.Append_ack
               {
                 term = t.term;
                 from = t.cfg.id;
                 success = true;
                 seq;
                 match_idx = Int.max new_match t.commit;
                 applied_idx = t.applied;
               } ))
    end
  end

let on_append_ack t ~term ~from ~success ~seq ~match_idx ~applied_idx emit =
  match (t.role, peer_opt t from) with
  | Leader, Some st when term = t.term ->
      st.p_applied <- Int.max st.p_applied applied_idx;
      (* Only acks of the latest transmission drive pacing; acks of
         superseded (retransmitted) sends still contribute their match and
         applied knowledge but must not spawn extra in-flight streams. The
         sequence counter is global, so an ack with a NEWER seq than the
         peer's last point-to-point send is the peer responding to an
         aggregator-fanned append_entries (HovercRaft++) — that one is
         authoritative too, notably the failure acks that start direct
         recovery (§5). *)
      let current = seq >= st.p_sent_seq in
      if current then begin
        st.p_sent_seq <- seq;
        st.p_in_flight <- false
      end;
      if success then begin
        st.p_match <- Int.max st.p_match match_idx;
        st.p_next <- Int.max st.p_next (st.p_match + 1);
        if t.use_agg && st.p_direct && st.p_match >= Log.last_index t.log
        then st.p_direct <- false;
        (match t.transfer_target with
        | Some target
          when target = from && st.p_match >= Log.last_index t.log ->
            finish_transfer t target emit
        | Some _ | None -> ());
        try_advance_commit t emit;
        if current then replicate t ~force:false emit
      end
      else if current then begin
        let bounded = Int.min match_idx (st.p_next - 1) in
        st.p_next <- Int.max 1 (Int.min bounded (Log.last_index t.log + 1));
        if t.use_agg then st.p_direct <- true;
        replicate_peer t ~force:true from st emit
      end
  | (Leader | Follower | Candidate), _ -> ()

(* The image is fully received: splice it in. If our log already has a
   matching entry at the snapshot's last index (Log Matching: the whole
   prefix matches) the suffix beyond it is kept and only the covered
   prefix is dropped; otherwise the retained log conflicts with (or falls
   short of) the committed prefix the snapshot represents and is
   discarded wholesale. Either way the snapshot's membership becomes the
   configuration-stack bottom, exactly as [compact] folds committed
   config entries. *)
let install_received t snap emit =
  let idx = snap.Snapshot.last_idx and tm = snap.Snapshot.last_term in
  let suffix_kept = Log.term_at t.log idx = Some tm in
  if suffix_kept then Log.compact_to t.log idx
  else Log.install t.log ~base:idx ~base_term:tm;
  (* Config entries above idx survive only with the log suffix; the rest
     fold into the snapshot's membership at the stack bottom. *)
  let above =
    if suffix_kept then List.filter (fun (ci, _) -> ci > idx) t.configs else []
  in
  set_configs t (above @ [ (0, snap.Snapshot.members) ]);
  sync_peers t;
  notify t (Obs_config_changed (config_index t, members t));
  t.snapshot <- Some snap;
  t.applied <- Int.max t.applied idx;
  t.verified <- Int.max t.verified idx;
  (* Tell the embedder to load the image *before* it sees the commit
     advance, so the apply loop never tries to execute entries the
     snapshot already covers. *)
  emit (Snapshot_installed snap);
  set_commit t idx emit

let on_install_snapshot t ~term ~leader ~snap ~offset ~len ~last:_ ~seq emit =
  if term < t.term then
    emit
      (Send
         ( leader,
           Types.Install_ack
             {
               term = t.term;
               from = t.cfg.id;
               snap_idx = snap.Snapshot.last_idx;
               next_offset = 0;
               seq;
               applied_idx = t.applied;
             } ))
  else begin
    if t.role <> Follower then become_follower t ~term ~leader:(Some leader) emit;
    t.leader_hint <- Some leader;
    emit Leader_activity;
    let next_offset =
      if snap.Snapshot.last_idx <= t.applied then
        (* Our state machine already covers this prefix (a retransmit, or
           we caught up by entries in the meantime): report the transfer
           complete so the leader resumes entry replication. *)
        snap.Snapshot.size
      else begin
        let prog =
          match t.incoming with
          | Some p when Snapshot.same_identity (Snapshot.meta_of p) snap -> p
          | Some _ (* different snapshot, e.g. new leader: restart *) | None ->
              let p = Snapshot.start snap in
              t.incoming <- Some p;
              p
        in
        ignore (Snapshot.accept prog ~offset ~len);
        if Snapshot.complete prog then begin
          t.incoming <- None;
          install_received t snap emit;
          snap.Snapshot.size
        end
        else Snapshot.received prog
      end
    in
    emit
      (Send
         ( leader,
           Types.Install_ack
             {
               term = t.term;
               from = t.cfg.id;
               snap_idx = snap.Snapshot.last_idx;
               next_offset;
               seq;
               applied_idx = t.applied;
             } ))
  end

let on_install_ack t ~term ~from ~snap_idx ~next_offset ~seq ~applied_idx emit =
  match (t.role, peer_opt t from) with
  | Leader, Some st when term = t.term -> (
      st.p_applied <- Int.max st.p_applied applied_idx;
      let current = seq >= st.p_sent_seq in
      if current then begin
        st.p_sent_seq <- seq;
        st.p_in_flight <- false
      end;
      match t.snapshot with
      | Some snap when st.p_snap <> None ->
          if snap_idx = snap.Snapshot.last_idx then
            if next_offset >= snap.Snapshot.size then begin
              (* Image complete and installed: the follower now matches
                 the covered prefix; resume entry replication after it. *)
              st.p_snap <- None;
              st.p_match <- Int.max st.p_match snap.Snapshot.last_idx;
              st.p_next <- Int.max st.p_next (snap.Snapshot.last_idx + 1);
              notify t (Obs_install_completed (from, snap.Snapshot.last_idx));
              try_advance_commit t emit;
              if current then replicate t ~force:false emit
            end
            else begin
              st.p_snap <- Some next_offset;
              if current then replicate_peer t ~force:true from st emit
            end
          else if current then begin
            (* Ack for a superseded snapshot (a newer checkpoint replaced
               it mid-transfer): restart the new image from the top. *)
            st.p_snap <- Some 0;
            replicate_peer t ~force:true from st emit
          end
      | Some _ | None -> ())
  | (Leader | Follower | Candidate), _ -> ()

let on_commit_to t ~term ~commit emit =
  if term = t.term && t.role = Follower then begin
    emit Leader_activity;
    set_commit t (Int.min commit t.verified) emit
  end

let on_agg_ack t ~term ~commit emit =
  if t.role = Leader && term = t.term && t.use_agg then begin
    t.agg_in_flight <- false;
    t.agg_next <- Int.max t.agg_next (t.agg_pending_end + 1);
    set_commit t (Int.min commit t.announced) emit;
    replicate t ~force:false emit
  end

let on_timeout_now t ~term emit =
  (* Cooperative transfer: the departing leader says our log is complete;
     skip the election timeout and take over now. *)
  if term = t.term && t.role <> Leader && is_member t t.cfg.id then
    start_election t emit

let handle t input =
  let acc = ref [] in
  let emit a = acc := a :: !acc in
  (match input with
  | Receive msg ->
      let mterm = Types.message_term msg in
      let ignore_msg =
        (* A vote request from a node outside our configuration must not
           bump our term: a just-removed (or not-yet-added) node timing
           out would otherwise disrupt the cluster (Raft §4.2.3). *)
        match msg with
        | Types.Request_vote { candidate; _ } -> not (is_member t candidate)
        | _ -> false
      in
      if mterm > t.term && not ignore_msg then begin
        let leader =
          match msg with
          | Types.Append_entries { leader; _ }
          | Types.Install_snapshot { leader; _ } ->
              Some leader
          | Types.Request_vote _ | Types.Vote _ | Types.Append_ack _
          | Types.Commit_to _ | Types.Agg_ack _ | Types.Timeout_now _
          | Types.Install_ack _ ->
              None
        in
        become_follower t ~term:mterm ~leader emit
      end;
      (match msg with
      | Types.Request_vote { term; candidate; last_idx; last_term } ->
          on_request_vote t ~term ~candidate ~last_idx ~last_term emit
      | Types.Vote { term; from; granted } -> on_vote t ~term ~from ~granted emit
      | Types.Append_entries
          { term; leader; prev_idx; prev_term; entries; commit; seq } ->
          on_append_entries t ~term ~leader ~prev_idx ~prev_term ~entries ~commit
            ~seq emit
      | Types.Append_ack { term; from; success; seq; match_idx; applied_idx } ->
          on_append_ack t ~term ~from ~success ~seq ~match_idx ~applied_idx emit
      | Types.Commit_to { term; commit } -> on_commit_to t ~term ~commit emit
      | Types.Agg_ack { term; commit } -> on_agg_ack t ~term ~commit emit
      | Types.Timeout_now { term } -> on_timeout_now t ~term emit
      | Types.Install_snapshot { term; leader; snap; offset; len; last; seq } ->
          on_install_snapshot t ~term ~leader ~snap ~offset ~len ~last ~seq emit
      | Types.Install_ack { term; from; snap_idx; next_offset; seq; applied_idx }
        ->
          on_install_ack t ~term ~from ~snap_idx ~next_offset ~seq ~applied_idx
            emit)
  | Election_timeout -> if t.role <> Leader then start_election t emit
  | Heartbeat_timeout -> if t.role = Leader then replicate t ~force:true emit
  | Client_command cmd ->
      if t.role <> Leader then emit (Reject_command cmd)
      else if t.transfer_target <> None then
        (* Mid-transfer the leader freezes its log so the target can catch
           up (otherwise the handoff chases a moving tail). *)
        emit (Reject_command cmd)
      else begin
        match t.decoder cmd with
        | Some ms when not (config_change_allowed t ms) ->
            emit (Reject_command cmd)
        | decoded ->
            let idx = Log.append t.log { Types.term = t.term; cmd } in
            (match decoded with
            | Some ms -> apply_config t ~idx ms
            | None -> ());
            emit (Appended idx);
            replicate t ~force:false emit;
            (* A cluster the leader can commit into alone (size <= 1, or a
               quorum already matching) has no acks to drive the rule. *)
            if quorum t = 1 then try_advance_commit t emit
      end
  | Applied_up_to i ->
      t.applied <- Int.max t.applied (Int.min i t.commit);
      if t.role = Leader then replicate t ~force:false emit
  | Announce_kick ->
      (* The embedder learned that a previously ineligible replier queue
         drained: re-evaluate the announce gate now instead of waiting for
         the next heartbeat. *)
      if t.role = Leader then replicate t ~force:false emit
  | Transfer_leadership target ->
      if t.role = Leader && target <> t.cfg.id && is_member t target then begin
        t.transfer_target <- Some target;
        extend_announced t;
        let st = ensure_peer t target in
        if st.p_match >= Log.last_index t.log then
          finish_transfer t target emit
        else begin
          (* In aggregated mode per-follower acks flow to the aggregator,
             so the leader would never observe the target's match index;
             serve the target point-to-point until the hand-off fires. *)
          if t.use_agg then st.p_direct <- true;
          replicate t ~force:true emit
        end
      end);
  List.rev !acc

(* --- log compaction --- *)

(* The highest index that is safe to discard. With a snapshot it is
   simply the checkpointed prefix: a follower that later turns out to
   need discarded entries is served the image instead (Install_snapshot),
   so a crashed follower no longer pins the leader's bound. Without one
   (the embedder never checkpoints — the pure-Raft tests and the model
   checker run so) replay is the only recovery path, and the bound falls
   back to the pre-snapshot rule: applied locally and, on a leader, held
   by every follower. A follower holds an entry when it acknowledged it
   (match index) or applied it: an entry at or below a follower's applied
   index is committed, so it sits, identical, in that follower's durable
   log and replay never has to serve it. In aggregated mode (HovercRaft++)
   the switch counts the quorum and the leader sees no per-follower
   match, so the applied indices the aggregator's completed registers
   report ({!note_peer_applied}) are what let the leader's log shrink at
   all. The caller's retention window is still kept on top. *)
let compaction_bound t =
  match t.snapshot with
  | Some snap -> snap.Snapshot.last_idx
  | None ->
      if t.role = Leader then
        List.fold_left
          (fun acc p ->
            Int.min acc (Int.max (match_index_of t p) (applied_index_of t p)))
          t.applied (current_peers t)
      else t.applied

let compact t ~retain =
  if retain < 0 then invalid_arg "Node.compact: negative retention";
  let target = Int.min (compaction_bound t) (Log.last_index t.log - retain) in
  if target > Log.base t.log then begin
    Log.compact_to t.log target;
    (* Configs at or below the new base are committed and immutable; fold
       them into the stack bottom so rollback can never cross the base. *)
    let base = Log.base t.log in
    let above, below = List.partition (fun (ci, _) -> ci > base) t.configs in
    match below with
    | [] -> ()
    | (_, ms) :: _ -> set_configs t (above @ [ (0, ms) ])
  end;
  Log.base t.log

(* --- snapshot / restore (for the model checker) --- *)

type ('cmd, 'snap) dump = {
  d_term : Types.term;
  d_role : role;
  d_voted_for : Types.node_id option;
  d_leader_hint : Types.node_id option;
  d_commit : int;
  d_applied : int;
  d_verified : int;
  d_base : int;
  d_base_term : Types.term;
  d_entries : 'cmd Types.entry list;  (* retained: index d_base + 1 first *)
  d_snapshot : 'snap Snapshot.meta option;
  d_incoming : ('snap Snapshot.meta * int) option;  (* meta, bytes received *)
  d_peers :
    (Types.node_id * (bool * int * int * int * bool * bool * int * int option))
    list;
  d_configs : (int * Types.node_id list) list;
  d_transfer : Types.node_id option;
  d_announced : int;
  d_ae_seq : int;
  d_use_agg : bool;
  d_agg_in_flight : bool;
  d_agg_next : int;
  d_agg_pending_end : int;
}

(* By ascending id: walking down from the top conses the lowest last. *)
let dump_peers t =
  let acc = ref [] in
  for p = Array.length t.peers - 1 downto 0 do
    match t.peers.(p) with
    | Some st ->
        acc :=
          ( p,
            ( st.p_vote,
              st.p_next,
              st.p_match,
              st.p_applied,
              st.p_in_flight,
              st.p_direct,
              st.p_sent_seq,
              st.p_snap ) )
          :: !acc
    | None -> ()
  done;
  !acc

let dump t =
  {
    d_term = t.term;
    d_role = t.role;
    d_voted_for = t.voted_for;
    d_leader_hint = t.leader_hint;
    d_commit = t.commit;
    d_applied = t.applied;
    d_verified = t.verified;
    d_base = Log.base t.log;
    d_base_term =
      (match Log.term_at t.log (Log.base t.log) with Some tm -> tm | None -> 0);
    d_entries =
      Array.to_list
        (Log.slice t.log ~lo:(Log.first_index t.log) ~hi:(Log.last_index t.log));
    d_snapshot = t.snapshot;
    d_incoming =
      (match t.incoming with
      | Some p -> Some (Snapshot.meta_of p, Snapshot.received p)
      | None -> None);
    d_peers = dump_peers t;
    d_configs = t.configs;
    d_transfer = t.transfer_target;
    d_announced = t.announced;
    d_ae_seq = t.ae_seq;
    d_use_agg = t.use_agg;
    d_agg_in_flight = t.agg_in_flight;
    d_agg_next = t.agg_next;
    d_agg_pending_end = t.agg_pending_end;
  }

let restore cfg ~noop d =
  let t = create cfg ~noop in
  t.term <- d.d_term;
  t.role <- d.d_role;
  t.voted_for <- d.d_voted_for;
  t.leader_hint <- d.d_leader_hint;
  t.commit <- d.d_commit;
  t.applied <- d.d_applied;
  t.verified <- d.d_verified;
  Log.install t.log ~base:d.d_base ~base_term:d.d_base_term;
  List.iter (fun e -> ignore (Log.append t.log e)) d.d_entries;
  t.snapshot <- d.d_snapshot;
  t.incoming <-
    (match d.d_incoming with
    | Some (meta, got) -> Some (Snapshot.resume meta ~got)
    | None -> None);
  clear_peers t;
  List.iter
    (fun (p, (v, nx, m, a, inf, dir, seq, snap)) ->
      set_peer t p
        (Some
           {
             p_vote = v;
             p_next = nx;
             p_match = m;
             p_applied = a;
             p_in_flight = inf;
             p_direct = dir;
             p_sent_seq = seq;
             p_snap = snap;
           }))
    d.d_peers;
  set_configs t d.d_configs;
  t.transfer_target <- d.d_transfer;
  t.announced <- d.d_announced;
  t.ae_seq <- d.d_ae_seq;
  t.use_agg <- d.d_use_agg;
  t.agg_in_flight <- d.d_agg_in_flight;
  t.agg_next <- d.d_agg_next;
  t.agg_pending_end <- d.d_agg_pending_end;
  t

let compare_dump = Stdlib.compare

(* --- crash recovery --- *)

(* Simulated-crash semantics (see DESIGN.md): term, vote, the log — and
   with it the configuration stack, which is derived from the log plus the
   bootstrap config — are persistent, and the state machine is durable up
   to [applied] (the apply loop checkpoints synchronously). Everything
   else — commit knowledge beyond the applied prefix, leadership, per-peer
   replication state, the aggregated fast path — is volatile and rebuilt
   after rejoin. Applied entries are committed, so flooring [commit] and
   [verified] at [applied] is safe: by leader completeness every future
   leader carries them. *)
let recover t =
  t.role <- Follower;
  t.leader_hint <- None;
  t.commit <- t.applied;
  t.verified <- t.applied;
  t.gate <- None;
  t.incoming <- None;
  (* [t.snapshot] survives: it is the durable applied-prefix checkpoint
     (the embedder's state machine is persistent up to [applied], and the
     image was cut from it). A half-received install, by contrast, is
     volatile and the transfer restarts from offset 0. *)
  t.use_agg <- false;
  t.agg_in_flight <- false;
  t.agg_next <- 1;
  t.agg_pending_end <- 0;
  t.announced <- 0;
  t.transfer_target <- None;
  clear_peers t;
  List.iter (fun p -> ignore (ensure_peer t p)) (current_peers t)

type 'cmd dump_info = {
  i_term : Types.term;
  i_role : role;
  i_commit : int;
  i_base : int;
  i_entries : 'cmd Types.entry list;
}

let dump_info d =
  {
    i_term = d.d_term;
    i_role = d.d_role;
    i_commit = d.d_commit;
    i_base = d.d_base;
    i_entries = d.d_entries;
  }
