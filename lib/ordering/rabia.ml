open Hovercraft_sim
module Rlog = Hovercraft_raft.Log
module Rtypes = Hovercraft_raft.Types
module Snapshot = Hovercraft_raft.Snapshot

module Smap = Map.Make (String)

type config = { id : int; peers : int array; batch_max : int; coin_seed : int }
type 'cmd value = Bot | Batch of 'cmd array
type bvote = V0 | V1 | Vq

type ('cmd, 'snap) msg =
  | Proposal of { from : int; slot : int; value : 'cmd value }
  | State of {
      from : int;
      slot : int;
      round : int;
      est : bool;
      value : 'cmd value;
    }
  | Vote of {
      from : int;
      slot : int;
      round : int;
      vote : bvote;
      value : 'cmd value;
    }
  | Status of { from : int; next_slot : int }
  | Repair of { from : int; decisions : (int * 'cmd value) list }
  | Snap of { from : int; meta : 'snap Snapshot.meta }

type ('cmd, 'snap) input =
  | Receive of ('cmd, 'snap) msg
  | Tick
  | Client_command of 'cmd
  | Applied_up_to of int

type ('cmd, 'snap) action =
  | Send of int * ('cmd, 'snap) msg
  | Commit_advanced of int
  | Appended_range of int * int
  | Snapshot_installed of 'snap Snapshot.meta

(* Per-slot Ben-Or phase: collecting proposals (round 0), then for each
   round r >= 1 a state exchange followed by a vote exchange. All of it —
   including the received tallies — is durable across a simulated crash:
   a node that contributed to a decision quorum and then forgot its vote
   could later join a conflicting coin-flip quorum, which is the textbook
   way crash-recovery Ben-Or loses safety. *)
type ('cmd, 'snap) t = {
  cfg : config;
  key_of : 'cmd -> string;
  stamp_of : 'cmd -> int;
  members : int list;  (* sorted, static: no reconfig under rabia *)
  quorum : int;  (* n - f = floor(n/2) + 1 *)
  f : int;  (* tolerated crash faults: floor((n-1)/2) *)
  log : 'cmd Rlog.t;
  mutable commit : int;  (* = last appended index; rabia has no
                            uncommitted suffix *)
  mutable applied : int;
  mutable next_slot : int;  (* the slot currently being agreed (1-based) *)
  decisions : (int, 'cmd value) Hashtbl.t;
      (* Decided slots kept for Repair service. Pruned by [set_snapshot]
         (below the snapshot point laggards get the image instead) and by
         [compact] (below every replica's next slot nobody can ask). *)
  peer_next : int array;
      (* By node id: a lower bound on each peer's [next_slot], from the
         slots its consensus messages name and the [Status] it sends. *)
  mutable pruned_below : int;
      (* [compact] has dropped every decision below this slot. *)
  mutable pool : 'cmd Smap.t;
      (* Undecided client commands, keyed (and hence totally ordered) by
         [key_of]. The order is load-bearing: every node proposes the
         key-minimal [batch_max] commands of its pool, so nodes whose
         pools agree as {e sets} propose byte-identical batches no
         matter what order dissemination delivered them in. A FIFO pool
         here livelocks — once arrival orders diverge, no two nodes
         ever propose the same batch again and every slot decides null
         forever. One copy per key: the least-stamped one seen (see
         [offer]). *)
  (* --- current-slot round state (durable) --- *)
  mutable my_prop : 'cmd value option;  (* locked: never changes once sent *)
  proposals : (int, 'cmd value) Hashtbl.t;  (* sender -> value, self incl. *)
  mutable round : int;  (* 0 = proposal phase *)
  mutable voting : bool;  (* within round: false = state, true = vote *)
  mutable est : bool;
  mutable vcand : 'cmd array option;  (* the unique non-null candidate *)
  states : (int * int, bool) Hashtbl.t;  (* (round, sender) -> est *)
  votes : (int * int, bvote) Hashtbl.t;  (* (round, sender) -> vote *)
  (* --- volatile --- *)
  future : (int, ('cmd, 'snap) msg list) Hashtbl.t;
      (* buffered messages for slots ahead of us *)
  future_decisions : (int, 'cmd value) Hashtbl.t;
      (* repaired decisions beyond the contiguous point *)
  mutable tick_mark : int * int * bool;
      (* (slot, round, voting) as of the previous tick: retransmit only
         when a full tick passes with no progress *)
  mutable pull_sent : int;
      (* next_slot value of the outstanding catch-up probe, -1 when none.
         Catch-up pulls are single-flight: while one is unanswered we
         never solicit another, or every consensus message from an
         ahead peer would trigger a fresh full-window Repair from each
         of n-1 peers — redundant multi-megabyte streams that book the
         laggard's rx link far into the future and turn a transient lag
         into a permanent one (the answers arrive ever staler). *)
  mutable pull_rr : int;  (* rotation cursor for tick-retry probes *)
  mutable snap : 'snap Snapshot.meta option;
  mutable snap_slot : int;  (* slot of the snapshot's last entry *)
}

let create cfg ~key_of ~stamp_of =
  if cfg.batch_max < 1 then invalid_arg "Rabia.create: batch_max must be >= 1";
  let members = List.sort_uniq compare (cfg.id :: Array.to_list cfg.peers) in
  let n = List.length members in
  {
    cfg;
    key_of;
    stamp_of;
    members;
    quorum = (n / 2) + 1;
    f = (n - 1) / 2;
    log = Rlog.create ();
    commit = 0;
    applied = 0;
    next_slot = 1;
    decisions = Hashtbl.create 256;
    peer_next = Array.make (List.fold_left max 0 members + 1) 1;
    pruned_below = 1;
    pool = Smap.empty;
    my_prop = None;
    proposals = Hashtbl.create 8;
    round = 0;
    voting = false;
    est = false;
    vcand = None;
    states = Hashtbl.create 32;
    votes = Hashtbl.create 32;
    future = Hashtbl.create 16;
    future_decisions = Hashtbl.create 16;
    tick_mark = (0, 0, false);
    pull_sent = -1;
    pull_rr = 0;
    snap = None;
    snap_slot = 0;
  }

let id t = t.cfg.id
let members t = t.members
let log t = t.log
let commit_index t = t.commit
let applied_index t = t.applied
let next_slot t = t.next_slot
let pending t = Smap.cardinal t.pool
let pending_mem t key = Smap.mem key t.pool
let filter_pending t ~keep = t.pool <- Smap.filter (fun _ c -> keep c) t.pool

(* The common coin: a pure function of (cluster seed, slot, round), so
   every node that reaches the same tie-break flips the same bit — the
   determinism rule that keeps seeded chaos replays byte-identical. *)
let coin t ~slot ~round =
  let r =
    Rng.create
      (t.cfg.coin_seed lxor (slot * 0x9E3779B9) lxor (round * 0x85EBCA6B))
  in
  Rng.bool r 0.5

(* A value's identity is every command's key AND stamp: two replicas
   can hold copies of one command stamped differently (a client resend
   that reached only some of them), and what the log appends must be
   the same everywhere, stamps included, since the embedder's apply
   reads them. *)
let value_key t = function
  | Bot -> ""
  | Batch arr ->
      let name c = t.key_of c ^ "@" ^ string_of_int (t.stamp_of c) in
      String.concat "|" (Array.to_list (Array.map name arr))

(* Pool a command unless a copy stamped no later is there already; true
   when the pool changed. Keeping the least stamp is a join, so pools
   that saw the same copies agree whatever the order, and proposal
   adoption carries the least stamp to every pool: copies that disagree
   cost null slots until then, never agreement. *)
let offer t c =
  let k = t.key_of c in
  match Smap.find_opt k t.pool with
  | Some c' when t.stamp_of c' <= t.stamp_of c -> false
  | Some _ | None ->
      t.pool <- Smap.add k c t.pool;
      true

let broadcast t msg acts =
  Array.iter (fun p -> acts := Send (p, msg) :: !acts) t.cfg.peers

(* Entry term = slot number: the slot structure is recoverable from the
   log alone (checkpoint alignment, repair arithmetic). *)
let slot_final t idx =
  idx >= 1
  && idx <= Rlog.last_index t.log
  &&
  match Rlog.term_at t.log (idx + 1) with
  | None -> true
  | Some s' -> (
      match Rlog.term_at t.log idx with Some s -> s' <> s | None -> true)

let reset_slot_state t =
  t.my_prop <- None;
  Hashtbl.reset t.proposals;
  t.round <- 0;
  t.voting <- false;
  t.est <- false;
  t.vcand <- None;
  Hashtbl.reset t.states;
  Hashtbl.reset t.votes

(* A decided batch leaves the pool; commands it carries that we never
   saw (decided from a peer's proposal) are simply not there. *)
let drop_from_pending t arr =
  Array.iter (fun c -> t.pool <- Smap.remove (t.key_of c) t.pool) arr

let apply_decision t slot value acts =
  Hashtbl.replace t.decisions slot value;
  match value with
  | Bot -> ()
  | Batch arr ->
      drop_from_pending t arr;
      let lo = Rlog.last_index t.log + 1 in
      Array.iter
        (fun c -> ignore (Rlog.append t.log { Rtypes.term = slot; cmd = c }))
        arr;
      let hi = Rlog.last_index t.log in
      t.commit <- hi;
      acts := Commit_advanced hi :: Appended_range (lo, hi) :: !acts

(* Candidate uniqueness: a candidate needs [quorum] identical proposals,
   proposals are locked per (node, slot) — durable, so even a crashed
   node cannot equivocate — and two different values with quorum support
   would need more proposers than exist. Hence at most one non-null
   candidate per slot, and any value learned from a State/Vote message is
   THE candidate. *)
let learn_value t = function
  | Batch arr -> if t.vcand = None then t.vcand <- Some arr
  | Bot -> ()

let cand_value t =
  match t.vcand with Some arr -> Batch arr | None -> Bot

let take_batch t =
  if Smap.is_empty t.pool then Bot
  else begin
    (* The key-minimal [batch_max] commands of the pool: the canonical
       proposal every node with the same pool arrives at. *)
    let batch = ref [] and n = ref 0 in
    (try
       Smap.iter
         (fun _ c ->
           if !n >= t.cfg.batch_max then raise Exit;
           batch := c :: !batch;
           incr n)
         t.pool
     with Exit -> ());
    Batch (Array.of_list (List.rev !batch))
  end

(* ------------------------------------------------------------------ *)
(* The per-slot protocol                                               *)

(* A peer sending a consensus message for slot s has decided every slot
   below it; a [Status] names its next slot outright. Next slots only
   grow, so the bound keeps the largest seen. *)
let note_peer_next t msg =
  match msg with
  | Proposal { from; slot; _ }
  | State { from; slot; _ }
  | Vote { from; slot; _ }
  | Status { from; next_slot = slot } ->
      if from >= 0 && from < Array.length t.peer_next
         && slot > t.peer_next.(from)
      then t.peer_next.(from) <- slot
  | Repair _ | Snap _ -> ()

let rec maybe_start t acts =
  if t.my_prop = None && ((not (Smap.is_empty t.pool)) || Hashtbl.length t.proposals > 0)
  then begin
    let v = take_batch t in
    t.my_prop <- Some v;
    Hashtbl.replace t.proposals t.cfg.id v;
    broadcast t (Proposal { from = t.cfg.id; slot = t.next_slot; value = v }) acts;
    check_proposals t acts
  end

and check_proposals t acts =
  if t.round = 0 && t.my_prop <> None
     && Hashtbl.length t.proposals >= t.quorum
  then begin
    (* Weak MVC reduction: estimate 1 ("commit the batch") only with
       quorum-identical non-null proposals in hand; 0 otherwise. *)
    let counts = Hashtbl.create 8 in
    Hashtbl.iter
      (fun _ v ->
        match v with
        | Bot -> ()
        | Batch arr ->
            let k = value_key t v in
            let c = try Hashtbl.find counts k with Not_found -> (0, arr) in
            Hashtbl.replace counts k (fst c + 1, arr))
      t.proposals;
    t.est <- false;
    Hashtbl.iter
      (fun _ (c, arr) ->
        if c >= t.quorum then begin
          t.est <- true;
          t.vcand <- Some arr
        end)
      counts;
    enter_state_phase t acts
  end

and enter_state_phase t acts =
  t.round <- t.round + 1;
  t.voting <- false;
  Hashtbl.replace t.states (t.round, t.cfg.id) t.est;
  broadcast t
    (State
       {
         from = t.cfg.id;
         slot = t.next_slot;
         round = t.round;
         est = t.est;
         value = cand_value t;
       })
    acts;
  check_states t acts

and check_states t acts =
  if t.round >= 1 && not t.voting then begin
    let total = ref 0 and ones = ref 0 in
    Hashtbl.iter
      (fun (r, _) est ->
        if r = t.round then begin
          incr total;
          if est then incr ones
        end)
      t.states;
    if !total >= t.quorum then begin
      let vote =
        if !ones >= t.quorum then V1
        else if !total - !ones >= t.quorum then V0
        else Vq
      in
      t.voting <- true;
      Hashtbl.replace t.votes (t.round, t.cfg.id) vote;
      broadcast t
        (Vote
           {
             from = t.cfg.id;
             slot = t.next_slot;
             round = t.round;
             vote;
             value = cand_value t;
           })
        acts;
      check_votes t acts
    end
  end

and check_votes t acts =
  if t.round >= 1 && t.voting then begin
    let total = ref 0 and c1 = ref 0 and c0 = ref 0 in
    Hashtbl.iter
      (fun (r, _) v ->
        if r = t.round then begin
          incr total;
          match v with V1 -> incr c1 | V0 -> incr c0 | Vq -> ()
        end)
      t.votes;
    if !total >= t.quorum then
      if !c1 >= t.f + 1 then decide t true acts
      else if !c0 >= t.f + 1 then decide t false acts
      else begin
        (if !c1 >= 1 then t.est <- true
         else if !c0 >= 1 then t.est <- false
         else
           (* All-question-mark: the common coin breaks the tie. A node
              flipping 1 without knowing the candidate falls back to 0 —
              it cannot champion a value it cannot name; the value
              piggybacked on every est=1 message re-synchronizes it
              within a round. *)
           t.est <- coin t ~slot:t.next_slot ~round:t.round && t.vcand <> None);
        enter_state_phase t acts
      end
  end

and decide t one acts =
  let value = if one then Batch (Option.get t.vcand) else Bot in
  apply_decision t t.next_slot value acts;
  advance_slot t acts

and advance_slot t acts =
  t.next_slot <- t.next_slot + 1;
  reset_slot_state t;
  (* Decisions repaired ahead of us may now be contiguous. *)
  (match Hashtbl.find_opt t.future_decisions t.next_slot with
  | Some v ->
      Hashtbl.remove t.future_decisions t.next_slot;
      apply_decision t t.next_slot v acts;
      advance_slot t acts
  | None ->
      (* Replay messages buffered for the slot we just reached. *)
      (match Hashtbl.find_opt t.future t.next_slot with
      | Some msgs ->
          Hashtbl.remove t.future t.next_slot;
          List.iter (fun m -> handle_msg t m acts) (List.rev msgs)
      | None -> ());
      maybe_start t acts)

(* Solicit catch-up from [peer], at most one probe in flight: a repeat
   for the same next_slot means the previous one is still unanswered
   (or its answer is in flight), and re-asking — possibly a different
   peer — would just stack redundant Repair windows on our rx link. A
   tick with no progress resets the flight (see [Tick]). *)
and pull t ~peer acts =
  if t.pull_sent <> t.next_slot then begin
    t.pull_sent <- t.next_slot;
    acts :=
      Send (peer, Status { from = t.cfg.id; next_slot = t.next_slot }) :: !acts
  end

(* Serve a laggard: decisions from its slot onward, or the whole image
   when they were pruned behind the snapshot. *)
and repair_for t ~peer ~their_next acts =
  if their_next <= t.snap_slot then
    match t.snap with
    | Some meta -> acts := Send (peer, Snap { from = t.cfg.id; meta }) :: !acts
    | None -> ()
  else begin
    let hi = min (t.next_slot - 1) (their_next + 63) in
    let ds = ref [] in
    for s = hi downto their_next do
      match Hashtbl.find_opt t.decisions s with
      | Some v -> ds := (s, v) :: !ds
      | None -> ()
    done;
    if !ds <> [] then
      acts := Send (peer, Repair { from = t.cfg.id; decisions = !ds }) :: !acts
  end

and handle_msg t msg acts =
  note_peer_next t msg;
  let slot_of = function
    | Proposal { slot; _ } | State { slot; _ } | Vote { slot; _ } -> Some slot
    | Status _ | Repair _ | Snap _ -> None
  in
  match slot_of msg with
  | Some slot when slot < t.next_slot ->
      (* The sender is still agreeing on a slot we already decided. Do
         NOT push the decisions: a stalled laggard retransmits its phase
         message every tick to every peer, and n-1 unsolicited repair
         windows per tick swamp its rx link (the window data outweighs
         the trigger by ~1000x). Send a 16-byte hint instead — the
         laggard pulls from one peer at a time ([pull] is single-flight,
         so concurrent hints cost nothing). *)
      let peer =
        match msg with
        | Proposal { from; _ } | State { from; _ } | Vote { from; _ } -> from
        | _ -> assert false
      in
      acts :=
        Send (peer, Status { from = t.cfg.id; next_slot = t.next_slot })
        :: !acts
  | Some slot when slot > t.next_slot ->
      (* Ahead of us: buffer (bounded), and pull what we're missing. *)
      let peer =
        match msg with
        | Proposal { from; _ } | State { from; _ } | Vote { from; _ } -> from
        | _ -> assert false
      in
      let buf =
        match Hashtbl.find_opt t.future slot with Some l -> l | None -> []
      in
      if List.length buf < 64 then Hashtbl.replace t.future slot (msg :: buf);
      pull t ~peer acts
  | Some _ -> (
      (* Current slot. *)
      match msg with
      | Proposal { from; value; _ } ->
          if not (Hashtbl.mem t.proposals from) then begin
            Hashtbl.replace t.proposals from value;
            (* Adopt commands we have never seen, or have only in a
               later-stamped copy: dissemination lost them on the way
               here, but the proposal carries them whole. This is what
               un-sticks a command only one live node knows — without
               it, that batch could never reach quorum-identical
               proposals. Duplicates with already-decided slots are
               possible and resolved by the embedder's exactly-once
               apply. *)
            (match value with
            | Batch arr -> Array.iter (fun c -> ignore (offer t c)) arr
            | Bot -> ());
            maybe_start t acts;
            check_proposals t acts
          end
      | State { from; round; est; value; _ } ->
          learn_value t value;
          if not (Hashtbl.mem t.states (round, from)) then begin
            Hashtbl.replace t.states (round, from) est;
            if round = t.round then check_states t acts
          end
      | Vote { from; round; vote; value; _ } ->
          learn_value t value;
          if not (Hashtbl.mem t.votes (round, from)) then begin
            Hashtbl.replace t.votes (round, from) vote;
            if round = t.round then check_votes t acts
          end
      | Status _ | Repair _ | Snap _ -> assert false)
  | None -> (
      match msg with
      | Status { from; next_slot } ->
          if next_slot < t.next_slot then
            repair_for t ~peer:from ~their_next:next_slot acts
          else if next_slot > t.next_slot then
            (* A hint that we are the laggard: pull (single-flight). *)
            pull t ~peer:from acts
      | Repair { from; decisions } ->
          let before = t.next_slot in
          List.iter
            (fun (slot, v) ->
              if slot >= t.next_slot then
                Hashtbl.replace t.future_decisions slot v)
            decisions;
          let progressed = ref true in
          while !progressed do
            match Hashtbl.find_opt t.future_decisions t.next_slot with
            | Some v ->
                Hashtbl.remove t.future_decisions t.next_slot;
                (* Decided externally: whatever round state we had for
                   this slot is moot. *)
                apply_decision t t.next_slot v acts;
                t.next_slot <- t.next_slot + 1;
                reset_slot_state t
            | None -> progressed := false
          done;
          let stale =
            Hashtbl.fold
              (fun s _ acc -> if s < t.next_slot then s :: acc else acc)
              t.future []
          in
          List.iter (Hashtbl.remove t.future) stale;
          (match Hashtbl.find_opt t.future t.next_slot with
          | Some msgs ->
              Hashtbl.remove t.future t.next_slot;
              List.iter (fun m -> handle_msg t m acts) (List.rev msgs)
          | None -> ());
          (* Chain the pull: a repair that advanced us probably has a
             successor window behind it — ask now rather than waiting a
             tick, so catch-up runs at network round-trip speed. Strict
             progress guards the chain: a repair that taught us nothing
             sends no follow-up, so two peers can never ping-pong. *)
          if t.next_slot > before then pull t ~peer:from acts;
          maybe_start t acts
      | Snap { from; meta } ->
          let snap_slot = meta.Snapshot.last_term in
          if snap_slot >= t.next_slot then begin
            Rlog.install t.log ~base:meta.Snapshot.last_idx
              ~base_term:meta.Snapshot.last_term;
            t.commit <- meta.Snapshot.last_idx;
            t.applied <- max t.applied meta.Snapshot.last_idx;
            t.snap <- Some meta;
            t.snap_slot <- snap_slot;
            t.next_slot <- snap_slot + 1;
            reset_slot_state t;
            Hashtbl.reset t.decisions;
            let stale =
              Hashtbl.fold
                (fun s _ acc -> if s < t.next_slot then s :: acc else acc)
                t.future_decisions []
            in
            List.iter (Hashtbl.remove t.future_decisions) stale;
            let stale_msgs =
              Hashtbl.fold
                (fun s _ acc -> if s < t.next_slot then s :: acc else acc)
                t.future []
            in
            List.iter (Hashtbl.remove t.future) stale_msgs;
            acts :=
              Commit_advanced t.commit :: Snapshot_installed meta :: !acts;
            (* Pull decisions made since the image was cut (same chained
               catch-up as Repair; installing always strictly advances). *)
            pull t ~peer:from acts;
            maybe_start t acts
          end
      | Proposal _ | State _ | Vote _ -> assert false)

(* ------------------------------------------------------------------ *)

let handle t input =
  let acts = ref [] in
  (match input with
  | Receive msg -> handle_msg t msg acts
  | Client_command c -> if offer t c then maybe_start t acts
  | Applied_up_to idx -> if idx > t.applied then t.applied <- idx
  | Tick ->
      let mark = (t.next_slot, t.round, t.voting) in
      if mark = t.tick_mark then begin
        (* A full tick with no progress: retransmit everything this node
           said about the slot — its proposal, and its state and vote of
           every round so far (drop recovery) — and probe for repairs. A
           peer can be stuck in any earlier round waiting for one of
           those: a lost round-1 vote strands it in round 1 for good if
           only the current phase's message is ever resent. *)
        (match t.my_prop with
        | Some v ->
            let from = t.cfg.id and slot = t.next_slot in
            broadcast t (Proposal { from; slot; value = v }) acts;
            for round = 1 to t.round do
              (match Hashtbl.find_opt t.states (round, from) with
              | Some est ->
                  broadcast t
                    (State { from; slot; round; est; value = cand_value t })
                    acts
              | None -> ());
              match Hashtbl.find_opt t.votes (round, from) with
              | Some vote ->
                  broadcast t
                    (Vote { from; slot; round; vote; value = cand_value t })
                    acts
              | None -> ()
            done
        | None -> ());
        (* Probe for repairs: reset the single-flight pull (whatever was
           outstanding is a full tick stale) and ask one peer, rotating
           so a dead or partitioned target only costs one tick. *)
        t.pull_sent <- -1;
        if Array.length t.cfg.peers > 0 then begin
          let peer =
            t.cfg.peers.(t.pull_rr mod Array.length t.cfg.peers)
          in
          t.pull_rr <- t.pull_rr + 1;
          pull t ~peer acts
        end
      end;
      t.tick_mark <- mark;
      maybe_start t acts);
  List.rev !acts

(* ------------------------------------------------------------------ *)
(* Snapshots, compaction, recovery                                     *)

let set_snapshot t (meta : 'snap Snapshot.meta) =
  if meta.Snapshot.last_idx > t.applied then
    invalid_arg "Rabia.set_snapshot: beyond applied";
  let newer =
    match t.snap with
    | Some m -> meta.Snapshot.last_idx > m.Snapshot.last_idx
    | None -> true
  in
  if newer then begin
    t.snap <- Some meta;
    t.snap_slot <- meta.Snapshot.last_term;
    (* Slots at or below the snapshot's are served by the image now. *)
    let pruned =
      Hashtbl.fold
        (fun s _ acc -> if s <= t.snap_slot then s :: acc else acc)
        t.decisions []
    in
    List.iter (Hashtbl.remove t.decisions) pruned
  end

let snapshot t = t.snap

let snapshot_index t =
  match t.snap with Some m -> m.Snapshot.last_idx | None -> 0

(* Decisions below every replica's next slot can never be asked for
   again: [repair_for] serves from the asker's next slot up, and next
   slots only grow. While a peer is silent (dead, partitioned) its bound
   stalls and so does pruning — the trade-off a Raft leader makes for a
   crashed follower. The watermark makes each pass cost O(pruned). *)
let prune_decisions t =
  let floor =
    List.fold_left
      (fun acc m -> if m = t.cfg.id then acc else min acc t.peer_next.(m))
      t.next_slot t.members
  in
  for s = t.pruned_below to floor - 1 do
    Hashtbl.remove t.decisions s
  done;
  t.pruned_below <- max t.pruned_below floor

let compact t ~retain =
  prune_decisions t;
  let bound =
    match t.snap with Some m -> m.Snapshot.last_idx | None -> t.applied
  in
  let cut = min bound (Rlog.last_index t.log - retain) in
  if cut > Rlog.base t.log then Rlog.compact_to t.log cut;
  Rlog.base t.log

let recover t =
  (* Consensus state is durable (see the interface's safety note); only
     buffered messages — volatile by nature — are dropped, and the tick
     mark resets so the first tick after restart retransmits. *)
  Hashtbl.reset t.future;
  t.tick_mark <- (-1, -1, false);
  t.pull_sent <- -1
