open Hovercraft_sim
open Hovercraft_core
open Hovercraft_r2p2
module Addr = Hovercraft_net.Addr
module Fabric = Hovercraft_net.Fabric
module Rid_tbl = R2p2.Rid_tbl

type event =
  | Kill_leader
  | Kill of int
  | Restart of int
  | Partition of int list list
  | Heal
  | Add_node
  | Remove_node of int
  | Transfer of int
  | Slow of { node : int; delay : Timebase.t }
  | Shard of int * event

type step = { at : Timebase.t; event : event }

let rec pp_event ppf = function
  | Kill_leader -> Format.fprintf ppf "kill-leader"
  | Kill i -> Format.fprintf ppf "kill node%d" i
  | Restart i -> Format.fprintf ppf "restart node%d" i
  | Add_node -> Format.fprintf ppf "add-node"
  | Remove_node i -> Format.fprintf ppf "remove node%d" i
  | Transfer i -> Format.fprintf ppf "transfer-leadership node%d" i
  | Partition sets ->
      Format.fprintf ppf "partition %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "|")
           (fun ppf set ->
             Format.fprintf ppf "{%a}"
               (Format.pp_print_list
                  ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
                  Format.pp_print_int)
               set))
        sets
  | Heal -> Format.fprintf ppf "heal"
  | Slow { node; delay } ->
      Format.fprintf ppf "slow node%d +%dus" node (delay / 1_000)
  | Shard (g, e) -> Format.fprintf ppf "shard%d:%a" g pp_event e

(* Seeded schedule generator. Invariants maintained on the generator's own
   model of the cluster: at most a minority of members dead at any time (a
   quorum can always make progress once partitions heal), kills only while
   unpartitioned, membership changes (when [reconfig] is set) only while
   everything is healthy, and a cleanup tail that heals and restarts
   everything the model knows about well before [duration] so the run can
   converge. Nodes killed via [Kill_leader] are identified only at run
   time; {!run}'s epilogue restarts any node still dead. With
   [reconfig = false] (the default) the generated schedules are identical
   to what older seeds produced. *)
let single_group_schedule ~events ~reconfig ~n ~duration ~seed () =
  if n < 3 then invalid_arg "Chaos.random_schedule: need n >= 3";
  if events <= 0 then invalid_arg "Chaos.random_schedule: events must be positive";
  let rng = Rng.create (seed lxor 0xc0a5) in
  let members = ref (List.init n Fun.id) in
  let next_id = ref n in
  let max_dead () = (List.length !members - 1) / 2 in
  let dead = Hashtbl.create 8 in
  let known_dead () = List.filter (Hashtbl.mem dead) !members in
  let live_members () =
    List.filter (fun i -> not (Hashtbl.mem dead i)) !members
  in
  let anon_dead = ref 0 in
  let dead_total () = List.length (known_dead ()) + !anon_dead in
  let partitioned = ref false in
  let horizon = duration * 7 / 10 in
  let t_first = duration / 10 in
  let times =
    List.init events (fun _ -> t_first + Rng.int rng (max 1 (horizon - t_first)))
    |> List.sort compare
  in
  let pick xs = List.nth xs (Rng.int rng (List.length xs)) in
  let make_partition at =
    let ms = Array.of_list !members in
    let n = Array.length ms in
    let m = 1 + Rng.int rng (max_dead ()) in
    for i = 0 to m - 1 do
      let j = i + Rng.int rng (n - i) in
      let tmp = ms.(i) in
      ms.(i) <- ms.(j);
      ms.(j) <- tmp
    done;
    let minority = List.sort compare (Array.to_list (Array.sub ms 0 m)) in
    let majority = List.filter (fun i -> not (List.mem i minority)) !members in
    partitioned := true;
    Some { at; event = Partition [ majority; minority ] }
  in
  (* The legacy decision tree: untouched so that [reconfig = false] keeps
     replaying historical schedules byte for byte. *)
  let choose_fault at =
    let r = Rng.int rng 100 in
    if r < 35 && dead_total () < max_dead () then begin
      incr anon_dead;
      Some { at; event = Kill_leader }
    end
    else if r < 55 && dead_total () < max_dead () then begin
      match live_members () with
      | [] -> None
      | live ->
          let v = pick live in
          Hashtbl.replace dead v ();
          Some { at; event = Kill v }
    end
    else if r < 75 && known_dead () <> [] then begin
      let v = pick (known_dead ()) in
      Hashtbl.remove dead v;
      Some { at; event = Restart v }
    end
    else if dead_total () = 0 then make_partition at
    else None
  in
  (* The reconfig-aware tree interleaves membership churn with crashes. *)
  let choose_fault_reconfig at =
    let r = Rng.int rng 100 in
    if r < 20 && dead_total () < max_dead () then begin
      incr anon_dead;
      Some { at; event = Kill_leader }
    end
    else if r < 35 && dead_total () < max_dead () then begin
      match live_members () with
      | [] -> None
      | live ->
          let v = pick live in
          Hashtbl.replace dead v ();
          Some { at; event = Kill v }
    end
    else if r < 48 && known_dead () <> [] then begin
      let v = pick (known_dead ()) in
      Hashtbl.remove dead v;
      Some { at; event = Restart v }
    end
    else if r < 62 then begin
      members := !members @ [ !next_id ];
      incr next_id;
      Some { at; event = Add_node }
    end
    else if r < 76 && List.length !members > 3 && dead_total () = 0 then begin
      let v = pick (live_members ()) in
      members := List.filter (fun i -> i <> v) !members;
      Some { at; event = Remove_node v }
    end
    else if r < 88 then (
      match live_members () with
      | [] -> None
      | live -> Some { at; event = Transfer (pick live) })
    else if dead_total () = 0 then make_partition at
    else None
  in
  let steps =
    List.filter_map
      (fun at ->
        if !partitioned then
          if Rng.bool rng 0.7 then begin
            partitioned := false;
            Some { at; event = Heal }
          end
          else None
        else if reconfig then choose_fault_reconfig at
        else choose_fault at)
      times
  in
  let gap = max 1 (duration / 20) in
  let cleanup =
    (if !partitioned then [ { at = horizon + gap; event = Heal } ] else [])
    @ List.mapi
        (fun k i -> { at = horizon + (gap * (k + 2)); event = Restart i })
        (known_dead ())
  in
  steps @ cleanup

(* Shards = 1 takes the single-group path with the caller's seed and zero
   extra RNG draws, so every historical seed replays byte for byte. With
   S > 1 each group gets an independent legacy schedule under a derived
   seed (same derivation as the groups' staggered election seeds), its
   events wrapped in [Shard g], and the per-group timelines are merged in
   time order (stable: ties keep group order). *)
let random_schedule ?(events = 6) ?(reconfig = false) ?(shards = 1) ~n
    ~duration ~seed () =
  if shards < 1 then
    invalid_arg "Chaos.random_schedule: shards must be >= 1";
  if shards = 1 then single_group_schedule ~events ~reconfig ~n ~duration ~seed ()
  else
    List.init shards (fun g ->
        single_group_schedule ~events ~reconfig ~n ~duration
          ~seed:(seed + (g * 1_000_003)) ()
        |> List.map (fun { at; event } -> { at; event = Shard (g, event) }))
    |> List.concat
    |> List.stable_sort (fun a b -> compare a.at b.at)

type verdict = {
  violations : string list;
  exactly_once_ok : bool;
  committed_preserved : bool;
  caught_up : bool;
  consistent : bool;
  pending_recoveries : int;
}

type outcome = {
  series : Failure.bucket list;
  events : (float * string) list;
  verdict : verdict;
  report : Loadgen.report;
  retried : int;
  final_members : int list;
  max_log_base : int;
  installs : int;
}

(* -------------------------------------------------------------------- *)
(* History checker                                                       *)

(* One pass over a node's committed log, oldest first. [visit idx term
   meta ~fresh] sees each non-internal entry; [fresh] says its rid occurs
   there for the first time. A shard-migration Merge carries the source
   group's completion records; at apply time those rids become
   answered-from-record, so a later ordering of one resolves as a
   duplicate and never executes — the scan counts them as seen.

   Returns the rids seen and how many state-machine executions the
   applied prefix (never past the commit index) prescribes under the
   apply rule: a write executes at its first ordering, a read at every
   ordering whose designated replier is this node (Hover modes). A
   duplicate ordering of a retried write never executes — that is the
   exactly-once contract the count verifies; a read is idempotent and
   keeps no record, so its retry is ordered and answered again. *)
let scan node visit =
  let applied = Hnode.applied_index node in
  let seen = Rid_tbl.create 4096 in
  let executions = ref 0 in
  Hnode.iter_log node ~lo:(Hnode.log_first_index node)
    ~hi:(min (Hnode.commit_index node) (Hnode.log_length node))
    (fun idx term cmd ->
      let m = cmd.Protocol.meta in
      if not m.Protocol.internal then begin
        let fresh = not (Rid_tbl.mem seen m.Protocol.rid) in
        if fresh then Rid_tbl.replace seen m.Protocol.rid ();
        if
          idx <= applied
          && if m.Protocol.read_only then m.Protocol.replier = Hnode.id node
             else fresh
        then incr executions;
        visit idx term m ~fresh
      end;
      match cmd.Protocol.body with
      | Hovercraft_apps.Op.Merge { completions; _ } ->
          List.iter
            (fun (c : Hovercraft_apps.Op.completion) ->
              Rid_tbl.replace seen c.Hovercraft_apps.Op.c_rid ())
            completions
      | _ -> ());
  (seen, !executions)

let check groups ~completed_writes =
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let exactly_once_ok = ref true in
  let caught_up = ref true in
  let consistent = ref true in
  let pending_recoveries = ref 0 in
  (* Across groups: which groups' reference replicas executed each write,
     every rid each reference holds, and whether any reference compacted. *)
  let executed_in = Rid_tbl.create 4096 in
  let held = ref [] in
  let compacted = ref false in
  Array.iteri
    (fun g d ->
      let prefix =
        if Array.length groups > 1 then Printf.sprintf "shard%d: " g else ""
      in
      let bad fmt = bad ("%s" ^^ fmt) prefix in
      let live = Deploy.live_nodes d in
      let mode = d.Deploy.params.Hnode.mode in
      (* Without snapshots, a compacted log has no image behind its base:
         the scans below would silently lose their teeth on the missing
         prefix (an exactly-once miss there would just not be counted).
         Refuse loudly rather than pass vacuously. *)
      if d.Deploy.params.Hnode.features.Hnode.snapshot_interval = 0 then
        List.iter
          (fun n ->
            if Hnode.log_base n > 0 then
              invalid_arg
                (Printf.sprintf
                   "Chaos.check: node%d compacted its log to base %d with \
                    snapshots off (snapshot_interval = 0); the history \
                    checker cannot scan the lost prefix"
                   (Hnode.id n) (Hnode.log_base n)))
          live;
      (* A node whose history is only partially scannable (compacted
         prefix, or state installed wholesale from a snapshot) cannot be
         held to the exact log-derived execution count; catch-up and
         fingerprint agreement carry the weight for it instead. *)
      let full_history n =
        Hnode.log_base n = 0 && Hnode.installs_received n = 0
      in
      (* Reference replica: the live node with the longest committed
         prefix. Its scan records the term and meta at each committed
         index; every other live node's scan compares against them. *)
      let reference =
        List.fold_left
          (fun best n ->
            match best with
            | Some b when Hnode.commit_index n <= Hnode.commit_index b -> best
            | _ -> Some n)
          None live
      in
      let diverged = ref [] in
      let executions =
        match reference with
        | None -> []
        | Some r ->
            let base = Hnode.log_first_index r in
            let len =
              max 0 (min (Hnode.commit_index r) (Hnode.log_length r) - base + 1)
            in
            let terms = Array.make len 0 in
            let metas = Array.make len Protocol.internal_noop.Protocol.meta in
            let record idx term (m : Protocol.meta) ~fresh =
              terms.(idx - base) <- term;
              metas.(idx - base) <- m;
              if fresh && not m.read_only then
                let gs = Rid_tbl.find_opt executed_in m.rid in
                Rid_tbl.replace executed_in m.rid
                  (g :: Option.value ~default:[] gs)
            in
            let compare n idx term (m : Protocol.meta) ~fresh:_ =
              let i = idx - base in
              if i >= 0 && i < len then begin
                let rm = metas.(i) in
                (* The stamp counts too: the apply layer's log clock
                   runs on it. *)
                if
                  (not rm.internal)
                  && (terms.(i) <> term
                     || (not (R2p2.req_id_equal rm.rid m.rid))
                     || rm.ordered_at <> m.ordered_at)
                then
                  diverged :=
                    Printf.sprintf
                      "committed prefixes diverge at index %d (node%d vs \
                       node%d)"
                      idx (Hnode.id n) (Hnode.id r)
                    :: !diverged
              end
            in
            let seen, ref_executions = scan r record in
            held := seen :: !held;
            if Hnode.log_base r > 0 then compacted := true;
            List.map
              (fun n ->
                ( n,
                  if Hnode.id n = Hnode.id r then ref_executions
                  else snd (scan n (compare n)) ))
              live
      in
      (* 1. Exactly-once execution: each replica's execution counter equals
         what its applied log prefix prescribes — a retried write ordered
         twice must execute once. Exact only for the Hover modes with
         replicated reads (the configurations chaos runs); elsewhere reads
         execute on the leader of the moment, so only writes give a firm
         floor. Preloaded ops (dataset population outside consensus) bump
         the raw execution counter but never appear in the log. *)
      List.iter
        (fun (n, expected) ->
          if full_history n then
            let got = Hnode.executed_ops n - Hnode.preloaded n in
            match mode with
            | Hnode.Hover | Hnode.Hover_pp ->
                if got <> expected then begin
                  exactly_once_ok := false;
                  bad "node%d executed %d ops, log prescribes %d" (Hnode.id n)
                    got expected
                end
            | Hnode.Vanilla ->
                if got < expected then begin
                  exactly_once_ok := false;
                  bad "node%d executed %d ops, log prescribes >= %d"
                    (Hnode.id n) got expected
                end
            | Hnode.Unreplicated -> ())
        executions;
      (* 2. Committed prefixes agree across live replicas (rid and term at
         every shared committed index). *)
      List.iter (bad "%s") (List.rev !diverged);
      (* 3. Catch-up: after the heal-and-restart epilogue every live
         replica must have applied everything any replica committed. *)
      let max_commit =
        List.fold_left (fun acc n -> max acc (Hnode.commit_index n)) 0 live
      in
      List.iter
        (fun n ->
          if Hnode.applied_index n < max_commit then begin
            caught_up := false;
            bad "node%d applied %d < cluster commit %d" (Hnode.id n)
              (Hnode.applied_index n) max_commit
          end)
        live;
      (* 4. Live replicas' application fingerprints agree. *)
      if not (Deploy.consistent d) then begin
        consistent := false;
        bad "live replica fingerprints diverge"
      end;
      (* 5. No body recovery is still pending: settle waited for one, so
         what is left is wedged. *)
      let pending = Deploy.total_pending_recoveries d in
      pending_recoveries := !pending_recoveries + pending;
      if pending > 0 then bad "%d pending recoveries after quiesce" pending)
    groups;
  (* 6. Across groups: every write the client saw answered was executed by
     exactly one group's reference replica — a migration's fence may
     delay a request but can neither run it on both sides nor lose it —
     or is vouched for by a Merge's completion records. With one group
     this is committed-stays-committed: no crash, election or partition
     un-commits an acknowledged write. Once a reference compacted, writes
     ordered below its base are no longer scannable; their preservation
     is then vouched for by the snapshot identity plus fingerprint
     agreement, so a miss only counts while every history is complete. *)
  let committed_preserved = ref true in
  let write_id rid = Format.asprintf "%a" R2p2.pp_req_id rid in
  (match !held with
  | [] ->
      if completed_writes <> [] then begin
        committed_preserved := false;
        bad "no live replica holds the %d client-completed write(s)"
          (List.length completed_writes)
      end
  | held ->
      List.iter
        (fun rid ->
          match Rid_tbl.find_opt executed_in rid with
          | Some (_ :: _ :: _ as gs) ->
              exactly_once_ok := false;
              bad "write %s executed in %d groups (%s)" (write_id rid)
                (List.length gs)
                (String.concat ","
                   (List.rev_map (fun g -> "g" ^ string_of_int g) gs))
          | Some _ -> ()
          | None ->
              if
                not
                  (!compacted || List.exists (fun h -> Rid_tbl.mem h rid) held)
              then begin
                committed_preserved := false;
                bad "client-completed write %s missing from committed log"
                  (write_id rid)
              end)
        completed_writes);
  {
    violations = List.rev !violations;
    exactly_once_ok = !exactly_once_ok;
    committed_preserved = !committed_preserved;
    caught_up = !caught_up;
    consistent = !consistent;
    pending_recoveries = !pending_recoveries;
  }

(* -------------------------------------------------------------------- *)
(* Driving a run                                                         *)

(* Every run drains stragglers for 100 ms after its load window, buckets
   its series at 100 ms and caps the flow-control middlebox at 1000
   in-flight requests. *)
let drain = Timebase.ms 100
let bucket = Timebase.ms 100
let flow_cap = 1000

(* Apply one event to one group right now, noting what happened —
   including events skipped as illegal. A [Shard] tag that reaches here
   names no group of the run ({!arm} unwraps the others). *)
let apply_event deploy ~t0 ~timeline event =
  let engine = deploy.Deploy.engine in
  let note fmt =
    Format.kasprintf
      (fun s ->
        timeline := (Timebase.to_s_f (Engine.now engine - t0), s) :: !timeline)
      fmt
  in
  match event with
  | Kill_leader -> (
      match Deploy.kill_leader deploy with
      | Some i -> note "killed leader node%d" i
      | None -> note "kill-leader: nothing left to kill")
  | Kill i ->
      if Hnode.alive deploy.Deploy.nodes.(i) then begin
        Deploy.kill_node deploy i;
        note "killed node%d" i
      end
      else note "kill node%d skipped (already dead)" i
  | Restart i ->
      if Hnode.alive deploy.Deploy.nodes.(i) then
        note "restart node%d skipped (alive)" i
      else begin
        Deploy.restart_node deploy i;
        note "restarted node%d" i
      end
  | Partition sets ->
      Fabric.partition deploy.Deploy.fabric
        (List.map (List.map (fun i -> Addr.Node i)) sets);
      note "%a" pp_event (Partition sets)
  | Heal ->
      Fabric.heal deploy.Deploy.fabric;
      note "healed partition"
  | (Add_node | Remove_node _ | Transfer _)
    when Hnode.backend deploy.Deploy.nodes.(0) = Hnode.Rabia ->
      (* Membership churn and leadership transfer are leader-driven Raft
         surfaces; the rabia backend rejects them outright. Chaos skips
         them like any other illegal event so mixed schedules replay. *)
      note "%a skipped (rabia backend: fixed membership, no leader)" pp_event
        event
  | Add_node ->
      let id = Deploy.add_node deploy in
      note "adding node%d to the configuration" id
  | Remove_node i ->
      if i < 0 || i >= Array.length deploy.Deploy.nodes then
        note "remove node%d skipped (unknown node)" i
      else if Deploy.is_removed deploy i then
        note "remove node%d skipped (already removed)" i
      else begin
        Deploy.remove_node deploy i;
        note "removing node%d from the configuration" i
      end
  | Transfer i ->
      if
        i >= 0
        && i < Array.length deploy.Deploy.nodes
        && Hnode.alive deploy.Deploy.nodes.(i)
        && not (Deploy.is_removed deploy i)
      then begin
        Deploy.transfer_leadership deploy ~target:i;
        note "transferring leadership to node%d" i
      end
      else note "transfer to node%d skipped (dead or removed)" i
  | Slow { node; delay } ->
      let link peer =
        Fabric.set_link_fault deploy.Deploy.fabric ~src:(Addr.Node node)
          ~dst:peer ~delay ();
        Fabric.set_link_fault deploy.Deploy.fabric ~src:peer
          ~dst:(Addr.Node node) ~delay ()
      in
      link Addr.Netagg;
      link Addr.Middlebox;
      Array.iter
        (fun nd -> if Hnode.id nd <> node then link (Addr.Node (Hnode.id nd)))
        deploy.Deploy.nodes;
      note "slowed node%d (+%dus per hop)" node (delay / 1_000)
  | Shard (g, e) -> note "shard%d event skipped (no such group): %a" g pp_event e

let arm groups ~t0 ~timelines steps =
  let engine = groups.(0).Deploy.engine in
  List.iter
    (fun { at; event } ->
      Engine.after engine at (fun () ->
          match event with
          | Shard (g, e) when g >= 0 && g < Array.length groups ->
              apply_event groups.(g) ~t0 ~timeline:timelines.(g) e
          | e -> apply_event groups.(0) ~t0 ~timeline:timelines.(0) e))
    steps

let tagged_events timelines =
  Array.to_list timelines
  |> List.mapi (fun g tl ->
         List.rev_map (fun (t, s) -> (t, Printf.sprintf "shard%d: %s" g s)) !tl)
  |> List.concat
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)

(* Heal any partition, clear link faults, and restart every dead node
   still in the configuration, noting the heal and each restart. *)
let recover deploy ~t0 ~timeline =
  if Fabric.partitioned deploy.Deploy.fabric then
    apply_event deploy ~t0 ~timeline Heal;
  Fabric.clear_link_faults deploy.Deploy.fabric;
  Array.iteri
    (fun i node ->
      if (not (Hnode.alive node)) && not (Deploy.is_removed deploy i) then
        apply_event deploy ~t0 ~timeline (Restart i))
    deploy.Deploy.nodes

(* A node that slept through most of the run has that much history to
   re-apply at state-machine speed; converge on observed progress instead
   of a fixed window (bounded so a genuine wedge still ends the run and
   fails the checker). *)
let settle ?(busy = fun () -> false) groups =
  let converged () =
    (not (busy ()))
    && Array.for_all
         (fun d ->
           let live = Deploy.live_nodes d in
           let max_commit =
             List.fold_left (fun acc n -> max acc (Hnode.commit_index n)) 0 live
           in
           Deploy.total_pending_recoveries d = 0
           && List.for_all (fun n -> Hnode.applied_index n >= max_commit) live)
         groups
  in
  let rec go tries =
    Deploy.quiesce groups.(0) ~extra:(Timebase.ms 200) ();
    if (not (converged ())) && tries > 0 then go (tries - 1)
  in
  go 50

let conclude ?busy groups ~t0 ~timelines ~completed_writes =
  Array.iteri (fun g d -> recover d ~t0 ~timeline:timelines.(g)) groups;
  settle ?busy groups;
  check groups ~completed_writes

(* Crashes must be recoverable for the whole run: peers keep ordered
   bodies past any downtime (so a restarted node can refetch them). In
   legacy runs no log prefix may compact away either (catch-up
   backtracking — and the checker — must reach index 1); with
   [snapshots = Some interval] the opposite is the point: checkpoint
   every [interval] entries and retain only that much log, so lagging
   nodes are forced through the install path and the snapshot-aware
   checker is exercised. *)
let widen (params : Hnode.params) ~duration ~snapshots =
  {
    params with
    Hnode.timing =
      {
        params.Hnode.timing with
        Hnode.gc_ordered = (2 * duration) + drain + Timebase.s 1;
      };
    features =
      (match snapshots with
      | None -> { params.Hnode.features with Hnode.log_retain = max_int / 2 }
      | Some interval ->
          {
            params.Hnode.features with
            Hnode.log_retain = interval;
            snapshot_interval = interval;
          });
  }

let run ?params ?(n = 5) ?(rate_rps = 120_000.) ?(duration = Timebase.s 2)
    ?(reconfig = false) ?snapshots ?schedule ~workload ~seed () =
  let params =
    match params with
    | Some p -> p
    | None -> Hnode.params ~mode:Hnode.Hover_pp ~n ()
  in
  let n = params.Hnode.n in
  let params = widen params ~duration ~snapshots in
  let schedule =
    match schedule with
    | Some s -> s
    | None -> random_schedule ~reconfig ~n ~duration ~seed ()
  in
  let deploy = Deploy.create (Deploy.config ~flow_cap params) in
  let engine = deploy.Deploy.engine in
  let t0 = Engine.now engine in
  let completions = Series.create ~bucket () in
  let nacks = Series.create ~bucket () in
  let completed_writes = ref [] in
  let gen =
    Loadgen.create deploy ~clients:8 ~rate_rps ~workload
      ~retry:(Timebase.ms 50, 8)
      ~on_reply:(fun ~rid ~op ~sent_at:_ ~latency ->
        if not (Hovercraft_apps.Op.read_only op) then
          completed_writes := rid :: !completed_writes;
        Series.add completions ~at:(Engine.now engine - t0) latency)
      ~on_nack:(fun ~at -> Series.mark nacks ~at:(at - t0))
      ~seed ()
  in
  let timeline = ref [] in
  arm [| deploy |] ~t0 ~timelines:[| timeline |] schedule;
  let report = Loadgen.run gen ~warmup:0 ~duration ~drain () in
  let verdict =
    conclude [| deploy |] ~t0 ~timelines:[| timeline |]
      ~completed_writes:!completed_writes
  in
  let live = Deploy.live_nodes deploy in
  let max_log_base =
    List.fold_left (fun acc nd -> max acc (Hnode.log_base nd)) 0 live
  in
  let installs =
    List.fold_left (fun acc nd -> acc + Hnode.installs_received nd) 0 live
  in
  {
    series =
      Failure.merge_series ~bucket_width:bucket
        ~completions:(Series.buckets completions)
        ~nacks:(Series.buckets nacks);
    events = List.rev !timeline;
    verdict;
    report;
    retried = Loadgen.retried gen;
    final_members =
      (match Deploy.leader deploy with
      | Some l -> Hnode.members l
      | None -> (
          match Deploy.live_nodes deploy with
          | m :: _ -> Hnode.members m
          | [] -> []));
    max_log_base;
    installs;
  }
