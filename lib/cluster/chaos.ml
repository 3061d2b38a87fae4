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

type outcome = {
  series : Failure.bucket list;
  events : (float * string) list;
  violations : string list;
  exactly_once_ok : bool;
  committed_preserved : bool;
  caught_up : bool;
  consistent : bool;
  report : Loadgen.report;
  retried : int;
  pending_recoveries : int;
  final_members : int list;
  max_log_base : int;
  installs : int;
}

(* -------------------------------------------------------------------- *)
(* History checker                                                       *)

(* Committed non-internal commands of a node, in log order. Legacy chaos
   runs pin [log_retain] high enough that nothing compacts, so the scan
   covers the whole history; snapshot-aware runs scan whatever suffix
   survives compaction and lean on state fingerprints for the rest. *)
let committed_cmds node =
  let hi = min (Hnode.commit_index node) (Hnode.log_length node) in
  let acc = ref [] in
  Hnode.iter_log node ~lo:(Hnode.log_first_index node) ~hi
    (fun idx term cmd ->
      let m = cmd.Protocol.meta in
      if not m.Protocol.internal then acc := (idx, term, m) :: !acc);
  List.rev !acc

(* How many state-machine executions this node's applied log prefix should
   have produced, under the apply rule: first occurrence of a rid executes
   iff it is a write, or a read whose designated replier is this node
   (Hover modes). Duplicate ordings of a retried rid never execute — that
   is the exactly-once contract the count verifies. *)
let expected_executions node =
  if Hnode.mode node = Hnode.Unreplicated then None
  else begin
    let hi = min (Hnode.applied_index node) (Hnode.log_length node) in
    let first = Rid_tbl.create 4096 in
    let count = ref 0 in
    Hnode.iter_log node ~lo:(Hnode.log_first_index node) ~hi
      (fun _ _ cmd ->
        let m = cmd.Protocol.meta in
        if (not m.Protocol.internal) && not (Rid_tbl.mem first m.Protocol.rid)
        then begin
          Rid_tbl.replace first m.Protocol.rid ();
          if (not m.Protocol.read_only) || m.Protocol.replier = Hnode.id node
          then incr count
        end;
        (* A shard-migration Merge carries the source group's completion
           records; at apply time those rids become answered-from-record,
           so any later ordering of one resolves as a duplicate and never
           executes. Mirror that by seeding the first-occurrence table. *)
        match cmd.Protocol.body with
        | Hovercraft_apps.Op.Merge { completions; _ } ->
            List.iter
              (fun (c : Hovercraft_apps.Op.completion) ->
                Rid_tbl.replace first c.Hovercraft_apps.Op.c_rid ())
              completions
        | _ -> ());
    Some !count
  end

let check ?(snapshots = false) deploy ~completed_writes =
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let live = Deploy.live_nodes deploy in
  let mode = deploy.Deploy.params.Hnode.mode in
  (* The legacy checker's log scans silently lose their teeth on a
     compacted log — an exactly-once miss below the base would just not be
     counted. Refuse loudly rather than pass vacuously. *)
  if not snapshots then
    List.iter
      (fun n ->
        if Hnode.log_base n > 0 then
          invalid_arg
            (Printf.sprintf
               "Chaos.check: node%d compacted its log to base %d under the \
                legacy history checker; rerun with the snapshot-aware \
                checker (snapshots:true / --snapshot-interval)"
               (Hnode.id n) (Hnode.log_base n)))
      live;
  (* A node whose history is only partially scannable (compacted prefix,
     or state installed wholesale from a snapshot) cannot be held to the
     exact log-derived execution count; catch-up and fingerprint agreement
     carry the weight for it instead. *)
  let full_history n = Hnode.log_base n = 0 && Hnode.installs_received n = 0 in
  (* Reference replica: the live node with the longest committed prefix. *)
  let reference =
    List.fold_left
      (fun best n ->
        match best with
        | None -> Some n
        | Some b ->
            if Hnode.commit_index n > Hnode.commit_index b then Some n else best)
      None live
  in
  let exactly_once_ok = ref true in
  (* 1. Exactly-once execution: each replica's execution counter equals
     what its applied log prefix prescribes — retried rids ordered twice
     must execute once. Exact only for the Hover modes with replicated
     reads (the configurations chaos runs); elsewhere reads execute on
     the leader of the moment, so only writes give a firm floor. *)
  List.iter
    (fun n ->
      match (if full_history n then expected_executions n else None) with
      | None -> ()
      | Some expected -> (
          (* Preloaded ops (dataset population outside consensus) bump the
             raw execution counter but never appear in the log. *)
          let got = Hnode.executed_ops n - Hnode.preloaded n in
          match mode with
          | Hnode.Hover | Hnode.Hover_pp ->
              if got <> expected then begin
                exactly_once_ok := false;
                bad "node%d executed %d ops, log prescribes %d" (Hnode.id n) got
                  expected
              end
          | Hnode.Vanilla | Hnode.Unreplicated ->
              if got < expected then begin
                exactly_once_ok := false;
                bad "node%d executed %d ops, log prescribes >= %d" (Hnode.id n)
                  got expected
              end))
    live;
  (* 2. Committed prefixes agree across live replicas (rid and term at
     every shared committed index). *)
  (match reference with
  | None -> ()
  | Some ref_node ->
      let ref_cmds = committed_cmds ref_node in
      let ref_at = Hashtbl.create 4096 in
      List.iter (fun (idx, term, m) -> Hashtbl.replace ref_at idx (term, m)) ref_cmds;
      List.iter
        (fun n ->
          if Hnode.id n <> Hnode.id ref_node then
            List.iter
              (fun (idx, term, (m : Protocol.meta)) ->
                match Hashtbl.find_opt ref_at idx with
                | None -> ()
                | Some (rterm, (rm : Protocol.meta)) ->
                    if rterm <> term || not (R2p2.req_id_equal rm.rid m.rid) then
                      bad
                        "committed prefixes diverge at index %d (node%d vs \
                         node%d)"
                        idx (Hnode.id n) (Hnode.id ref_node))
              (committed_cmds n))
        live);
  (* 3. Committed-stays-committed: every write the client saw answered is
     in the reference replica's committed log, whatever crashed since.
     Once the reference compacted, writes ordered below its base are no
     longer scannable — their preservation is then vouched for by the
     snapshot identity plus fingerprint agreement, so a miss only counts
     as a violation while the full history is present. *)
  let committed_preserved = ref true in
  (match reference with
  | None ->
      if completed_writes <> [] then begin
        committed_preserved := false;
        bad "no live replica holds the %d client-completed write(s)"
          (List.length completed_writes)
      end
  | Some ref_node ->
      let committed = Rid_tbl.create 4096 in
      List.iter
        (fun (_, _, (m : Protocol.meta)) -> Rid_tbl.replace committed m.rid ())
        (committed_cmds ref_node);
      let scannable = Hnode.log_base ref_node = 0 in
      List.iter
        (fun rid ->
          if not (Rid_tbl.mem committed rid) then
            if scannable then begin
              committed_preserved := false;
              bad "client-completed write %s missing from committed log"
                (Format.asprintf "%a" R2p2.pp_req_id rid)
            end)
        completed_writes);
  (* 4. Catch-up: after the heal-and-restart epilogue every live replica
     must have applied everything any replica committed. *)
  let caught_up = ref true in
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
  let consistent = Deploy.consistent deploy in
  if not consistent then bad "live replica fingerprints diverge";
  ( List.rev !violations,
    !exactly_once_ok,
    !committed_preserved,
    !caught_up,
    consistent )

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
      (* The run always attaches the flow-control middlebox (flow_cap),
         which admits at most [cap] in-flight rids and waits for a
         Feedback per reply to free each slot. Nodes with [flow_control]
         off never send Feedback, so load wedges at the cap within the
         first few milliseconds; force it on rather than make every
         caller carry the workaround. *)
      (match snapshots with
      | None ->
          {
            params.Hnode.features with
            Hnode.log_retain = max_int / 2;
            flow_control = true;
          }
      | Some interval ->
          {
            params.Hnode.features with
            Hnode.log_retain = interval;
            snapshot_interval = interval;
            flow_control = true;
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
  recover deploy ~t0 ~timeline;
  settle [| deploy |];
  let violations, exactly_once_ok, committed_preserved, caught_up, consistent =
    check ~snapshots:(snapshots <> None) deploy
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
    violations;
    exactly_once_ok;
    committed_preserved;
    caught_up;
    consistent;
    report;
    retried = Loadgen.retried gen;
    pending_recoveries = Deploy.total_pending_recoveries deploy;
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
