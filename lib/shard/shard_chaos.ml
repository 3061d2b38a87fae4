open Hovercraft_sim
open Hovercraft_core
open Hovercraft_r2p2
module Op = Hovercraft_apps.Op
module Deploy = Hovercraft_cluster.Deploy
module Loadgen = Hovercraft_cluster.Loadgen
module Chaos = Hovercraft_cluster.Chaos
module Rid_tbl = R2p2.Rid_tbl

type migration =
  | Split of { source : int; target : int }
  | Move of { slots : int list; target : int }

let pp_migration ppf = function
  | Split { source; target } ->
      Format.fprintf ppf "split shard%d -> shard%d" source target
  | Move { slots; target } ->
      Format.fprintf ppf "move %d slot(s) -> shard%d" (List.length slots)
        target

type outcome = {
  report : Loadgen.report;
  events : (float * string) list;
  violations : string list;
  exactly_once_ok : bool;
  committed_preserved : bool;
  caught_up : bool;
  consistent : bool;
  retried : int;
  rerouted : int;
  migrations : int;
  map_version : int;
  pending_recoveries : int;
}

(* ------------------------------------------------------------------ *)
(* Cross-map history checker                                           *)

(* Committed, non-internal entries of the group's best live replica, in
   log order. Chaos-style runs pin log_retain high so nothing compacts
   and the scan covers the whole history. *)
let reference_cmds (d : Deploy.t) =
  let reference =
    List.fold_left
      (fun best n ->
        match best with
        | None -> Some n
        | Some b ->
            if Hnode.commit_index n > Hnode.commit_index b then Some n else best)
      None (Deploy.live_nodes d)
  in
  match reference with
  | None -> []
  | Some node ->
      let hi = min (Hnode.commit_index node) (Hnode.log_length node) in
      let acc = ref [] in
      Hnode.iter_log node ~lo:(Hnode.log_first_index node) ~hi
        (fun _ _ c ->
          if not c.Protocol.meta.Protocol.internal then acc := c :: !acc);
      List.rev !acc

(* The map-level contract: every write a client saw answered landed in
   EXACTLY one group's committed history — the fence kept a migrating
   slot from executing on both sides, and the flip lost nothing. A rid
   carried by a Merge's completion records counts as already executed at
   the source, so a later ordering of it in the target group is a
   suppressed duplicate, not a second execution. *)
let cross_map_check groups ~completed_writes =
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let exec_groups = Rid_tbl.create 4096 in
  let merge_covered = Rid_tbl.create 256 in
  Array.iteri
    (fun g d ->
      let seen = Rid_tbl.create 4096 in
      List.iter
        (fun (c : Protocol.cmd) ->
          (match c.Protocol.body with
          | Op.Merge { completions; _ } ->
              List.iter
                (fun (r : Op.completion) ->
                  Rid_tbl.replace seen r.Op.c_rid ();
                  Rid_tbl.replace merge_covered r.Op.c_rid ())
                completions
          | _ -> ());
          let m = c.Protocol.meta in
          if not (Rid_tbl.mem seen m.Protocol.rid) then begin
            Rid_tbl.replace seen m.Protocol.rid ();
            if not m.Protocol.read_only then
              Rid_tbl.replace exec_groups m.Protocol.rid
                (g
                ::
                (match Rid_tbl.find_opt exec_groups m.Protocol.rid with
                | Some gs -> gs
                | None -> []))
          end)
        (reference_cmds d))
    groups;
  let exactly_once_ok = ref true in
  let committed_preserved = ref true in
  List.iter
    (fun rid ->
      match Rid_tbl.find_opt exec_groups rid with
      | Some (_ :: _ :: _ as gs) ->
          exactly_once_ok := false;
          bad "write %s executed in %d groups (%s)"
            (Format.asprintf "%a" R2p2.pp_req_id rid)
            (List.length gs)
            (String.concat ","
               (List.rev_map string_of_int gs |> List.map (fun s -> "g" ^ s)))
      | Some [ _ ] -> ()
      | Some [] | None ->
          if not (Rid_tbl.mem merge_covered rid) then begin
            committed_preserved := false;
            bad "client-completed write %s missing from every group's log"
              (Format.asprintf "%a" R2p2.pp_req_id rid)
          end)
    completed_writes;
  (List.rev !violations, !exactly_once_ok, !committed_preserved)

(* Converge — including an in-flight migration finishing, so the map is
   stable — then run the per-group invariants (prefix agreement,
   per-replica exactly-once, catch-up), the map-level exactly-once /
   nothing-lost check over client-completed writes, and the fingerprint
   comparison. *)
let settle_and_check sd ~snapshots ~completed_writes =
  let groups = Shard_deploy.groups sd in
  Chaos.settle ~busy:(fun () -> Shard_deploy.migrating sd) groups;
  let violations = ref [] in
  let exactly_once_ok = ref true in
  let caught_up = ref true in
  Array.iteri
    (fun g d ->
      let v, eo, _, cu, _ = Chaos.check ~snapshots d ~completed_writes:[] in
      List.iter
        (fun s -> violations := Printf.sprintf "shard%d: %s" g s :: !violations)
        v;
      if not eo then exactly_once_ok := false;
      if not cu then caught_up := false)
    groups;
  let xviol, xeo, preserved = cross_map_check groups ~completed_writes in
  violations := List.rev_append (List.rev xviol) !violations;
  if not xeo then exactly_once_ok := false;
  let consistent = Shard_deploy.consistent sd in
  if not consistent then
    violations := "live replica fingerprints diverge" :: !violations;
  (List.rev !violations, !exactly_once_ok, preserved, !caught_up, consistent)

(* ------------------------------------------------------------------ *)
(* Driving a run                                                       *)

let run ?params ?(n = 5) ~shards ?active ?(rate_rps = 120_000.)
    ?(duration = Timebase.s 2) ?schedule ?(migrations = []) ?(preload = [])
    ~workload ~seed () =
  if shards < 2 then
    invalid_arg
      "Shard_chaos.run: shards must be >= 2 (a one-group run is Chaos.run)";
  let params =
    match params with
    | Some p -> p
    | None -> Hnode.params ~mode:Hnode.Hover_pp ~n ()
  in
  let n = params.Hnode.n in
  let params = Chaos.widen params ~duration ~snapshots:None in
  let sd =
    Shard_deploy.create
      (Shard_deploy.config ?active ~flow_cap:Chaos.flow_cap ~shards params)
  in
  let groups = Shard_deploy.groups sd in
  if preload <> [] then Shard_deploy.preload sd preload;
  let engine = Shard_deploy.engine sd in
  let t0 = Engine.now engine in
  let completed_writes = ref [] in
  let gen =
    Shard_loadgen.create sd ~clients:8 ~rate_rps ~workload
      ~retry:(Timebase.ms 50, 8)
      ~on_reply:(fun ~rid ~op ~sent_at:_ ~latency:_ ->
        if not (Op.read_only op) then
          completed_writes := rid :: !completed_writes)
      ~seed ()
  in
  let schedule =
    match schedule with
    | Some s -> s
    | None -> Chaos.random_schedule ~shards ~n ~duration ~seed ()
  in
  let timelines = Array.init shards (fun _ -> ref []) in
  let extra = ref [] in
  let note fmt =
    Format.kasprintf
      (fun s -> extra := (Timebase.to_s_f (Engine.now engine - t0), s) :: !extra)
      fmt
  in
  Chaos.arm groups ~t0 ~timelines schedule;
  List.iter
    (fun (at, m) ->
      Engine.after engine at (fun () ->
          if Shard_deploy.migrating sd then
            note "%a skipped (another migration in flight)" pp_migration m
          else
            try
              note "starting %a" pp_migration m;
              let on_done () = note "finished %a" pp_migration m in
              begin
                match m with
                | Split { source; target } ->
                    Shard_deploy.split_shard sd ~on_done ~source ~target ()
                | Move { slots; target } ->
                    Shard_deploy.move_shard sd ~on_done ~slots ~target ()
              end
            with Invalid_argument msg ->
              note "%a rejected: %s" pp_migration m msg))
    migrations;
  let report =
    Shard_loadgen.run gen ~warmup:0 ~duration ~drain:Chaos.drain ()
  in
  Array.iteri (fun g d -> Chaos.recover d ~t0 ~timeline:timelines.(g)) groups;
  let violations, exactly_once_ok, committed_preserved, caught_up, consistent =
    settle_and_check sd ~snapshots:false ~completed_writes:!completed_writes
  in
  let events =
    let migration_notes =
      List.map
        (fun (at, s) -> (Timebase.to_s_f (at - t0), s))
        (Shard_deploy.notes sd)
    in
    List.stable_sort
      (fun (a, _) (b, _) -> compare a b)
      (Chaos.tagged_events timelines @ List.rev !extra @ migration_notes)
  in
  {
    report;
    events;
    violations;
    exactly_once_ok;
    committed_preserved;
    caught_up;
    consistent;
    retried = Loadgen.retried gen;
    rerouted = Loadgen.rerouted gen;
    migrations = Shard_deploy.migrations sd;
    map_version = Shard_map.version (Shard_deploy.map sd);
    pending_recoveries = Shard_deploy.total_pending_recoveries sd;
  }
