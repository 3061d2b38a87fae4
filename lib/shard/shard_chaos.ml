open Hovercraft_sim
open Hovercraft_core
module Op = Hovercraft_apps.Op
module Loadgen = Hovercraft_cluster.Loadgen
module Chaos = Hovercraft_cluster.Chaos

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
  verdict : Chaos.verdict;
  retried : int;
  rerouted : int;
  migrations : int;
  map_version : int;
}

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
  (* Converging includes an in-flight migration finishing, so the map the
     checker reads is stable. *)
  let verdict =
    Chaos.conclude
      ~busy:(fun () -> Shard_deploy.migrating sd)
      groups ~t0 ~timelines ~completed_writes:!completed_writes
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
    verdict;
    retried = Loadgen.retried gen;
    rerouted = Loadgen.rerouted gen;
    migrations = Shard_deploy.migrations sd;
    map_version = Shard_map.version (Shard_deploy.map sd);
  }
