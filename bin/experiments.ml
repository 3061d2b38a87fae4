(* The experiment registry behind `hovercraft repro`.

   Every experiment the repository regenerates is declared once, in
   [registry] at the bottom: the paper's evaluation (§7: Table 1,
   Figures 7-13), the design ablations, and the scaling, control-plane
   and observability runs built on top of them. Each entry is a name and
   a runner taking the measurement quality and an optional output path.

     hovercraft repro                    # table1 and fig7..fig13
     hovercraft repro fig9 fig13         # a subset, in the order given
     hovercraft repro --full all         # longer measurement windows
     hovercraft repro shardscale         # kRPS@SLO vs shard count

   JSON artifacts (the observability snapshot, the autoscale figure)
   default to _build/ or the temp dir; --out PATH overrides. *)

open Hovercraft_sim
open Hovercraft_cluster
module Core = Hovercraft_core

(* ------------------------------------------------------------------ *)
(* Observability snapshot: a short lossy HovercRaft run whose JSON
   roll-up (per-node metrics, latency histograms, recovery counters,
   fabric link stats, trace ring) is written to the --out path.
   Doubles as an end-to-end smoke test of the obs layer: the run loses
   multicast deliveries on purpose and must still converge. *)

let obs_snapshot ~file () =
  let params =
    let p = Core.Hnode.params ~mode:Core.Hnode.Hover ~n:3 () in
    {
      p with
      Core.Hnode.seed = 7;
      features = { p.Core.Hnode.features with Core.Hnode.loss_prob = 0.02 };
    }
  in
  let deploy = Deploy.create (Deploy.config params) in
  let spec =
    Hovercraft_apps.Service.spec ~service:(Dist.Fixed (Timebase.us 1)) ()
  in
  let gen =
    Loadgen.create deploy ~clients:4 ~rate_rps:50_000.
      ~workload:(Hovercraft_apps.Service.sample spec)
      ~retry:(Timebase.ms 2, 8) ~seed:7 ()
  in
  let report =
    Loadgen.run gen ~warmup:(Timebase.ms 2) ~duration:(Timebase.ms 20) ()
  in
  Deploy.quiesce deploy ();
  let json =
    match Deploy.snapshot deploy with
    | Hovercraft_obs.Json.Obj fields ->
        Hovercraft_obs.Json.Obj (fields @ [ ("loadgen", Loadgen.snapshot gen) ])
    | other -> other
  in
  let oc = open_out file in
  output_string oc (Hovercraft_obs.Json.to_string_pretty json);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "\n=== Observability snapshot ===\n\
    \  lossy run: %d sent, %d completed, %d lost, %d client retries\n\
    \  pending recoveries after quiesce: %d (must be 0)\n\
    \  written to %s\n"
    report.Loadgen.sent report.Loadgen.completed report.Loadgen.lost
    (Loadgen.retried gen)
    (Deploy.total_pending_recoveries deploy)
    file

(* ------------------------------------------------------------------ *)
(* shardscale: kRPS under a p99 SLO as the shard count grows on a FIXED
   per-host budget (Shard_experiment.shardscale), YCSB-B. *)

let shardscale ~quality () =
  Printf.printf
    "\n\
     === shardscale: YCSB-B kRPS under 500us p99 SLO vs shard count ===\n\
     (per-host NIC/switch budget fixed; each group runs on a 1/S slice)\n";
  let results = Hovercraft_shard.Shard_experiment.shardscale ~quality () in
  let base =
    match results with (1, knee) :: _ -> knee | _ -> nan
  in
  let rows =
    List.map
      (fun (s, knee) ->
        [
          string_of_int s;
          Printf.sprintf "%.0f" (knee /. 1e3);
          (if Float.is_nan base || base <= 0. then "-"
           else Printf.sprintf "%.2fx" (knee /. base));
        ])
      results
  in
  Table.print ~header:[ "shards"; "kRPS@SLO"; "vs S=1" ] rows

(* ------------------------------------------------------------------ *)
(* applyscale: YCSB-A kRPS under the p99 SLO as the per-node application
   thread count K grows (Experiment.applyscale). Write-heavy load is
   apply-loop-bound, so the knee should climb with K until the network
   thread takes over; the "ok" column asserts replica fingerprints agreed
   after the confirmation run — the determinism check for the
   dependency-aware scheduler. *)

let applyscale ~quality () =
  Printf.printf
    "\n\
     === applyscale: YCSB-A kRPS under 500us p99 SLO vs apply threads ===\n\
     (3-node HovercRaft, 40G links, same seed at every K)\n";
  let results = Experiment.applyscale ~quality () in
  let base =
    match results with
    | { Experiment.threads = 1; knee_rps; _ } :: _ -> knee_rps
    | _ -> nan
  in
  let rows =
    List.map
      (fun (p : Experiment.applyscale_point) ->
        [
          string_of_int p.threads;
          Printf.sprintf "%.0f" (p.knee_rps /. 1e3);
          (if Float.is_nan base || base <= 0. then "-"
           else Printf.sprintf "%.2fx" (p.knee_rps /. base));
          string_of_int p.stalls;
          (if p.consistent then "yes" else "NO");
        ])
      results
  in
  Table.print
    ~header:[ "K"; "kRPS@SLO"; "vs K=1"; "stalls"; "replicas agree" ] rows;
  if List.exists (fun (p : Experiment.applyscale_point) -> not p.consistent)
       results
  then begin
    Printf.eprintf "applyscale: replica fingerprints diverged\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* netscale: YCSB-B kRPS under the p99 SLO as the net path goes from the
   monolithic thread to the compartmentalized pipeline
   (Experiment.netscale), then applyscale re-run under the pipelined net
   to show the K>2 apply knee unlocked. Exits nonzero if the pipelined
   knee falls below the serial knee or any replica set diverges. *)

let netscale ~quality () =
  Printf.printf
    "\n\
     === netscale: YCSB-B kRPS under 500us p99 SLO vs net stages ===\n\
     (3-node HovercRaft++, 40G links, same seed at every stage count)\n";
  let results = Experiment.netscale ~quality () in
  let serial_knee, pipelined_knee =
    match results with
    | [] -> (nan, nan)
    | first :: _ ->
        let last = List.nth results (List.length results - 1) in
        (first.Experiment.knee_rps, last.Experiment.knee_rps)
  in
  let rows =
    List.map
      (fun (p : Experiment.netscale_point) ->
        let busy =
          String.concat " "
            (List.map
               (fun (name, ns) -> Printf.sprintf "%s=%dms" name (ns / 1_000_000))
               p.stage_busy)
        in
        [
          string_of_int p.stages;
          Printf.sprintf "%.0f" (p.knee_rps /. 1e3);
          (if Float.is_nan serial_knee || serial_knee <= 0. then "-"
           else Printf.sprintf "%.2fx" (p.knee_rps /. serial_knee));
          (if p.consistent then "yes" else "NO");
          busy;
        ])
      results
  in
  Table.print
    ~header:
      [ "stages"; "kRPS@SLO"; "vs serial"; "replicas agree"; "leader stage busy" ]
    rows;
  Printf.printf
    "\n=== applyscale under the pipelined net (net_stages=4) ===\n";
  let ap = Experiment.applyscale ~quality ~net_stages:4 ~threads:[ 2; 4; 8 ] () in
  let rows =
    List.map
      (fun (p : Experiment.applyscale_point) ->
        [
          string_of_int p.threads;
          Printf.sprintf "%.0f" (p.knee_rps /. 1e3);
          string_of_int p.stalls;
          (if p.consistent then "yes" else "NO");
        ])
      ap
  in
  Table.print ~header:[ "K"; "kRPS@SLO"; "stalls"; "replicas agree" ] rows;
  let diverged =
    List.exists (fun (p : Experiment.netscale_point) -> not p.consistent) results
    || List.exists (fun (p : Experiment.applyscale_point) -> not p.consistent) ap
  in
  if diverged then begin
    Printf.eprintf "netscale: replica fingerprints diverged\n";
    exit 1
  end;
  if pipelined_knee < serial_knee then begin
    Printf.eprintf
      "netscale: pipelined knee (%.0f) below serial knee (%.0f)\n"
      pipelined_knee serial_knee;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* backendscale: the ordering-backend shootout — fault-free SLO knee,
   p99 across a mid-run kill, and outage length, per backend
   (Experiment.backendscale). Exits nonzero if any surviving replica
   set diverged. *)

let backendscale ~quality () =
  Printf.printf
    "\n\
     === backendscale: ordering-backend shootout (YCSB-A, 3 nodes, 40G) ===\n\
     (kill at 40%% of the window: the raft leader / one rabia replica)\n";
  let results = Experiment.backendscale ~quality () in
  let rows =
    List.map
      (fun (p : Experiment.backendscale_point) ->
        [
          Hovercraft_ordering.Ordering.kind_name p.backend;
          Printf.sprintf "%.0f" (p.knee_rps /. 1e3);
          Printf.sprintf "%.0f" p.kill_p99_us;
          Printf.sprintf "%.0f" p.recovery_ms;
          (if p.consistent then "yes" else "NO");
        ])
      results
  in
  Table.print
    ~header:
      [ "backend"; "kRPS@SLO"; "kill-run p99 us"; "recovery ms"; "replicas agree" ]
    rows;
  if
    List.exists
      (fun (p : Experiment.backendscale_point) -> not p.consistent)
      results
  then begin
    Printf.eprintf "backendscale: surviving replicas diverged\n";
    exit 1
  end

(* The CI proxy: one fixed-rate point per backend, no knee search. Both
   backends must sustain the probe rate under the SLO on the shootout
   cell — a smoke check that the rabia path stays viable, not a
   performance claim. *)
let backendscale_sanity () =
  let rate = 100_000. in
  let slo_us = 500. in
  List.iter
    (fun backend ->
      let r =
        Experiment.run_point ~quality:Experiment.Fast
          (Experiment.backendscale_setup ~seed:23 ~backend)
          ~rate_rps:rate
      in
      Printf.printf
        "backendscale sanity [%s] @%.0f kRPS: goodput %.0f kRPS, p99 %.0f us \
         (SLO %.0f us), lost %d\n"
        (Hovercraft_ordering.Ordering.kind_name backend)
        (rate /. 1e3)
        (r.Loadgen.goodput_rps /. 1e3)
        r.Loadgen.p99_us slo_us r.Loadgen.lost;
      if
        r.Loadgen.p99_us > slo_us
        || r.Loadgen.goodput_rps < 0.97 *. rate
        || r.Loadgen.lost > 0
      then begin
        Printf.eprintf "backendscale sanity: %s backend failed the probe\n"
          (Hovercraft_ordering.Ordering.kind_name backend);
        exit 1
      end)
    [ Hovercraft_core.Hnode.Raft; Hovercraft_core.Hnode.Rabia ]

(* Single-point CI check, much cheaper than the full knee search. The
   probe rate sits between the measured knees (serial ~1880 kRPS,
   pipelined ~2460 kRPS), where the two net paths must diverge. Goodput
   does not discriminate here — open-loop load completes late rather
   than dropping within the window — so the check is on p99: the serial
   path must blow through the 500 us SLO while the pipelined path still
   meets it. *)
let netscale_sanity () =
  let rate = 2_200_000. in
  let slo_us = 500. in
  let p99 stages =
    let r =
      Experiment.run_point ~quality:Experiment.Fast
        (Experiment.netscale_setup ~seed:42 ~stages)
        ~rate_rps:rate
    in
    r.Loadgen.p99_us
  in
  let serial = p99 1 and pipelined = p99 4 in
  Printf.printf
    "netscale sanity @%.0f kRPS offered: serial p99 %.0f us, pipelined p99 \
     %.0f us (SLO %.0f us)\n"
    (rate /. 1e3) serial pipelined slo_us;
  if pipelined > slo_us then begin
    Printf.eprintf "netscale sanity: pipelined net misses the SLO at %.0f kRPS\n"
      (rate /. 1e3);
    exit 1
  end;
  if serial <= slo_us then begin
    Printf.eprintf
      "netscale sanity: serial net meets the SLO at %.0f kRPS — probe rate no \
       longer discriminates, recalibrate\n"
      (rate /. 1e3);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* autoscale: the control-plane figure. One seeded hotspot-drift +
   node-loss scenario, controller off vs on; the JSON artifact carries
   both per-window p99 series, the action log and the safety summary.
   Exits nonzero if the baseline holds the SLO (the scenario no longer
   discriminates), the controller run misses it, or any checker trips. *)

let autoscale ~out () =
  let module Cexp = Hovercraft_control.Experiment in
  let module Cscn = Hovercraft_control.Scenario in
  Printf.printf
    "\n\
     === autoscale: SLO under hotspot drift + node loss, controller off/on ===\n\
     (4 co-located groups on 1 GbE hosts, 2M-user drifting zipf, YCSB-B)\n";
  let r = Cexp.autoscale ~seed:11 () in
  Cexp.print Format.std_formatter r;
  let oc = open_out out in
  output_string oc (Hovercraft_obs.Json.to_string_pretty (Cexp.to_json r));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  figure written to %s\n" out;
  if not (Cscn.checkers_green r.Cexp.off && Cscn.checkers_green r.Cexp.on_)
  then begin
    Printf.eprintf "autoscale: a safety checker tripped\n";
    exit 1
  end;
  if Cscn.slo_held ~fraction:r.Cexp.slo_fraction r.Cexp.off then begin
    Printf.eprintf
      "autoscale: baseline holds the SLO — scenario no longer discriminates\n";
    exit 1
  end;
  if not (Cscn.slo_held ~fraction:r.Cexp.slo_fraction r.Cexp.on_) then begin
    Printf.eprintf "autoscale: controller run misses the SLO\n";
    exit 1
  end

(* Artifacts land under _build/ (or the temp dir when there is no build
   tree), never the repository root; --out overrides. *)
let default_out name =
  let dir =
    if Sys.file_exists "_build" && Sys.is_directory "_build" then "_build"
    else Filename.get_temp_dir_name ()
  in
  Filename.concat dir name

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)

type runner = quality:Experiment.quality -> out:string option -> unit

let figure (f : ?quality:Experiment.quality -> unit -> unit) : runner =
 fun ~quality ~out:_ -> f ~quality ()

(* The paper's evaluation in paper order: what `all` (and a bare
   `repro`) runs. The ablations are not paper figures and stay out. *)
let paper =
  [
    ("table1", Figures.table1);
    ("fig7", Figures.fig7);
    ("fig8", Figures.fig8);
    ("fig9", Figures.fig9);
    ("fig10", Figures.fig10);
    ("fig11", Figures.fig11);
    ("fig12", Figures.fig12);
    ("fig13", Figures.fig13);
  ]

let registry : (string * runner) list =
  let out_or name out = Option.value out ~default:(default_out name) in
  List.map (fun (name, f) -> (name, figure f)) paper
  @ [
      ("ablations", figure Ablations.all);
      ( "all",
        fun ~quality ~out ->
          List.iter (fun (_, f) -> figure f ~quality ~out) paper );
      ("shardscale", fun ~quality ~out:_ -> shardscale ~quality ());
      ("applyscale", fun ~quality ~out:_ -> applyscale ~quality ());
      ("netscale", fun ~quality ~out:_ -> netscale ~quality ());
      ("netscale-sanity", fun ~quality:_ ~out:_ -> netscale_sanity ());
      ("backendscale", fun ~quality ~out:_ -> backendscale ~quality ());
      ( "backendscale-sanity",
        fun ~quality:_ ~out:_ -> backendscale_sanity () );
      ( "autoscale",
        fun ~quality:_ ~out ->
          autoscale ~out:(out_or "hovercraft_autoscale.json" out) () );
      ( "snapshot",
        fun ~quality:_ ~out ->
          obs_snapshot ~file:(out_or "hovercraft_snapshot.json" out) () );
    ]

let names = List.map fst registry
