(* The benchmark harness.

   Running with no arguments regenerates every table and figure of the
   paper's evaluation (§7) on the simulator, then runs Bechamel
   microbenchmarks of the hot data structures so the per-operation costs
   backing the simulation are measured on this machine rather than
   guessed.

     dune exec bench/main.exe                  # everything, fast windows
     dune exec bench/main.exe -- fig9 fig13    # a subset
     dune exec bench/main.exe -- --full all    # longer measurement windows
     dune exec bench/main.exe -- micro         # microbenchmarks only
     dune exec bench/main.exe -- shardscale    # kRPS@SLO vs shard count

   JSON artifacts (the observability snapshot) default to _build/ or the
   temp dir; --out PATH overrides. *)

open Hovercraft_sim
open Hovercraft_cluster
module Rnode = Hovercraft_raft.Node
module Rlog = Hovercraft_raft.Log
module Rtypes = Hovercraft_raft.Types
module K = Hovercraft_apps.Kvstore
module R2p2 = Hovercraft_r2p2.R2p2
module Jbsq = Hovercraft_r2p2.Jbsq
module Core = Hovercraft_core

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)

let bench_rng () =
  let rng = Rng.create 2 in
  Bechamel.Staged.stage (fun () -> ignore (Rng.int rng 1000))

let bench_log_append () =
  Bechamel.Staged.stage (fun () ->
      let log = Rlog.create () in
      for _ = 1 to 64 do
        ignore (Rlog.append log { Rtypes.term = 1; cmd = 0 })
      done;
      ignore (Rlog.slice log ~lo:1 ~hi:64))

let bench_unordered () =
  let clock = ref 0 in
  let store =
    Core.Unordered.create ~now:(fun () -> !clock) ~gc_unordered:1_000_000
      ~gc_ordered:1_000_000 ()
  in
  let i = ref 0 in
  Bechamel.Staged.stage (fun () ->
      incr i;
      let rid =
        { R2p2.id = !i; src_addr = Hovercraft_net.Addr.Client 0; src_port = 0 }
      in
      Core.Unordered.add store rid Hovercraft_apps.Op.Nop;
      ignore (Core.Unordered.mark_ordered store rid);
      Core.Unordered.remove store rid)

let bench_jbsq_pick () =
  let q = Jbsq.create Jbsq.Jbsq ~bound:64 ~n:9 ~rng:(Rng.create 3) in
  Bechamel.Staged.stage (fun () ->
      match Jbsq.pick q with
      | Some i ->
          Jbsq.assign q i;
          Jbsq.complete q i
      | None -> ())

let bench_kv_scan =
  let store = K.create () in
  let () =
    for i = 1 to 100 do
      ignore
        (K.execute store
           (K.Insert { thread = "t"; record = [ ("f", string_of_int i) ] }))
    done
  in
  fun () ->
    Bechamel.Staged.stage (fun () ->
        ignore (K.execute store (K.Scan { thread = "t"; limit = 10 })))

let bench_kv_insert () =
  let store = K.create () in
  let i = ref 0 in
  Bechamel.Staged.stage (fun () ->
      incr i;
      ignore
        (K.execute store
           (K.Insert
              {
                thread = Printf.sprintf "t%d" (!i mod 64);
                record = [ ("f", "0123456789abcdef") ];
              })))

let bench_raft_roundtrip () =
  (* One command through a netless 3-node Raft: append, replicate, ack,
     commit. Measures the pure consensus CPU cost per batch. *)
  Bechamel.Staged.stage (fun () ->
      let mk id =
        Rnode.create
          {
            Rnode.id;
            peers = Array.init 2 (fun i -> if i < id then i else i + 1);
            batch_max = 64;
            eager_commit_notify = false;
            snap_chunk_bytes = Hovercraft_net.Wire.snap_chunk_bytes;
          }
          ~noop:(-1)
      in
      let nodes = Array.init 3 mk in
      let bag = Queue.create () in
      let feed i input =
        List.iter
          (function
            | Rnode.Send (dst, msg) -> Queue.push (dst, msg) bag
            | _ -> ())
          (Rnode.handle nodes.(i) input)
      in
      feed 0 Rnode.Election_timeout;
      for _ = 1 to 16 do
        feed 0 (Rnode.Client_command 1)
      done;
      while not (Queue.is_empty bag) do
        let dst, msg = Queue.pop bag in
        feed dst (Rnode.Receive msg)
      done)

let microbenchmarks () =
  let open Bechamel in
  let test =
    Test.make_grouped ~name:"micro" ~fmt:"%s/%s"
      [
        Test.make ~name:"rng int" (bench_rng ());
        Test.make ~name:"raft log append+slice x64" (bench_log_append ());
        Test.make ~name:"unordered add/mark/remove" (bench_unordered ());
        Test.make ~name:"jbsq pick/assign/complete (n=9)" (bench_jbsq_pick ());
        Test.make ~name:"kv scan(10)" (bench_kv_scan ());
        Test.make ~name:"kv insert" (bench_kv_insert ());
        Test.make ~name:"raft 3-node commit x16 (netless)" (bench_raft_roundtrip ());
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "\n=== Microbenchmarks (per call, this machine) ===\n";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with Some (v :: _) -> v | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) -> Printf.printf "  %-42s %10.1f ns\n" name ns)
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* Observability snapshot: a short lossy HovercRaft run whose JSON
   roll-up (per-node metrics, latency histograms, recovery counters,
   fabric link stats, trace ring) is written next to the bench output.
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

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quality =
    if List.mem "--full" args then Experiment.Full else Experiment.Fast
  in
  let rec extract_out acc = function
    | "--out" :: path :: rest -> (Some path, List.rev_append acc rest)
    | a :: rest -> extract_out (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let out_opt, args = extract_out [] args in
  let args = List.filter (fun a -> a <> "--full") args in
  let out =
    match out_opt with
    | Some p -> p
    | None -> default_out "hovercraft_snapshot.json"
  in
  let autoscale_out =
    match out_opt with
    | Some p -> p
    | None -> default_out "hovercraft_autoscale.json"
  in
  let special =
    [ "micro"; "snapshot"; "shardscale"; "applyscale"; "netscale";
      "netscale-sanity"; "backendscale"; "backendscale-sanity"; "autoscale" ]
  in
  let wanted_figures, wants =
    match args with
    | [] ->
        ( Figures.names |> List.filter (fun n -> n <> "all"),
          [ "micro"; "snapshot" ] )
    | names ->
        ( List.filter (fun n -> not (List.mem n special)) names,
          List.filter (fun n -> List.mem n special) names )
  in
  let want n = List.mem n wants in
  List.iter
    (fun name ->
      match Figures.by_name name with
      | Some run -> run ~quality ()
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat ", " (special @ Figures.names)))
    wanted_figures;
  if want "shardscale" then shardscale ~quality ();
  if want "applyscale" then applyscale ~quality ();
  if want "netscale" then netscale ~quality ();
  if want "netscale-sanity" then netscale_sanity ();
  if want "backendscale" then backendscale ~quality ();
  if want "backendscale-sanity" then backendscale_sanity ();
  if want "autoscale" then autoscale ~out:autoscale_out ();
  if want "snapshot" then obs_snapshot ~file:out ();
  if want "micro" then microbenchmarks ()
