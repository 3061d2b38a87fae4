(* The hovercraft command-line tool.

   Subcommands:
     run       — drive one deployment at a fixed load and report latency,
                 throughput and per-node statistics;
     sweep     — latency-throughput curve over a list of offered loads;
     slo       — find the max load sustaining a p99 SLO;
     failover  — leader-kill timeline with flow control;
     chaos     — seeded kill/restart/partition schedule with the
                 crash-recovery history checker (--reconfig adds
                 add/remove/transfer membership churn to the mix,
                 --snapshot-interval turns on checkpoint/compaction and
                 the snapshot-aware checker);
     reconfig  — scripted membership-change scenario under load: grow
                 3 -> 5, transfer leadership, remove the old leader,
                 crash-and-restart a follower, then run the checker;
     snapshot  — snapshot/compaction smoke: crash a follower, run past
                 the retention window, restart it and assert it rejoins
                 via Install_snapshot rather than log replay;
     shard     — Multi-Raft sharding smoke: split the active groups onto
                 dormant ones and rebalance with a live move_shard under
                 YCSB-B load, checked by the shard-aware history checker;
     control   — run one scenario from the autoscaling suite with the
                 SLO-driven controller on (or --off for the baseline),
                 judged per window and by the history-checker battery;
     repro     — regenerate the paper's tables and figures and the
                 scaling, control-plane and observability runs, by id
                 (the registry is Experiments);
     mc        — model-check bounded Raft / HovercRaft++ instances. *)

open Cmdliner
open Hovercraft_sim
open Hovercraft_core
open Hovercraft_cluster
module Service = Hovercraft_apps.Service
module Ycsb = Hovercraft_apps.Ycsb
module Shard_chaos = Hovercraft_shard.Shard_chaos

(* --- shared arguments ------------------------------------------------ *)

(* The knob surface (cluster shape, workload, feature flags, observability
   outputs) is shared across verbs and lives in Knobs. *)
open Knobs

let emit_snapshot ~metrics_out ~trace_level (deploy : Deploy.t) extra =
  (match trace_level with
  | None -> ()
  | Some _ ->
      Printf.printf "--- trace (%d events recorded) ---\n"
        (Hovercraft_obs.Trace.recorded (Deploy.trace deploy));
      List.iter
        (fun ev -> Format.printf "%a@." Hovercraft_obs.Trace.pp_event ev)
        (Hovercraft_obs.Trace.events (Deploy.trace deploy)));
  match metrics_out with
  | None -> ()
  | Some file ->
      let json =
        match (Deploy.snapshot deploy, extra) with
        | Hovercraft_obs.Json.Obj fields, extra ->
            Hovercraft_obs.Json.Obj (fields @ extra)
        | other, _ -> other
      in
      let text = Hovercraft_obs.Json.to_string_pretty json in
      if file = "-" then print_endline text
      else begin
        try
          let oc = open_out file in
          output_string oc text;
          output_char oc '\n';
          close_out oc;
          Printf.printf "metrics snapshot written to %s\n" file
        with Sys_error e ->
          Printf.eprintf "hovercraft: cannot write metrics snapshot: %s\n" e
      end

let print_report (r : Loadgen.report) =
  Printf.printf "offered    : %.0f RPS\n" r.offered_rps;
  Printf.printf "goodput    : %.0f RPS (%d completed / %d sent)\n" r.goodput_rps
    r.completed r.sent;
  Printf.printf "latency    : mean %.1f us, p50 %.1f us, p99 %.1f us, max %.1f us\n"
    r.mean_us r.p50_us r.p99_us r.max_us;
  Printf.printf "nacked     : %d, lost: %d\n" r.nacked r.lost

let print_nodes (deploy : Deploy.t) =
  Array.iter
    (fun node ->
      Printf.printf
        "  node%d%s: applied=%d executed=%d replies=%d net-busy=%.1fms \
         app-busy=%.1fms%s\n"
        (Hnode.id node)
        (if Hnode.is_leader node && Hnode.alive node then " (leader)" else "")
        (Hnode.applied_index node) (Hnode.executed_ops node)
        (Hnode.replies_sent node)
        (float_of_int (Hnode.net_busy_time node) /. 1e6)
        (float_of_int (Hnode.app_busy_time node) /. 1e6)
        (if Hnode.alive node then "" else " DEAD"))
    deploy.Deploy.nodes;
  Printf.printf "replicas consistent: %b\n" (Deploy.consistent deploy)

(* --- run --------------------------------------------------------------- *)

let run_cmd =
  let action mode backend n rate duration_ms seed service_us read_fraction
      req_bytes rep_bytes bimodal ycsb no_lb random_lb bound flow_cap
      snapshot_interval metrics_out trace_level =
    let params =
      make_params ~snapshot_interval ~backend mode n no_lb random_lb bound seed
    in
    let workload, preload =
      make_workload ~ycsb ~bimodal ~service_us ~read_fraction ~req_bytes
        ~rep_bytes ~seed
    in
    let trace =
      Hovercraft_obs.Trace.create
        ~level:
          (Option.value trace_level ~default:Hovercraft_obs.Trace.Info)
        ()
    in
    let deploy = Deploy.create (Deploy.config ?flow_cap ~trace params) in
    if preload <> [] then
      Array.iter (fun nd -> Hnode.preload nd preload) deploy.Deploy.nodes;
    let gen = Loadgen.create deploy ~clients:8 ~rate_rps:rate ~workload ~seed () in
    let duration = Timebase.ms duration_ms in
    let report = Loadgen.run gen ~warmup:(duration / 5) ~duration () in
    Deploy.quiesce deploy ();
    Format.printf "mode %a, %d node(s)@." Hnode.pp_mode mode params.Hnode.n;
    print_report report;
    print_nodes deploy;
    emit_snapshot ~metrics_out ~trace_level deploy
      [ ("loadgen", Loadgen.snapshot gen) ]
  in
  let term =
    Term.(
      const action $ mode_arg $ backend_arg $ nodes_arg $ rate_arg
      $ duration_arg $ seed_arg $ service_us_arg $ read_fraction_arg
      $ req_bytes_arg $ rep_bytes_arg $ bimodal_arg $ ycsb_arg $ no_lb_arg
      $ random_lb_arg $ bound_arg $ flow_cap_arg $ snapshot_interval_arg
      $ metrics_arg $ trace_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Drive one deployment at a fixed load.") term

(* --- sweep --------------------------------------------------------------- *)

let rates_arg =
  let doc = "Comma-separated offered loads in kRPS." in
  Arg.(value & opt (list float) [ 100.; 300.; 500.; 700.; 900. ] & info [ "loads-krps" ] ~doc)

let sweep_cmd =
  let action mode n rates seed service_us read_fraction req_bytes rep_bytes
      bimodal ycsb no_lb random_lb bound =
    let params = make_params mode n no_lb random_lb bound seed in
    let workload, preload =
      make_workload ~ycsb ~bimodal ~service_us ~read_fraction ~req_bytes
        ~rep_bytes ~seed
    in
    let setup = Experiment.setup ~preload ~seed params workload in
    let rows =
      List.map
        (fun krps ->
          let r = Experiment.run_point setup ~rate_rps:(krps *. 1000.) in
          [
            Table.fmt_krps r.Loadgen.offered_rps;
            Table.fmt_krps r.Loadgen.goodput_rps;
            Table.fmt_us r.Loadgen.p50_us;
            Table.fmt_us r.Loadgen.p99_us;
            string_of_int r.Loadgen.lost;
          ])
        rates
    in
    Table.print
      ~header:[ "offered kRPS"; "goodput kRPS"; "p50 us"; "p99 us"; "lost" ]
      rows
  in
  let term =
    Term.(
      const action $ mode_arg $ nodes_arg $ rates_arg $ seed_arg
      $ service_us_arg $ read_fraction_arg $ req_bytes_arg $ rep_bytes_arg
      $ bimodal_arg $ ycsb_arg $ no_lb_arg $ random_lb_arg $ bound_arg)
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Latency-throughput curve over offered loads.") term

(* --- slo ------------------------------------------------------------------ *)

let slo_us_arg =
  let doc = "Tail-latency SLO in microseconds (99th percentile)." in
  Arg.(value & opt float 500. & info [ "slo-us" ] ~doc)

let slo_cmd =
  let action mode n seed service_us read_fraction req_bytes rep_bytes bimodal
      ycsb no_lb random_lb bound slo_us =
    let params = make_params mode n no_lb random_lb bound seed in
    let workload, preload =
      make_workload ~ycsb ~bimodal ~service_us ~read_fraction ~req_bytes
        ~rep_bytes ~seed
    in
    let setup = Experiment.setup ~preload ~seed params workload in
    let knee =
      Experiment.max_under_slo ~slo:(Timebase.of_us_f slo_us) ~lo:2_000. setup
    in
    Format.printf "%a n=%d sustains %s kRPS under a %.0f us p99 SLO@."
      Hnode.pp_mode mode params.Hnode.n (Table.fmt_krps knee) slo_us
  in
  let term =
    Term.(
      const action $ mode_arg $ nodes_arg $ seed_arg $ service_us_arg
      $ read_fraction_arg $ req_bytes_arg $ rep_bytes_arg $ bimodal_arg
      $ ycsb_arg $ no_lb_arg $ random_lb_arg $ bound_arg $ slo_us_arg)
  in
  Cmd.v (Cmd.info "slo" ~doc:"Max throughput under a tail-latency SLO.") term

(* --- failover --------------------------------------------------------------- *)

let failover_cmd =
  let action n rate seed kill_ms duration_ms =
    let spec =
      Service.spec
        ~service:(Dist.Bimodal { mean = Timebase.us 10; long_fraction = 0.1; ratio = 10. })
        ~read_fraction:0.75 ()
    in
    let outcome =
      let p = Hnode.params ~mode:Hnode.Hover_pp ~n () in
      Failure.run
        ~params:
          {
            p with
            Hnode.seed;
            features = { p.Hnode.features with Hnode.bound = 32 };
          }
        ~rate_rps:rate ~duration:(Timebase.ms duration_ms)
        ~kill_after:(Timebase.ms kill_ms)
        ~workload:(Service.sample spec) ~seed ()
    in
    Failure.print_series outcome.Failure.series;
    Printf.printf
      "killed node %s at %.1fs; new leader %s; NACKed %d; consistent %b\n"
      (match outcome.Failure.killed_node with Some i -> string_of_int i | None -> "?")
      outcome.Failure.killed_at_s
      (match outcome.Failure.new_leader with Some i -> string_of_int i | None -> "?")
      outcome.Failure.total_nacked outcome.Failure.consistent
  in
  let kill_ms =
    Arg.(value & opt int 600 & info [ "kill-ms" ] ~doc:"When to kill the leader.")
  in
  let term =
    Term.(
      const action $ nodes_arg $ rate_opt 165_000. $ seed_arg $ kill_ms
      $ duration_opt 2000)
  in
  Cmd.v (Cmd.info "failover" ~doc:"Leader-kill timeline with flow control.") term

(* --- chaos -------------------------------------------------------------------- *)

let chaos_params ?(backend = Hnode.Raft) ?(apply_threads = 1) ?(net_stages = 1)
    ~n ~seed () =
  (* Rabia only composes with plain HovercRaft (the ++ fast path assumes
     a leader); raft chaos keeps exercising the ++ aggregation path. *)
  let mode =
    match backend with
    | Hnode.Raft -> Hnode.Hover_pp
    | Hnode.Rabia -> Hnode.Hover
  in
  let p = or_die (fun () -> Hnode.params ~mode ~backend ~n ()) in
  {
    p with
    Hnode.seed;
    features =
      {
        p.Hnode.features with
        Hnode.bound = 32;
        apply_threads;
        net_stages;
      };
  }

let print_chaos_outcome ~seed (outcome : Chaos.outcome) =
  Printf.printf "schedule (seed %d):\n" seed;
  List.iter
    (fun (t_s, what) -> Printf.printf "  t=%.2fs  %s\n" t_s what)
    outcome.Chaos.events;
  Failure.print_series outcome.Chaos.series;
  Printf.printf "completed %d, nacked %d, lost %d, retried %d\n"
    outcome.Chaos.report.Loadgen.completed outcome.Chaos.report.Loadgen.nacked
    outcome.Chaos.report.Loadgen.lost outcome.Chaos.retried;
  Printf.printf
    "exactly-once %b; committed-preserved %b; caught-up %b; consistent %b\n"
    outcome.Chaos.exactly_once_ok outcome.Chaos.committed_preserved
    outcome.Chaos.caught_up outcome.Chaos.consistent;
  Printf.printf "final members: [%s]; pending recoveries: %d\n"
    (String.concat ";" (List.map string_of_int outcome.Chaos.final_members))
    outcome.Chaos.pending_recoveries;
  Printf.printf "max log base: %d; snapshot installs: %d\n"
    outcome.Chaos.max_log_base outcome.Chaos.installs;
  if outcome.Chaos.violations <> [] then begin
    List.iter (Printf.printf "VIOLATION: %s\n") outcome.Chaos.violations;
    exit 1
  end

let chaos_workload =
  Service.sample
    (Service.spec
       ~service:
         (Dist.Bimodal { mean = Timebase.us 10; long_fraction = 0.1; ratio = 10. })
       ~read_fraction:0.5 ())

let chaos_cmd =
  let action backend n rate seed duration_ms events reconfig snapshot_interval
      apply_threads net_stages =
    if backend = Hnode.Rabia && reconfig then begin
      Printf.eprintf
        "hovercraft: chaos --reconfig is incompatible with --backend rabia: \
         the leaderless backend runs a fixed membership and has no \
         leadership to transfer\n";
      exit 2
    end;
    let duration = Timebase.ms duration_ms in
    let snapshots =
      if snapshot_interval > 0 then Some snapshot_interval else None
    in
    let outcome =
      Chaos.run
        ~params:(chaos_params ~backend ~apply_threads ~net_stages ~n ~seed ())
        ~rate_rps:rate ~duration ?snapshots
        ~schedule:(Chaos.random_schedule ~events ~reconfig ~n ~duration ~seed ())
        ~workload:chaos_workload ~seed ()
    in
    print_chaos_outcome ~seed outcome
  in
  let events =
    Arg.(value & opt int 6 & info [ "events" ] ~doc:"Scheduled fault budget.")
  in
  let reconfig =
    Arg.(
      value & flag
      & info [ "reconfig" ]
          ~doc:"Mix add-node / remove-node / transfer-leadership churn into the schedule.")
  in
  let apply_threads =
    Arg.(
      value & opt int 1
      & info [ "apply-threads" ]
          ~doc:
            "Application threads per node (K): committed entries with \
             disjoint key footprints apply in parallel; 1 is the serial \
             loop.")
  in
  let net_stages =
    Arg.(
      value & opt int 1
      & info [ "net-stages" ]
          ~doc:
            "Net-path stage CPUs per node (1..4): 1 is the monolithic net \
             thread; higher settings pipeline it into ingress / sequencer \
             / fanout / replier stages.")
  in
  let term =
    Term.(
      const action $ backend_arg $ nodes_opt 5 $ rate_opt 120_000. $ seed_arg
      $ duration_opt 2000 $ events $ reconfig $ snapshot_interval_arg
      $ apply_threads $ net_stages)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Seeded kill/restart/partition schedule under load, with the \
          crash-recovery history checker; exits non-zero on any violation.")
    term

(* --- reconfig ----------------------------------------------------------------- *)

let reconfig_cmd =
  let action rate seed duration_ms snapshot_interval =
    let duration = Timebase.ms duration_ms in
    let snapshots =
      if snapshot_interval > 0 then Some snapshot_interval else None
    in
    let at pct = duration * pct / 100 in
    (* Starts as HovercRaft++ N=3 with node 0 leading (bootstrap). Grow to
       five voters, hand leadership to one of the newcomers, retire the old
       leader, then crash and revive a follower — all under open-loop load,
       all checked against the history checker. *)
    let schedule =
      [
        { Chaos.at = at 10; event = Chaos.Add_node };           (* -> node 3 *)
        { Chaos.at = at 25; event = Chaos.Add_node };           (* -> node 4 *)
        { Chaos.at = at 40; event = Chaos.Transfer 3 };
        { Chaos.at = at 55; event = Chaos.Remove_node 0 };
        { Chaos.at = at 65; event = Chaos.Kill 1 };
        { Chaos.at = at 80; event = Chaos.Restart 1 };
      ]
    in
    let outcome =
      Chaos.run
        ~params:(chaos_params ~n:3 ~seed ())
        ~rate_rps:rate ~duration ?snapshots ~schedule ~workload:chaos_workload
        ~seed ()
    in
    print_chaos_outcome ~seed outcome;
    if outcome.Chaos.pending_recoveries <> 0 then begin
      Printf.printf "VIOLATION: %d pending recoveries after quiesce\n"
        outcome.Chaos.pending_recoveries;
      exit 1
    end;
    (* With snapshots on, the newcomers must have been served the image:
       the leader does not retain history below its base on their behalf. *)
    if snapshots <> None && outcome.Chaos.installs = 0 then begin
      Printf.printf
        "VIOLATION: snapshot run finished without a single install\n";
      exit 1
    end
  in
  let term =
    Term.(
      const action $ rate_opt 100_000. $ seed_arg $ duration_opt 2000
      $ snapshot_interval_arg)
  in
  Cmd.v
    (Cmd.info "reconfig"
       ~doc:
         "Scripted membership-change scenario under load (grow 3 to 5, \
          transfer leadership, remove the old leader, crash and restart a \
          follower), verified by the history checker; exits non-zero on any \
          violation.")
    term

(* --- snapshot ----------------------------------------------------------------- *)

let snapshot_cmd =
  let action n rate seed duration_ms interval =
    let duration = Timebase.ms duration_ms in
    let at pct = duration * pct / 100 in
    (* A follower sleeps through most of the run while the cluster commits
       far past the retention window; on restart the only way back is the
       leader's image. The snapshot-aware checker then verifies state
       equivalence, and we additionally assert the mechanism itself: the
       leader's log base advanced (compaction did not wait for the crashed
       follower) and the rejoin went through Install_snapshot. *)
    let schedule =
      [
        { Chaos.at = at 15; event = Chaos.Kill 1 };
        { Chaos.at = at 70; event = Chaos.Restart 1 };
      ]
    in
    let outcome =
      Chaos.run
        ~params:(chaos_params ~n ~seed ())
        ~rate_rps:rate ~duration ~snapshots:interval ~schedule
        ~workload:chaos_workload ~seed ()
    in
    print_chaos_outcome ~seed outcome;
    if outcome.Chaos.max_log_base = 0 then begin
      Printf.printf "VIOLATION: log never compacted (base stayed 0)\n";
      exit 1
    end;
    if outcome.Chaos.installs = 0 then begin
      Printf.printf
        "VIOLATION: restarted follower caught up by replay, not by \
         Install_snapshot\n";
      exit 1
    end;
    Printf.printf "snapshot smoke OK\n"
  in
  let interval =
    Arg.(
      value & opt int 2000
      & info [ "snapshot-interval" ] ~doc:"Checkpoint interval in entries.")
  in
  let term =
    Term.(
      const action $ nodes_opt 5 $ rate_opt 120_000. $ seed_arg
      $ duration_opt 2000 $ interval)
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Snapshot/compaction smoke test: crash a follower, run past the \
          retention window, restart it and require catch-up via \
          Install_snapshot with a compacted leader log; exits non-zero on \
          any violation.")
    term

(* --- shard -------------------------------------------------------------------- *)

let shard_cmd =
  let action n shards active rate seed duration_ms events =
    or_die @@ fun () ->
    let duration = Timebase.ms duration_ms in
    let kv = Ycsb.Kv.workload_b ~seed in
    let schedule =
      if events > 0 then
        Some (Chaos.random_schedule ~events ~shards ~n ~duration ~seed ())
      else Some []
    in
    (* The smoke scenario: start with [active] groups owning the map,
       split each live group onto a dormant one (active -> 2*active, e.g.
       2 -> 4), then move a few slots back — a plain rebalance — all
       under sustained YCSB-B load. *)
    let at pct = duration * pct / 100 in
    let migrations =
      if shards > active then
        List.init (min active (shards - active)) (fun i ->
            ( at (20 + (25 * i)),
              Shard_chaos.Split { source = i; target = active + i } ))
        @ [
            (* By 75% the first split has long finished: its target owns
               the upper half of group 0's original block. Move two of
               those slots back — exercising move_shard proper. *)
            ( at 78,
              Shard_chaos.Move
                { slots = [ 64 / (2 * active); (64 / (2 * active)) + 1 ];
                  target = 0 } );
          ]
      else []
    in
    let outcome =
      Shard_chaos.run
        ~params:(chaos_params ~n ~seed ())
        ~shards ~active ~rate_rps:rate ~duration ?schedule ~migrations
        ~preload:(Ycsb.Kv.preload_ops kv)
        ~workload:(fun _rng -> Ycsb.Kv.next kv)
        ~seed ()
    in
    Printf.printf "timeline (seed %d, %d shards, %d active):\n" seed shards
      active;
    List.iter
      (fun (t_s, what) -> Printf.printf "  t=%.2fs  %s\n" t_s what)
      outcome.Shard_chaos.events;
    Printf.printf "completed %d, nacked %d, lost %d, retried %d, rerouted %d\n"
      outcome.Shard_chaos.report.Loadgen.completed
      outcome.Shard_chaos.report.Loadgen.nacked
      outcome.Shard_chaos.report.Loadgen.lost outcome.Shard_chaos.retried
      outcome.Shard_chaos.rerouted;
    Printf.printf "p50 %.1f us, p99 %.1f us, goodput %.1f kRPS\n"
      outcome.Shard_chaos.report.Loadgen.p50_us
      outcome.Shard_chaos.report.Loadgen.p99_us
      (outcome.Shard_chaos.report.Loadgen.goodput_rps /. 1e3);
    Printf.printf "migrations %d, final map version %d\n"
      outcome.Shard_chaos.migrations outcome.Shard_chaos.map_version;
    Printf.printf
      "exactly-once %b; committed-preserved %b; caught-up %b; consistent %b; \
       pending recoveries %d\n"
      outcome.Shard_chaos.exactly_once_ok
      outcome.Shard_chaos.committed_preserved outcome.Shard_chaos.caught_up
      outcome.Shard_chaos.consistent outcome.Shard_chaos.pending_recoveries;
    if outcome.Shard_chaos.violations <> [] then begin
      List.iter (Printf.printf "VIOLATION: %s\n") outcome.Shard_chaos.violations;
      exit 1
    end
  in
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~doc:"Total Raft groups (dormant split targets included).")
  in
  let active =
    Arg.(
      value & opt int 2
      & info [ "active" ] ~doc:"Groups initially owning the key space.")
  in
  let events =
    Arg.(
      value & opt int 0
      & info [ "events" ]
          ~doc:"Per-shard fault budget (0 = migrations only, no faults).")
  in
  let term =
    Term.(
      const action
      $ nodes_opt ~doc:"Nodes per Raft group." 3
      $ shards $ active $ rate_opt 80_000. $ seed_arg $ duration_opt 2000
      $ events)
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Multi-Raft sharding smoke: split the active groups onto dormant \
          ones and rebalance with a live move_shard, under sustained YCSB-B \
          load, then run the shard-aware history checker; exits non-zero on \
          any violation.")
    term

(* --- control ------------------------------------------------------------------- *)

let control_cmd =
  let module Cscn = Hovercraft_control.Scenario in
  let module Cctl = Hovercraft_control.Controller in
  let module Cexp = Hovercraft_control.Experiment in
  let action scenario seed off require_slo out =
    match Cscn.find scenario with
    | None ->
        Printf.eprintf "hovercraft: unknown scenario %S; known: %s\n" scenario
          (String.concat ", " Cscn.names);
        exit 2
    | Some spec ->
        let controller =
          if off then None
          else Some (Cctl.config ~slo_p99:spec.Cscn.slo_p99 ())
        in
        let outcome = or_die (fun () -> Cscn.run ?controller spec ~seed ()) in
        Printf.printf "control: scenario %s, seed %d, controller %s\n"
          spec.Cscn.name seed (if off then "off" else "on");
        List.iter
          (fun (at, s) -> Printf.printf "  fault  %6.2fs  %s\n" at s)
          outcome.Cscn.events;
        List.iter
          (fun (w : Cscn.window_verdict) ->
            Printf.printf "  window %6.2fs  %6d done  p99 %8.1f us  %s\n"
              w.Cscn.w_end_s w.Cscn.w_count w.Cscn.w_p99_us
              (if w.Cscn.w_good then "ok" else "BAD"))
          outcome.Cscn.windows;
        Cexp.pp_outcome Format.std_formatter outcome;
        List.iter
          (fun (at, s) -> Printf.printf "  note   %6.2fs  %s\n" at s)
          outcome.Cscn.notes;
        (match out with
        | None -> ()
        | Some file ->
            let oc = open_out file in
            output_string oc
              (Hovercraft_obs.Json.to_string_pretty (Cexp.outcome_json outcome));
            output_char oc '\n';
            close_out oc;
            Printf.printf "  outcome written to %s\n" file);
        if not (Cscn.checkers_green outcome) then begin
          Printf.eprintf "hovercraft control: a safety checker tripped\n";
          exit 1
        end;
        if not (Cscn.slo_held ~fraction:require_slo outcome) then begin
          Printf.eprintf
            "hovercraft control: SLO held in %d/%d windows, below the \
             required %.0f%%\n"
            outcome.Cscn.good_windows outcome.Cscn.n_windows
            (100. *. require_slo);
          exit 1
        end
  in
  let scenario =
    Arg.(
      value
      & pos 0 string "hotspot-drift"
      & info [] ~docv:"SCENARIO"
          ~doc:
            "Scenario name: hotspot-drift, flash-crowd, diurnal, slow-node \
             or correlated-failure.")
  in
  let off =
    Arg.(
      value & flag
      & info [ "off" ]
          ~doc:
            "Run the no-controller baseline (typically exits 1: the \
             scenarios are calibrated so the baseline misses the SLO).")
  in
  let require_slo =
    Arg.(
      value & opt float 0.75
      & info [ "require-slo" ] ~docv:"FRAC"
          ~doc:
            "Required fraction of measurement windows inside the p99 SLO; \
             the default leaves room for the controller's reaction cost \
             (breach hysteresis plus one migration fence).")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the per-window JSON outcome to $(docv).")
  in
  let term =
    Term.(const action $ scenario $ seed_arg $ off $ require_slo $ out)
  in
  Cmd.v
    (Cmd.info "control"
       ~doc:
         "Run one scenario from the autoscaling suite with the SLO-driven \
          controller attached (or --off for the baseline); exits non-zero \
          if the SLO fraction is missed or any safety checker trips.")
    term

(* --- mc ------------------------------------------------------------------------ *)

let mc_cmd =
  let action n aggregated max_term max_cmds max_messages no_dups no_drops
      max_states =
    let cfg =
      {
        Hovercraft_mc.Model.n;
        aggregated;
        max_term;
        max_cmds;
        max_messages;
        allow_drops = not no_drops;
        allow_duplication = not no_dups;
      }
    in
    Format.printf "model-checking %s n=%d (term<=%d, cmds<=%d, msgs<=%d, drops=%b, dups=%b)@."
      (if aggregated then "hovercraft++" else "raft")
      n max_term max_cmds max_messages (not no_drops) (not no_dups);
    Format.printf "%a@." Hovercraft_mc.Explore.pp_outcome
      (Hovercraft_mc.Explore.run ~max_states cfg)
  in
  let agg = Arg.(value & flag & info [ "aggregated" ] ~doc:"Model HovercRaft++.") in
  let max_term =
    Arg.(value & opt int 2 & info [ "max-term" ] ~doc:"Election bound.")
  in
  let max_cmds =
    Arg.(value & opt int 1 & info [ "max-cmds" ] ~doc:"Client command bound.")
  in
  let max_msgs =
    Arg.(value & opt int 4 & info [ "max-messages" ] ~doc:"In-flight message cap.")
  in
  let no_dups = Arg.(value & flag & info [ "no-dups" ] ~doc:"Disable duplication.") in
  let no_drops = Arg.(value & flag & info [ "no-drops" ] ~doc:"Disable drops.") in
  let budget =
    Arg.(value & opt int 200_000 & info [ "max-states" ] ~doc:"State budget.")
  in
  let term =
    Term.(
      const action $ nodes_arg $ agg $ max_term $ max_cmds $ max_msgs $ no_dups
      $ no_drops $ budget)
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:"Model-check bounded Raft / HovercRaft++ instances (safety).")
    term

(* --- repro -------------------------------------------------------------------- *)

let repro_cmd =
  let action names full out =
    let quality = if full then Experiment.Full else Experiment.Fast in
    let names = if names = [] then [ "all" ] else names in
    (* Check every name before running any: a typo must not pass as a
       partial run. *)
    let unknown =
      List.filter (fun n -> not (List.mem_assoc n Experiments.registry)) names
    in
    if unknown <> [] then begin
      List.iter (Printf.eprintf "hovercraft: unknown experiment %S\n") unknown;
      Printf.eprintf "known: %s\n" (String.concat ", " Experiments.names);
      exit 2
    end;
    List.iter (fun name -> List.assoc name Experiments.registry ~quality ~out) names
  in
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            ("One or more of " ^ String.concat ", " Experiments.names
           ^ "; none means all."))
  in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Longer measurement windows.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the JSON artifact of snapshot or autoscale to $(docv) \
             (default: under _build/, or the temp dir).")
  in
  let term = Term.(const action $ names $ full $ out) in
  Cmd.v
    (Cmd.info "repro"
       ~doc:"Regenerate the paper's tables and figures and the scaling runs.")
    term

let () =
  let doc = "HovercRaft: scalable, fault-tolerant microsecond-scale RPC (simulated reproduction)" in
  let info = Cmd.info "hovercraft" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            sweep_cmd;
            slo_cmd;
            failover_cmd;
            chaos_cmd;
            reconfig_cmd;
            snapshot_cmd;
            shard_cmd;
            control_cmd;
            repro_cmd;
            mc_cmd;
          ]))
