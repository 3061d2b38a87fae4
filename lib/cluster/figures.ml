open Hovercraft_sim
open Hovercraft_core
module Service = Hovercraft_apps.Service
module Ycsb = Hovercraft_apps.Ycsb
module Jbsq = Hovercraft_r2p2.Jbsq
module Fabric = Hovercraft_net.Fabric

type quality = Experiment.quality

let slo = Timebase.us 500

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let baseline_spec = Service.spec ()
(* S = 1 us fixed, 24-byte requests, 8-byte replies: the baseline
   microbenchmark of §7.1. *)

(* One-knob tweaks on the nested defaults. *)
let with_features p f = { p with Hnode.features = f p.Hnode.features }

let synth_setup ?(reply_lb = false) ?spec ~mode ~n ?(lb_policy = Jbsq.Jbsq)
    ?(bound = 128) () =
  let params =
    with_features (Hnode.params ~mode ~n ()) (fun f ->
        { f with Hnode.reply_lb; lb_policy; bound })
  in
  let spec = Option.value spec ~default:baseline_spec in
  Experiment.setup params (Service.sample spec)

let mode_label = function
  | Hnode.Unreplicated -> "UnRep"
  | Hnode.Vanilla -> "VanillaRaft"
  | Hnode.Hover -> "HovercRaft"
  | Hnode.Hover_pp -> "HovercRaft++"

(* ------------------------------------------------------------------ *)

let table1 ?(quality = Experiment.Fast) () =
  ignore quality;
  section "Table 1: leader Rx/Tx messages per request (measured, N=5)";
  let n = 5 in
  let measure mode =
    let params =
      with_features (Hnode.params ~mode ~n ()) (fun f ->
          {
            f with
            Hnode.reply_lb = (mode <> Hnode.Vanilla);
            (* Count protocol messages only: the commit-hint optimization
               would otherwise add traffic the paper's Table 1 does not
               model. *)
            eager_commit_notify = false;
          })
    in
    let deploy = Deploy.create (Deploy.config params) in
    let engine = deploy.Deploy.engine in
    let gen =
      Loadgen.create deploy ~clients:4 ~rate_rps:10_000.
        ~workload:(Service.sample baseline_spec) ~seed:5 ()
    in
    let warmup = Timebase.ms 20 and duration = Timebase.ms 220 in
    let now0 = Engine.now engine in
    let leader = Option.get (Deploy.leader deploy) in
    let port = Hnode.port leader in
    let rx1 = ref 0 and tx1 = ref 0 and rx2 = ref 0 and tx2 = ref 0 in
    Engine.at engine (now0 + warmup) (fun () ->
        rx1 := Fabric.rx_packets port;
        tx1 := Fabric.tx_packets port);
    Engine.at engine (now0 + duration) (fun () ->
        rx2 := Fabric.rx_packets port;
        tx2 := Fabric.tx_packets port);
    let report = Loadgen.run gen ~warmup ~duration () in
    let per x = float_of_int x /. float_of_int (max report.Loadgen.completed 1) in
    (per (!rx2 - !rx1), per (!tx2 - !tx1))
  in
  let analytic = function
    | Hnode.Vanilla ->
        (Printf.sprintf "1+(N-1) = %d" n, Printf.sprintf "(N-1)+1 = %d" n)
    | Hnode.Hover ->
        ( Printf.sprintf "1+(N-1) = %d" n,
          Printf.sprintf "(N-1)+1/N = %.1f" (float_of_int (n - 1) +. (1. /. float_of_int n)) )
    | Hnode.Hover_pp ->
        ("1+1 = 2", Printf.sprintf "1+1/N = %.1f" (1. +. (1. /. float_of_int n)))
    | Hnode.Unreplicated -> ("1", "1")
  in
  let rows =
    List.map
      (fun mode ->
        let rx, tx = measure mode in
        let arx, atx = analytic mode in
        [
          mode_label mode;
          Printf.sprintf "%.2f" rx;
          arx;
          Printf.sprintf "%.2f" tx;
          atx;
        ])
      [ Hnode.Vanilla; Hnode.Hover; Hnode.Hover_pp ]
  in
  Table.print
    ~header:[ "system"; "rx/req (meas)"; "rx (paper)"; "tx/req (meas)"; "tx (paper)" ]
    rows;
  print_string
    "(measured at 10 kRPS so append_entries are unbatched; heartbeats and\n\
    \ election-clock traffic are included, hence the small excess)\n"

(* ------------------------------------------------------------------ *)

let fig7 ?(quality = Experiment.Fast) () =
  section
    "Figure 7: p99 latency vs throughput (S=1us, 24B req / 8B reply, N=3)";
  let setups =
    [
      (Hnode.Unreplicated, synth_setup ~mode:Hnode.Unreplicated ~n:1 ());
      (Hnode.Vanilla, synth_setup ~mode:Hnode.Vanilla ~n:3 ());
      (Hnode.Hover, synth_setup ~mode:Hnode.Hover ~n:3 ());
      (Hnode.Hover_pp, synth_setup ~mode:Hnode.Hover_pp ~n:3 ());
    ]
  in
  let loads =
    [ 100_000.; 300_000.; 500_000.; 700_000.; 850_000.; 900_000.; 930_000. ]
  in
  let rows =
    List.map
      (fun rate ->
        Table.fmt_krps rate
        :: List.map
             (fun (_, s) ->
               let r = Experiment.run_point ~quality s ~rate_rps:rate in
               Table.fmt_us r.Loadgen.p99_us)
             setups)
      loads
  in
  Table.print
    ~header:("load kRPS" :: List.map (fun (m, _) -> mode_label m ^ " p99us") setups)
    rows;
  List.iter
    (fun (m, s) ->
      let k = Experiment.max_under_slo ~quality ~slo s in
      Printf.printf "  %-13s max under 500us SLO: %s kRPS\n%!" (mode_label m)
        (Table.fmt_krps k))
    setups

(* ------------------------------------------------------------------ *)

let fig8 ?(quality = Experiment.Fast) () =
  section "Figure 8: kRPS under 500us SLO vs request size (S=1us, N=3)";
  let sizes = [ 24; 64; 512 ] in
  let rows =
    List.map
      (fun mode ->
        let n = if mode = Hnode.Unreplicated then 1 else 3 in
        mode_label mode
        :: List.map
             (fun req_bytes ->
               let spec = Service.spec ~req_bytes () in
               let s = synth_setup ~spec ~mode ~n () in
               Table.fmt_krps (Experiment.max_under_slo ~quality ~slo s))
             sizes)
      [ Hnode.Unreplicated; Hnode.Vanilla; Hnode.Hover; Hnode.Hover_pp ]
  in
  Table.print
    ~header:
      ("system" :: List.map (fun b -> Printf.sprintf "%dB kRPS" b) sizes)
    rows

(* ------------------------------------------------------------------ *)

let fig9 ?(quality = Experiment.Fast) () =
  section "Figure 9: kRPS under 500us SLO vs cluster size (S=1us, 24B/8B)";
  let cluster_sizes = [ 3; 5; 7; 9 ] in
  let rows =
    List.map
      (fun mode ->
        mode_label mode
        :: List.map
             (fun n ->
               let s = synth_setup ~mode ~n () in
               Table.fmt_krps (Experiment.max_under_slo ~quality ~slo s))
             cluster_sizes)
      [ Hnode.Vanilla; Hnode.Hover; Hnode.Hover_pp ]
  in
  Table.print
    ~header:("system" :: List.map (fun n -> Printf.sprintf "N=%d kRPS" n) cluster_sizes)
    rows

(* ------------------------------------------------------------------ *)

let fig10 ?(quality = Experiment.Fast) () =
  section "Figure 10: 6kB replies, reply load balancing (S=1us, 24B req)";
  let spec = Service.spec ~rep_bytes:6000 () in
  let setups =
    [
      ("UnRep", synth_setup ~spec ~mode:Hnode.Unreplicated ~n:1 ());
      ("N=3", synth_setup ~spec ~reply_lb:true ~mode:Hnode.Hover_pp ~n:3 ());
      ("N=5", synth_setup ~spec ~reply_lb:true ~mode:Hnode.Hover_pp ~n:5 ());
    ]
  in
  let loads = [ 100_000.; 150_000.; 190_000.; 300_000.; 450_000.; 550_000.; 650_000. ] in
  let rows =
    List.map
      (fun rate ->
        Table.fmt_krps rate
        :: List.map
             (fun (_, s) ->
               let r = Experiment.run_point ~quality s ~rate_rps:rate in
               if r.Loadgen.goodput_rps < 0.9 *. rate then "-"
               else Table.fmt_us r.Loadgen.p99_us)
             setups)
      loads
  in
  Table.print
    ~header:("load kRPS" :: List.map (fun (l, _) -> l ^ " p99us") setups)
    rows;
  List.iter
    (fun (l, s) ->
      let k = Experiment.max_under_slo ~quality ~slo s in
      Printf.printf "  %-5s max under SLO: %s kRPS\n%!" l (Table.fmt_krps k))
    setups;
  print_string "('-' marks loads beyond the configuration's capacity)\n"

(* ------------------------------------------------------------------ *)

let bimodal_spec =
  Service.spec
    ~service:(Dist.Bimodal { mean = Timebase.us 10; long_fraction = 0.1; ratio = 10. })
    ~read_fraction:0.75 ()

let fig11 ?(quality = Experiment.Fast) () =
  section
    "Figure 11: bimodal S=10us, 75% read-only, N=3: JBSQ vs RANDOM repliers";
  let setups =
    [
      ("UnRep", synth_setup ~spec:bimodal_spec ~mode:Hnode.Unreplicated ~n:1 ());
      ( "Hover++ JBSQ",
        synth_setup ~spec:bimodal_spec ~reply_lb:true ~mode:Hnode.Hover_pp ~n:3
          ~lb_policy:Jbsq.Jbsq ~bound:32 () );
      ( "Hover++ RAND",
        synth_setup ~spec:bimodal_spec ~reply_lb:true ~mode:Hnode.Hover_pp ~n:3
          ~lb_policy:Jbsq.Random_choice ~bound:32 () );
    ]
  in
  let loads = [ 25_000.; 50_000.; 75_000.; 100_000.; 125_000.; 150_000.; 165_000. ] in
  let rows =
    List.map
      (fun rate ->
        Table.fmt_krps rate
        :: List.map
             (fun (_, s) ->
               let r = Experiment.run_point ~quality s ~rate_rps:rate in
               if r.Loadgen.goodput_rps < 0.9 *. rate then "-"
               else Table.fmt_us r.Loadgen.p99_us)
             setups)
      loads
  in
  Table.print
    ~header:("load kRPS" :: List.map (fun (l, _) -> l ^ " p99us") setups)
    rows;
  List.iter
    (fun (l, s) ->
      let k = Experiment.max_under_slo ~quality ~slo s in
      Printf.printf "  %-13s max under SLO: %s kRPS\n%!" l (Table.fmt_krps k))
    setups

(* ------------------------------------------------------------------ *)

let fig12 ?(quality = Experiment.Fast) () =
  ignore quality;
  section
    "Figure 12: leader failure under fixed load (bimodal S=10us, 75% RO,\n\
    \    HovercRaft++ N=3, flow-control cap 1000, load 165 kRPS)";
  let rng_spec = bimodal_spec in
  let outcome =
    Failure.run
      ~params:
        (with_features (Hnode.params ~mode:Hnode.Hover_pp ~n:3 ()) (fun f ->
             { f with Hnode.reply_lb = true; bound = 32 }))
      ~rate_rps:165_000. ~duration:(Timebase.s 2) ~kill_after:(Timebase.ms 600)
      ~workload:(Service.sample rng_spec) ~seed:31 ()
  in
  Failure.print_series outcome.series;
  Printf.printf
    "  leader (node %s) killed at t=%.1fs; new leader: node %s; total NACKed: \
     %d; replicas consistent after drain: %b\n%!"
    (match outcome.killed_node with Some i -> string_of_int i | None -> "?")
    outcome.killed_at_s
    (match outcome.new_leader with Some i -> string_of_int i | None -> "?")
    outcome.total_nacked outcome.consistent

(* ------------------------------------------------------------------ *)

let ycsb_setup ~mode ~n ~seed =
  let params =
    with_features (Hnode.params ~mode ~n ()) (fun f ->
        { f with Hnode.reply_lb = true })
  in
  let gen = Ycsb.create ~seed () in
  let preload = Ycsb.preload_ops gen 20_000 in
  Experiment.setup ~preload params (fun _ -> Ycsb.next gen)

let fig13 ?(quality = Experiment.Fast) () =
  section "Figure 13: YCSB-E (95% SCAN / 5% INSERT) on the Redis-like store";
  let knee label s =
    let k = Experiment.max_under_slo ~quality ~slo ~lo:2_000. s in
    Printf.printf "  %-6s max under 500us SLO: %s kRPS\n%!" label
      (Table.fmt_krps k);
    k
  in
  let setups =
    [
      ("UnRep", fun () -> ycsb_setup ~mode:Hnode.Unreplicated ~n:1 ~seed:99);
      ("N=3", fun () -> ycsb_setup ~mode:Hnode.Hover_pp ~n:3 ~seed:99);
      ("N=5", fun () -> ycsb_setup ~mode:Hnode.Hover_pp ~n:5 ~seed:99);
      ("N=7", fun () -> ycsb_setup ~mode:Hnode.Hover_pp ~n:7 ~seed:99);
    ]
  in
  let loads = [ 10_000.; 25_000.; 50_000.; 90_000.; 130_000. ] in
  let rows =
    List.map
      (fun rate ->
        Table.fmt_krps rate
        :: List.map
             (fun (_, mk) ->
               let r = Experiment.run_point ~quality (mk ()) ~rate_rps:rate in
               if r.Loadgen.goodput_rps < 0.9 *. rate then "-"
               else Table.fmt_us r.Loadgen.p99_us)
             setups)
      loads
  in
  Table.print
    ~header:("load kRPS" :: List.map (fun (l, _) -> l ^ " p99us") setups)
    rows;
  let knees = List.map (fun (l, mk) -> (l, knee l (mk ()))) setups in
  match (List.assoc_opt "UnRep" knees, List.assoc_opt "N=7" knees) with
  | Some base, Some top when base > 0. ->
      Printf.printf "  speedup N=7 over UnRep: %.1fx (paper: 4x)\n%!" (top /. base)
  | _ -> ()
