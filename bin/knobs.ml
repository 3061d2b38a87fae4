(* Shared knob surface for the hovercraft CLI.

   Every subcommand that drives a deployment takes the same cluster
   shape, workload and feature knobs; this module is the single place
   their cmdliner specs (and the params/workload constructors they feed)
   live, so a new verb picks them up by name instead of copy-pasting
   flag definitions that then drift apart. *)

open Cmdliner
open Hovercraft_sim
open Hovercraft_core
module Service = Hovercraft_apps.Service
module Ycsb = Hovercraft_apps.Ycsb
module Jbsq = Hovercraft_r2p2.Jbsq

(* --- converters ------------------------------------------------------ *)

let mode_conv =
  let parse s = Hnode.mode_of_string s |> Result.map_error (fun e -> `Msg e) in
  let print fmt m = Hnode.pp_mode fmt m in
  Arg.conv (parse, print)

let mode_arg =
  let doc = "Deployment mode: unrep, vanilla, hover or hoverpp." in
  Arg.(value & opt mode_conv Hnode.Hover_pp & info [ "m"; "mode" ] ~doc)

let backend_conv =
  let parse s =
    Hovercraft_ordering.Ordering.kind_of_string s
    |> Result.map_error (fun e -> `Msg e)
  in
  let print fmt k = Hovercraft_ordering.Ordering.pp_kind fmt k in
  Arg.conv (parse, print)

let backend_arg =
  let doc =
    "Ordering backend: raft (the paper's leader-based log) or rabia \
     (leaderless randomized agreement; requires -m hover and a fixed \
     membership)."
  in
  Arg.(value & opt backend_conv Hnode.Raft & info [ "backend" ] ~doc)

let trace_conv =
  let parse s =
    match Hovercraft_obs.Trace.severity_of_string s with
    | Some sev -> Ok sev
    | None -> Error (`Msg (Printf.sprintf "unknown trace level %S" s))
  in
  let print fmt sev =
    Format.pp_print_string fmt (Hovercraft_obs.Trace.severity_to_string sev)
  in
  Arg.conv (parse, print)

(* Knob validation lives in Hnode/Deploy and raises Invalid_argument with
   a sentence worth showing; turn it into a clean CLI failure instead of
   a backtrace. *)
let or_die f =
  try f ()
  with Invalid_argument msg ->
    Printf.eprintf "hovercraft: %s\n" msg;
    exit 2

(* --- cluster shape --------------------------------------------------- *)

(* The scenario verbs (failover, chaos, reconfig, snapshot, shard) share
   these three flags but each picks its own default. *)
let nodes_opt ?(doc = "Cluster size (>= 3).") default =
  Arg.(value & opt int default & info [ "n"; "nodes" ] ~doc)

let rate_opt default =
  Arg.(value & opt float default & info [ "rate" ] ~doc:"Offered load in RPS.")

let duration_opt default =
  Arg.(value & opt int default & info [ "duration-ms" ] ~doc:"Run length.")

let nodes_arg =
  nodes_opt ~doc:"Cluster size (ignored for unrep, which runs one node)." 3

let rate_arg =
  let doc = "Offered load in requests per second." in
  Arg.(value & opt float 100_000. & info [ "r"; "rate" ] ~doc)

let duration_arg =
  let doc = "Measured duration in simulated milliseconds." in
  Arg.(value & opt int 100 & info [ "d"; "duration-ms" ] ~doc)

let seed_arg =
  let doc = "Random seed (simulations are deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

(* --- workload -------------------------------------------------------- *)

let service_us_arg =
  let doc = "Mean service time of the synthetic workload, in microseconds." in
  Arg.(value & opt float 1.0 & info [ "service-us" ] ~doc)

let read_fraction_arg =
  let doc = "Fraction of requests that are read-only." in
  Arg.(value & opt float 0. & info [ "read-fraction" ] ~doc)

let req_bytes_arg =
  let doc = "Request payload size in bytes." in
  Arg.(value & opt int 24 & info [ "req-bytes" ] ~doc)

let rep_bytes_arg =
  let doc = "Reply payload size in bytes." in
  Arg.(value & opt int 8 & info [ "rep-bytes" ] ~doc)

let bimodal_arg =
  let doc =
    "Use the paper's bimodal service distribution (10% of requests 10x longer)."
  in
  Arg.(value & flag & info [ "bimodal" ] ~doc)

let ycsb_arg =
  let doc =
    "Run YCSB-E on the Redis-like store instead of the synthetic service."
  in
  Arg.(value & flag & info [ "ycsb" ] ~doc)

(* --- feature knobs --------------------------------------------------- *)

let no_lb_arg =
  let doc =
    "Disable reply/read-only load balancing (leader answers everything)."
  in
  Arg.(value & flag & info [ "no-reply-lb" ] ~doc)

let random_lb_arg =
  let doc = "Use RANDOM replier selection instead of JBSQ." in
  Arg.(value & flag & info [ "random-lb" ] ~doc)

let bound_arg =
  let doc = "Bounded-queue size B (max assigned-but-unapplied ops per node)." in
  Arg.(value & opt int 128 & info [ "bound" ] ~doc)

let snapshot_interval_arg =
  let doc =
    "Checkpoint the state machine every this many applied entries and let \
     the log compact past lagging followers (they catch up via \
     Install_snapshot); 0 disables snapshots."
  in
  Arg.(value & opt int 0 & info [ "snapshot-interval" ] ~doc)

let flow_cap_arg =
  let doc =
    "Enable the flow-control middlebox with this many in-flight requests; \
     repliers then send it one credit per reply."
  in
  Arg.(value & opt (some int) None & info [ "flow-cap" ] ~doc)

(* --- observability --------------------------------------------------- *)

let metrics_arg =
  let doc =
    "Write a JSON observability snapshot (per-node metrics, per-link fabric \
     counters, the protocol-event trace) to $(docv) after the run; use - for \
     stdout."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~doc ~docv:"FILE")

let trace_arg =
  let doc =
    "Record protocol events at $(docv) (debug, info, warn or error) and print \
     the trace ring after the run."
  in
  Arg.(value & opt (some trace_conv) None & info [ "trace" ] ~doc ~docv:"LEVEL")

(* --- constructors the knobs feed ------------------------------------- *)

let make_params ?(snapshot_interval = 0) ?(backend = Hnode.Raft) mode n no_lb
    random_lb bound seed =
  let p =
    or_die (fun () ->
        Hnode.params ~mode ~backend
          ~n:(if mode = Hnode.Unreplicated then max n 1 else n)
          ())
  in
  {
    p with
    Hnode.seed;
    features =
      {
        p.Hnode.features with
        Hnode.reply_lb = not no_lb;
        lb_policy = (if random_lb then Jbsq.Random_choice else Jbsq.Jbsq);
        bound;
        snapshot_interval;
      };
  }

let make_workload ~ycsb ~bimodal ~service_us ~read_fraction ~req_bytes
    ~rep_bytes ~seed =
  if ycsb then begin
    let gen = Ycsb.create ~seed () in
    ((fun _rng -> Ycsb.next gen), Ycsb.preload_ops gen 20_000)
  end
  else begin
    let service =
      if bimodal then
        Dist.Bimodal
          {
            mean = Timebase.of_us_f service_us;
            long_fraction = 0.1;
            ratio = 10.;
          }
      else Dist.Fixed (Timebase.of_us_f service_us)
    in
    let spec = Service.spec ~service ~req_bytes ~rep_bytes ~read_fraction () in
    (Service.sample spec, [])
  end
