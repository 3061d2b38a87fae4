(* The systems under test and the bench-owned knee search.

   A cell is one simulated deployment shape plus the workload driven
   through it. Every probe of a cell stands the deployment up from
   scratch and draws a fresh generator from the run seed, so a probe's
   result depends only on its rate — never on which probes ran before it
   (the library's knee searches share one stateful generator across
   probes). *)

open Hovercraft_sim
open Hovercraft_core
module Op = Hovercraft_apps.Op
module Deploy = Hovercraft_cluster.Deploy
module Loadgen = Hovercraft_cluster.Loadgen
module Shard_deploy = Hovercraft_shard.Shard_deploy
module Shard_loadgen = Hovercraft_shard.Shard_loadgen

let slo_us = 500.
let clients = 8

type workload = Rng.t -> Op.t

(* [Grouped (shards, active)] co-locates [shards] groups on the hosts
   with [active] of them owning slots, as the control scenarios do. *)
type stack = Single | Grouped of { shards : int; active : int }

type t = {
  params : Hnode.params;
  stack : stack;
  flow_cap : int option;
  inputs : unit -> workload * Op.t list;
      (** A fresh generator and the preload list, both from the seed. *)
  seed : int;
}

(* Processor seconds [f] took: unlike wall time, this leaves out the
   time other processes on the machine held the processor. *)
let timed f =
  let t0 = Sys.time () in
  let v = f () in
  (v, Sys.time () -. t0)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted -> List.nth sorted (List.length sorted / 2)

(* Simulated requests per processor second of every load phase this
   process ran, in order. *)
let speeds : float list ref = ref []

let count_load ~sent ~cpu_s = speeds := (float_of_int sent /. cpu_s) :: !speeds

(* A stood-up system: what a load generator needs to drive it. *)
type system =
  | One of Deploy.t
  | Many of Shard_deploy.t

(* Build the inputs from the seed, create the deployment and preload
   every replica. *)
let stand_up c =
  let workload, preload = c.inputs () in
  let sys =
    match c.stack with
    | Single ->
        let d = Deploy.create (Deploy.config ?flow_cap:c.flow_cap c.params) in
        if preload <> [] then
          Array.iter (fun n -> Hnode.preload n preload) d.Deploy.nodes;
        One d
    | Grouped { shards; active } ->
        let sd =
          Shard_deploy.create
            (Shard_deploy.config ~active ?flow_cap:c.flow_cap ~shards c.params)
        in
        if preload <> [] then Shard_deploy.preload sd preload;
        Many sd
  in
  (sys, workload)

(* Processor seconds of [k] set-ups, each timed from a fully collected
   heap so that no set-up pays for its predecessor's garbage. *)
let time_setups c ~k =
  List.init k (fun _ ->
      Gc.full_major ();
      snd (timed (fun () -> ignore (stand_up c))))

(* One fixed-rate load phase on a stood-up system. *)
let run_load sys ~rate_rps ~workload ~seed ~warmup ~duration =
  let report, cpu_s =
    timed (fun () ->
        match sys with
        | One d ->
            Loadgen.run
              (Loadgen.create d ~clients ~rate_rps ~workload ~seed ())
              ~warmup ~duration ()
        | Many sd ->
            Shard_loadgen.run
              (Shard_loadgen.create sd ~clients ~rate_rps ~workload ~seed ())
              ~warmup ~duration ())
  in
  count_load ~sent:report.Loadgen.sent ~cpu_s;
  report

(* At least 60 k measured samples, so each p99 rests on 600 of them, and
   at least 30 ms (the library's Fast floor, which sets the window at the
   per-packet-bound knees); a fifth of the window again as warmup. *)
let window ~rate_rps =
  let dur_s = Float.max 0.03 (60_000. /. rate_rps) in
  let dur = int_of_float (dur_s *. 1e9) in
  (dur / 5, dur + (dur / 5))

(* [after] runs at the end of the probe, while the probed deployment is
   still reachable. *)
let probe ?(after = ignore) c ~rate_rps =
  let sys, workload = stand_up c in
  let warmup, duration = window ~rate_rps in
  let report = run_load sys ~rate_rps ~workload ~seed:(c.seed + 7) ~warmup ~duration in
  after ();
  ignore (Sys.opaque_identity sys);
  report

(* Live major-heap words after a full collection at the end of a probe
   at [rate_rps]. *)
let live_words_at c ~rate_rps =
  let live = ref 0 in
  let after () =
    Gc.full_major ();
    live := (Gc.quick_stat ()).Gc.live_words
  in
  ignore (probe ~after c ~rate_rps);
  !live

(* Judged on in-window outcomes only: the offered rate is a Poisson mean,
   so comparing goodput against it rejects healthy probes on noise. *)
let meets_slo (r : Loadgen.report) =
  r.completed > 0 && r.p99_us <= slo_us && r.lost = 0 && r.nacked = 0

(* Geometric bisection between [lo] and [hi] until they are within 1%;
   the knee in kRPS. [hi] is assumed to fail and is never probed; ending
   within 1% of it means the knee lies beyond the search range. *)
let knee c ~lo ~hi =
  let ok rate =
    Spans.with_span (Printf.sprintf "probe %.0f" rate) (fun () ->
        meets_slo (probe c ~rate_rps:rate))
  in
  if not (ok lo) then Error (Printf.sprintf "low probe %.0f RPS misses the SLO" lo)
  else begin
    let rec go good bad =
      if bad /. good <= 1.01 then good
      else
        let mid = sqrt (good *. bad) in
        if ok mid then go mid bad else go good mid
    in
    let k = go lo hi in
    if hi /. k <= 1.01 then
      Error (Printf.sprintf "knee reached the search ceiling %.0f RPS" hi)
    else Ok (k /. 1e3)
  end
