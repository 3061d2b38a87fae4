open Hovercraft_sim
open Hovercraft_core

type workload = Rng.t -> Hovercraft_apps.Op.t

type setup = {
  params : Hnode.params;
  workload : workload;
  preload : Hovercraft_apps.Op.t list;
  clients : int;
  flow_cap : int option;
  seed : int;
}

let setup ?(clients = 8) ?flow_cap ?(preload = []) ?(seed = 1) params workload =
  { params; workload; preload; clients; flow_cap; seed }

type quality = Fast | Full

(* Window sizing: long enough for a stable p99 (>= ~4k samples) but bounded
   so SLO searches stay cheap. *)
let window ~quality ~rate_rps =
  let min_samples, cap_s =
    match quality with Fast -> (4_000., 0.25) | Full -> (20_000., 1.0)
  in
  let needed_s = min_samples /. rate_rps in
  let dur_s = Float.min cap_s (Float.max 0.03 needed_s) in
  let dur = int_of_float (dur_s *. 1e9) in
  let warm = dur / 5 in
  (warm, dur + warm)

(* Every deployment an experiment measures is stood up here: a fresh
   group with the setup's flow cap, every replica preloaded. *)
let stand_up s =
  let deploy = Deploy.create (Deploy.config ?flow_cap:s.flow_cap s.params) in
  if s.preload <> [] then
    Array.iter (fun n -> Hnode.preload n s.preload) deploy.Deploy.nodes;
  deploy

let measure ~quality s deploy ~rate_rps =
  let gen =
    Loadgen.create deploy ~clients:s.clients ~rate_rps ~workload:s.workload
      ~seed:(s.seed + 7)
      ()
  in
  let warmup, duration = window ~quality ~rate_rps in
  Loadgen.run gen ~warmup ~duration ()

let run_point ?(quality = Fast) s ~rate_rps =
  measure ~quality s (stand_up s) ~rate_rps

let latency_curve ?quality s ~rates =
  List.map (fun r -> (r, run_point ?quality s ~rate_rps:r)) rates

(* Judged on the in-window outcome only: the offered rate is a Poisson
   mean, so comparing goodput against it rejects healthy probes on noise
   (on small windows at low rates, often enough to end the bracketing
   early). A sustained probe answers everything it sent in the window
   within the SLO and sheds at most 3% to flow control. *)
let meets_slo ~slo (r : Loadgen.report) =
  r.completed > 0
  && r.p99_us <= Timebase.to_us_f slo
  && r.lost = 0
  && float_of_int r.nacked <= 0.03 *. float_of_int (r.completed + r.nacked)

let knee ?(slo = Timebase.us 500) ?(lo = 5_000.) ?(hi = 2_000_000.) probe =
  let ok rate = meets_slo ~slo (probe rate) in
  if not (ok lo) then 0.
  else begin
    (* Geometric bracketing, then bisection to ~2%. *)
    let rec bracket good =
      let candidate = good *. 1.6 in
      if candidate >= hi then if ok hi then (hi, hi) else (good, hi)
      else if ok candidate then bracket candidate
      else (good, candidate)
    in
    let good, bad = bracket lo in
    let rec bisect good bad iters =
      if iters = 0 || (bad -. good) /. good < 0.02 then good
      else begin
        let mid = (good +. bad) /. 2. in
        if ok mid then bisect mid bad (iters - 1) else bisect good mid (iters - 1)
      end
    in
    if good >= hi then hi else bisect good bad 8
  end

let max_under_slo ?(quality = Fast) ?slo ?lo ?hi s =
  knee ?slo ?lo ?hi (fun rate -> run_point ~quality s ~rate_rps:rate)

(* Confirmation run just under the knee on a deployment the caller keeps,
   so replica agreement and the node-side census are checked at speed (a
   fresh setup: the knee search consumed the previous generator). *)
let confirm_near ~quality s ~knee =
  let deploy = stand_up s in
  let confirm =
    measure ~quality s deploy ~rate_rps:(Float.max 50_000. (0.95 *. knee))
  in
  Deploy.quiesce deploy ~extra:(Timebase.ms 100) ();
  (deploy, confirm)

(* --- applyscale: parallel-apply speedup on YCSB-A ------------------- *)

type applyscale_point = {
  threads : int;
  knee_rps : float;
  consistent : bool;  (** Replica fingerprints agree after quiesce. *)
  stalls : int;  (** Barrier waits the schedulers recorded (all nodes). *)
  confirm : Loadgen.report;  (** The fingerprint-check run, near the knee. *)
}

(* YCSB-A (50% read / 50% update, zipfian over 10k 1kB records) against a
   3-node HovercRaft group, at K application threads per node. The links
   run at 40G so the wire never hides the CPU knee — the serial apply
   thread is the bottleneck under write-heavy load (ROADMAP item 2), and
   the whole point is to watch it move as K grows. Same seed for every K:
   the committed log is identical across runs (client arrivals do not
   depend on apply timing), so knee ratios are apples-to-apples. *)
let applyscale_setup ~seed ~threads ~net_stages =
  let p = Hnode.params ~mode:Hnode.Hover ~n:3 () in
  let p =
    {
      p with
      seed;
      cost = { p.cost with link_gbps = 40. };
      features = { p.features with apply_threads = threads; net_stages };
    }
  in
  let gen = Hovercraft_apps.Ycsb.Kv.workload_a ~seed in
  let preload =
    Hovercraft_apps.Ycsb.Kv.preload_ops
      (Hovercraft_apps.Ycsb.Kv.workload_a ~seed)
  in
  setup ~preload ~seed p (fun _rng -> Hovercraft_apps.Ycsb.Kv.next gen)

let applyscale ?(quality = Fast) ?(net_stages = 1) ?(threads = [ 1; 2; 4; 8 ])
    ?(seed = 11) () =
  List.map
    (fun k ->
      let knee =
        max_under_slo ~quality ~hi:5_000_000.
          (applyscale_setup ~seed ~threads:k ~net_stages)
      in
      let deploy, confirm =
        confirm_near ~quality (applyscale_setup ~seed ~threads:k ~net_stages) ~knee
      in
      let stalls =
        Array.fold_left
          (fun acc n -> acc + Hnode.apply_stalls n)
          0 deploy.Deploy.nodes
      in
      {
        threads = k;
        knee_rps = knee;
        consistent = Deploy.consistent deploy;
        stalls;
        confirm;
      })
    threads

(* --- netscale: pipelined net path on YCSB-B ------------------------- *)

type netscale_point = {
  stages : int;
  knee_rps : float;
  consistent : bool;
  stage_busy : (string * int) list;
  confirm : Loadgen.report;
}

(* The compartmentalization experiment mirrors the shardscale S=1 cell
   (the 1889 kRPS baseline): YCSB-B (95% reads, zipfian over 10k 1kB
   records) against a 3-node HovercRaft++ group on 40 GbE links — at
   that knee the binding resource is the leader's per-packet CPU, not
   the wire, which is exactly what splitting the net thread into stages
   attacks. Same seed at every stage count: handler logic and message
   order are stage-independent, so the committed logs are comparable. *)
let netscale_setup ~seed ~stages =
  let p = Hnode.params ~mode:Hnode.Hover_pp ~n:3 () in
  let p =
    {
      p with
      seed;
      cost = { p.cost with link_gbps = 40. };
      features = { p.features with net_stages = stages };
    }
  in
  let gen = Hovercraft_apps.Ycsb.Kv.workload_b ~seed:(seed + 1) in
  let preload =
    Hovercraft_apps.Ycsb.Kv.preload_ops
      (Hovercraft_apps.Ycsb.Kv.workload_b ~seed:(seed + 1))
  in
  setup ~preload ~seed p (fun _rng -> Hovercraft_apps.Ycsb.Kv.next gen)

(* --- backendscale: ordering-backend shootout ------------------------ *)

type backendscale_point = {
  backend : Hnode.backend;
  knee_rps : float;
  kill_p99_us : float;
  recovery_ms : float;
  consistent : bool;
  confirm : Loadgen.report;
}

(* Both backends run the SAME dataplane cell — HovercRaft mode, 3 nodes,
   40 GbE, YCSB-A (write-heavy, so every request crosses the ordering
   layer) — and differ only in what orders the metadata: the leader's
   log or per-slot randomized agreement. That isolation is the point of
   the shootout; a mode change would confound the comparison. *)
let backendscale_setup ~seed ~backend =
  let p = Hnode.params ~mode:Hnode.Hover ~backend ~n:3 () in
  let p = { p with seed; cost = { p.cost with link_gbps = 40. } } in
  let gen = Hovercraft_apps.Ycsb.Kv.workload_a ~seed in
  let preload =
    Hovercraft_apps.Ycsb.Kv.preload_ops
      (Hovercraft_apps.Ycsb.Kv.workload_a ~seed)
  in
  setup ~preload ~seed p (fun _rng -> Hovercraft_apps.Ycsb.Kv.next gen)

let backendscale ?(quality = Fast) ?(seed = 23) () =
  List.map
    (fun backend ->
      let knee =
        max_under_slo ~quality ~hi:5_000_000.
          (backendscale_setup ~seed ~backend)
      in
      (* Faulted run at 60% of the backend's own knee: kill the ordering
         linchpin mid-run — the leader under raft, an arbitrary replica
         under rabia (there is no linchpin; that asymmetry is the
         experiment) — and read the outage off the bucketed completion
         series. The report's p99 spans the whole faulted window. *)
      let s = backendscale_setup ~seed ~backend in
      let deploy = stand_up { s with flow_cap = Some 1000 } in
      let rate = Float.max 50_000. (0.6 *. knee) in
      let duration =
        match quality with Fast -> Timebase.ms 600 | Full -> Timebase.s 2
      in
      let kill_at = duration * 2 / 5 in
      let bucket = Timebase.ms 20 in
      let engine = deploy.Deploy.engine in
      let t0 = Engine.now engine in
      let completions = Series.create ~bucket () in
      let nacks = Series.create ~bucket () in
      let gen =
        Loadgen.create deploy ~clients:s.clients ~rate_rps:rate
          ~workload:s.workload
          ~on_reply:(fun ~rid:_ ~op:_ ~sent_at:_ ~latency ->
            Series.add completions ~at:(Engine.now engine - t0) latency)
          ~on_nack:(fun ~at -> Series.mark nacks ~at:(at - t0))
          ~retry:(Timebase.ms 50, 8) ~seed:(s.seed + 7) ()
      in
      Engine.after engine kill_at (fun () ->
          match backend with
          | Hnode.Raft -> ignore (Deploy.kill_leader deploy)
          | Hnode.Rabia -> Deploy.kill_node deploy 0);
      let confirm = Loadgen.run gen ~warmup:0 ~duration () in
      Deploy.quiesce deploy ~extra:(Timebase.ms 200) ();
      let series =
        Failure.merge_series ~bucket_width:bucket
          ~completions:(Series.buckets completions)
          ~nacks:(Series.buckets nacks)
      in
      (* Recovery = end of the last unhealthy FULL bucket after the kill
         (drain-era buckets past the arrival cutoff are excluded — their
         low counts reflect the generator stopping, not an outage). *)
      let kill_s = Timebase.to_s_f kill_at in
      let dur_s = Timebase.to_s_f duration in
      let w_s = Timebase.to_s_f bucket in
      let healthy_krps = 0.9 *. rate /. 1e3 in
      let outage_end =
        List.fold_left
          (fun acc (b : Failure.bucket) ->
            if
              b.Failure.t_s >= kill_s
              && b.Failure.t_s +. w_s <= dur_s
              && b.Failure.krps < healthy_krps
            then b.Failure.t_s +. w_s
            else acc)
          kill_s series
      in
      {
        backend;
        knee_rps = knee;
        kill_p99_us = confirm.Loadgen.p99_us;
        recovery_ms = (outage_end -. kill_s) *. 1e3;
        consistent = Deploy.consistent deploy;
        confirm;
      })
    [ Hnode.Raft; Hnode.Rabia ]

let netscale ?(quality = Fast) ?(stage_counts = [ 1; 2; 4 ]) ?(seed = 42) () =
  List.map
    (fun stages ->
      let knee =
        max_under_slo ~quality ~hi:8_000_000. (netscale_setup ~seed ~stages)
      in
      (* Replica agreement is the cross-stage determinism check, and the
         leader's per-stage busy census shows what binds next. *)
      let deploy, confirm =
        confirm_near ~quality (netscale_setup ~seed ~stages) ~knee
      in
      let stage_busy =
        match Deploy.leader deploy with
        | Some l -> Hnode.stage_busy_times l
        | None -> []
      in
      {
        stages;
        knee_rps = knee;
        consistent = Deploy.consistent deploy;
        stage_busy;
        confirm;
      })
    stage_counts
