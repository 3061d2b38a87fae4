(* Tests for the dependency-aware parallel apply scheduler: the
   [Op.footprint] conflict relation, the apply_threads knob validation,
   determinism of replica state across K and across identical runs, a
   forced same-key conflict chain that must serialize onto one thread,
   and a chaos run at K=4 with snapshots enabled. *)

open Hovercraft_sim
open Hovercraft_core
open Hovercraft_cluster
module Op = Hovercraft_apps.Op
module Kvstore = Hovercraft_apps.Kvstore
module Service = Hovercraft_apps.Service

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let params ?(apply_threads = 1) ~seed () =
  let p = Hnode.params ~mode:Hnode.Hover ~n:3 () in
  {
    p with
    Hnode.seed;
    features = { p.Hnode.features with Hnode.apply_threads };
  }

(* A write-heavy kv mix over a small key population: plenty of genuine
   key conflicts for the scheduler to order, alongside independent ops. *)
let kv_workload rng =
  let k = Printf.sprintf "user%06d" (Rng.int rng 500) in
  if Rng.bool rng 0.3 then Op.Kv (Kvstore.Get k)
  else Op.Kv (Kvstore.Put (k, "v"))

(* ------------------------------------------------------------------ *)
(* Conflict relation                                                   *)

let test_footprints () =
  check "nop commutes" true (Op.footprint Op.Nop = Op.Fp_none);
  check "kv put keyed" true
    (Op.footprint (Op.Kv (Kvstore.Put ("k", "v"))) = Op.Fp_key "k");
  check "kv get keyed" true
    (Op.footprint (Op.Kv (Kvstore.Get "k")) = Op.Fp_key "k");
  check "synth read commutes" true
    (Op.footprint
       (Op.Synth
          { cost = Timebase.us 1; read_only = true; req_bytes = 8; rep_bytes = 8 })
    = Op.Fp_none);
  check "synth write is global" true
    (Op.footprint
       (Op.Synth
          {
            cost = Timebase.us 1;
            read_only = false;
            req_bytes = 8;
            rep_bytes = 8;
          })
    = Op.Fp_global);
  check "prune is global" true
    (Op.footprint (Op.Prune { slots = 4; drop = [ 0 ] }) = Op.Fp_global)

let test_apply_threads_validation () =
  let raises p = try Hnode.validate_params p; false with Invalid_argument _ -> true in
  let with_k k =
    let p = Hnode.params ~mode:Hnode.Hover ~n:3 () in
    { p with Hnode.features = { p.Hnode.features with Hnode.apply_threads = k } }
  in
  check "k=0 rejected" true (raises (with_k 0));
  check "k=65 rejected" true (raises (with_k 65));
  check "k=1 accepted" true (not (raises (with_k 1)));
  check "k=8 accepted" true (not (raises (with_k 8)))

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)

(* Run the same offered load against a fresh deployment and return the
   per-replica application fingerprints after a full quiesce. *)
let fingerprints ~apply_threads ~seed =
  let p = params ~apply_threads ~seed () in
  let deploy = Deploy.create (Deploy.config p) in
  let gen =
    Loadgen.create deploy ~clients:8 ~rate_rps:80_000. ~workload:kv_workload
      ~seed ()
  in
  ignore (Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 300) ());
  Deploy.quiesce deploy ~extra:(Timebase.ms 100) ();
  ( Array.map Hnode.app_fingerprint deploy.Deploy.nodes,
    Array.map Hnode.executed_ops deploy.Deploy.nodes )

let all_equal a = Array.for_all (fun x -> x = a.(0)) a

(* The scheduler's determinism contract: parallelism lives only in the
   CPU timing model, never in mutation order, so (a) replicas of one K=4
   deployment end byte-identical, (b) two identical K=4 runs reproduce
   each other exactly, and (c) K does not change the final state at all
   — K=1 and K=4 converge to the same fingerprint under the same
   arrivals. *)
let test_determinism_across_runs_and_k () =
  let fp1, _ = fingerprints ~apply_threads:1 ~seed:19 in
  let fp4, ex4 = fingerprints ~apply_threads:4 ~seed:19 in
  let fp4', ex4' = fingerprints ~apply_threads:4 ~seed:19 in
  check "K=4 replicas agree" true (all_equal fp4);
  check "K=4 replays byte-identically" true (fp4 = fp4' && ex4 = ex4');
  check "K=1 replicas agree" true (all_equal fp1);
  (* Note: executed-op counts are NOT compared across K — reply-load-
     balanced reads execute at whichever replica the balancer picks, and
     that pick depends on apply timing. The store digest is what the
     protocol promises, and it must not move. *)
  check "state independent of K" true (fp1.(0) = fp4.(0))

(* ------------------------------------------------------------------ *)
(* Conflict chain                                                      *)

(* Every op writes the same key, so every op carries the same footprint:
   the scheduler must funnel the entire chain through one thread — the
   other K-1 app CPUs stay essentially idle (the only stray work is the
   term-opening noop, which round-robins). *)
let test_same_key_chain_serializes () =
  let p = params ~apply_threads:4 ~seed:3 () in
  let deploy = Deploy.create (Deploy.config p) in
  let workload _rng = Op.Kv (Kvstore.Put ("hotkey", "v")) in
  let gen =
    Loadgen.create deploy ~clients:4 ~rate_rps:60_000. ~workload ~seed:3 ()
  in
  let r = Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 200) () in
  Deploy.quiesce deploy ();
  check "made progress" true (r.Loadgen.completed > 1_000);
  Array.iter
    (fun n ->
      check_int "four app threads" 4 (Hnode.apply_threads n);
      let bt = Hnode.apply_busy_times n in
      let total = Array.fold_left ( + ) 0 bt in
      let busiest = Array.fold_left max 0 bt in
      check "chain executed" true (total > 0);
      if float_of_int busiest < 0.99 *. float_of_int total then
        Alcotest.failf "node %d: conflict chain spread across threads (%d/%d)"
          (Hnode.id n) busiest total)
    deploy.Deploy.nodes

(* Disjoint keys at K=4 actually spread: more than one thread accrues
   busy time on every replica (the speedup mechanism, not just its
   absence of harm). *)
let test_disjoint_keys_spread () =
  let p = params ~apply_threads:4 ~seed:7 () in
  let deploy = Deploy.create (Deploy.config p) in
  let gen =
    Loadgen.create deploy ~clients:8 ~rate_rps:80_000. ~workload:kv_workload
      ~seed:7 ()
  in
  ignore (Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 200) ());
  Deploy.quiesce deploy ();
  Array.iter
    (fun n ->
      let active =
        Array.fold_left
          (fun acc b -> if b > 0 then acc + 1 else acc)
          0 (Hnode.apply_busy_times n)
      in
      check "work spread across threads" true (active >= 2))
    deploy.Deploy.nodes

(* ------------------------------------------------------------------ *)
(* Chaos at K=4                                                        *)

(* Random kill/restart/partition churn with snapshots and the parallel
   scheduler enabled: checkpoints quiesce the threads (barrier), installs
   land on nodes whose dispatch pointer may be mid-flight, and the
   snapshot-aware history checker must still find nothing. *)
let test_chaos_k4_with_snapshots () =
  let p = Hnode.params ~mode:Hnode.Hover_pp ~n:5 () in
  let p =
    {
      p with
      Hnode.features =
        { p.Hnode.features with Hnode.bound = 32; apply_threads = 4 };
    }
  in
  let o =
    Chaos.run ~params:p ~rate_rps:40_000.
      ~duration:(Timebase.ms 700) ~snapshots:400 ~workload:kv_workload ~seed:23
      ()
  in
  Alcotest.(check (list string)) "no checker violations" [] o.Chaos.verdict.Chaos.violations;
  check "exactly once" true o.Chaos.verdict.Chaos.exactly_once_ok;
  check "committed preserved" true o.Chaos.verdict.Chaos.committed_preserved;
  check "caught up" true o.Chaos.verdict.Chaos.caught_up;
  check "consistent" true o.Chaos.verdict.Chaos.consistent;
  check "compaction ran" true (o.Chaos.max_log_base > 0)

let suite =
  [
    Alcotest.test_case "op footprints" `Quick test_footprints;
    Alcotest.test_case "apply_threads validation" `Quick
      test_apply_threads_validation;
    Alcotest.test_case "determinism across runs and K" `Slow
      test_determinism_across_runs_and_k;
    Alcotest.test_case "same-key chain serializes" `Quick
      test_same_key_chain_serializes;
    Alcotest.test_case "disjoint keys spread" `Quick test_disjoint_keys_spread;
    Alcotest.test_case "chaos at K=4 with snapshots" `Slow
      test_chaos_k4_with_snapshots;
  ]
