(* Backend regression coverage.

   The ordering-backend extraction must be invisible to the Raft path:
   seeded runs must produce byte-identical replica state (fingerprints,
   execution counters, committed log shape) to the pre-refactor tree at
   every (mode, net_stages, apply_threads) combination. The constants in
   [baseline] were captured on the tree immediately before the ordering
   interface landed; this suite replays the same runs and compares. *)

open Hovercraft_sim
open Hovercraft_core
open Hovercraft_cluster
module Op = Hovercraft_apps.Op
module Kvstore = Hovercraft_apps.Kvstore

let check = Alcotest.(check bool)

(* Same mixed kv load the pipeline/apply determinism tests use: reads,
   writes, genuine key conflicts over a small population. *)
let kv_workload rng =
  let k = Printf.sprintf "user%06d" (Rng.int rng 500) in
  if Rng.bool rng 0.3 then Op.Kv (Kvstore.Get k)
  else Op.Kv (Kvstore.Put (k, "v"))

type combo = {
  mode : Hnode.mode;
  stages : int;
  threads : int;
  seed : int;
}

let combos =
  [
    { mode = Hnode.Hover; stages = 1; threads = 1; seed = 7 };
    { mode = Hnode.Hover; stages = 2; threads = 2; seed = 7 };
    { mode = Hnode.Hover; stages = 4; threads = 4; seed = 7 };
    { mode = Hnode.Hover_pp; stages = 1; threads = 1; seed = 19 };
    { mode = Hnode.Hover_pp; stages = 4; threads = 2; seed = 19 };
    { mode = Hnode.Vanilla; stages = 1; threads = 1; seed = 23 };
  ]

let run_combo { mode; stages; threads; seed } =
  let p = Hnode.params ~mode ~n:3 () in
  let p =
    {
      p with
      Hnode.seed;
      features =
        { p.Hnode.features with Hnode.net_stages = stages; apply_threads = threads };
    }
  in
  let deploy = Deploy.create (Deploy.config p) in
  let gen =
    Loadgen.create deploy ~clients:8 ~rate_rps:80_000. ~workload:kv_workload
      ~seed:(seed + 7) ()
  in
  ignore (Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 200) ());
  Deploy.quiesce deploy ~extra:(Timebase.ms 100) ();
  let digest =
    Array.to_list deploy.Deploy.nodes
    |> List.map (fun n ->
           ( Hnode.app_fingerprint n,
             Hnode.executed_ops n,
             Hnode.commit_index n,
             Hnode.log_length n ))
  in
  digest

let show_digest d =
  String.concat ";"
    (List.map
       (fun (fp, ex, ci, ll) -> Printf.sprintf "(%d,%d,%d,%d)" fp ex ci ll)
       d)

(* Captured pre-refactor (see header). An empty list prints the live
   values instead of comparing, which is how the constants were minted. *)
let baseline : (string * string) list =
  [
    ("hovercraft/S1/K1/seed7", "(184613487,13602,16236,16236);(184613487,12752,16236,16236);(184613487,12773,16236,16236)");
    ("hovercraft/S2/K2/seed7", "(184613487,13615,16236,16236);(184613487,12745,16236,16236);(184613487,12767,16236,16236)");
    ("hovercraft/S4/K4/seed7", "(184613487,13624,16236,16236);(184613487,12747,16236,16236);(184613487,12756,16236,16236)");
    ("hovercraft++/S1/K1/seed19", "(184613487,13423,16079,16079);(184613487,12405,16079,16079);(184613487,12784,16079,16079)");
    ("hovercraft++/S4/K2/seed19", "(184613487,13467,16079,16079);(184613487,12399,16079,16079);(184613487,12746,16079,16079)");
    ("vanilla-raft/S1/K1/seed23", "(184613487,15939,15940,15940);(184613487,11151,15940,15940);(184613487,11151,15940,15940)");
  ]

let combo_name { mode; stages; threads; seed } =
  Format.asprintf "%a/S%d/K%d/seed%d" Hnode.pp_mode mode stages threads seed

let test_fingerprints () =
  let missing = ref false in
  List.iter
    (fun c ->
      let name = combo_name c in
      let got = show_digest (run_combo c) in
      match List.assoc_opt name baseline with
      | Some want -> check ("byte-identical: " ^ name) true (got = want)
      | None ->
          Printf.eprintf "    (%S, %S);\n%!" name got;
          missing := true)
    combos;
  if !missing then Alcotest.fail "baseline entries missing (printed above)"

(* --- rabia backend ---------------------------------------------------- *)

let rabia_params ?(seed = 11) ?(n = 3) () =
  let p = Hnode.params ~mode:Hnode.Hover ~backend:Hnode.Rabia ~n () in
  { p with Hnode.seed }

let test_rabia_smoke () =
  let deploy = Deploy.create (Deploy.config (rabia_params ())) in
  let gen =
    Loadgen.create deploy ~clients:8 ~rate_rps:60_000. ~workload:kv_workload
      ~seed:29 ()
  in
  let report = Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 100) () in
  Deploy.quiesce deploy ~extra:(Timebase.ms 100) ();
  check "rabia cluster completes requests" true (report.Loadgen.completed > 0);
  check "replicas converge to one fingerprint" true (Deploy.consistent deploy);
  Array.iter
    (fun node ->
      check "commit reaches the common log length" true
        (Hnode.commit_index node = Hnode.log_length node);
      check "no node thinks it leads" false (Hnode.is_leader node))
    deploy.Deploy.nodes

(* Byte-determinism: the rabia backend must be as replayable as raft —
   same seed, same run, same per-node digests. *)
let run_rabia ~seed ~stages ~threads =
  let p = rabia_params ~seed () in
  let p =
    {
      p with
      Hnode.features =
        { p.Hnode.features with Hnode.net_stages = stages; apply_threads = threads };
    }
  in
  let deploy = Deploy.create (Deploy.config p) in
  let gen =
    Loadgen.create deploy ~clients:8 ~rate_rps:60_000. ~workload:kv_workload
      ~seed:(seed + 7) ()
  in
  ignore (Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 100) ());
  Deploy.quiesce deploy ~extra:(Timebase.ms 100) ();
  Array.to_list deploy.Deploy.nodes
  |> List.map (fun n ->
         ( Hnode.app_fingerprint n,
           Hnode.executed_ops n,
           Hnode.commit_index n,
           Hnode.log_length n ))

let test_rabia_deterministic () =
  let a = run_rabia ~seed:11 ~stages:1 ~threads:1 in
  let b = run_rabia ~seed:11 ~stages:1 ~threads:1 in
  check "seeded rabia runs replay byte-identically" true
    (show_digest a = show_digest b);
  let c = run_rabia ~seed:13 ~stages:1 ~threads:1 in
  check "different seed, different run" false (show_digest a = show_digest c)

(* Replica state must not depend on the hot-path compartmentalization or
   the apply-thread count under the rabia backend either. *)
let test_rabia_stage_thread_invariance () =
  let base = run_rabia ~seed:11 ~stages:1 ~threads:1 in
  let fp (f, _, ci, ll) = (f, ci, ll) in
  List.iter
    (fun (stages, threads) ->
      let d = run_rabia ~seed:11 ~stages ~threads in
      check
        (Printf.sprintf "state invariant at S%d/K%d" stages threads)
        true
        (List.map fp d = List.map fp base))
    [ (2, 2); (4, 4) ]

(* --- cross-backend equivalence ---------------------------------------- *)

(* The same seeded workload and the same seeded fault schedule, replayed
   against each backend; both must pass the full history checker
   (exactly-once, prefix agreement, committed-stays-committed, catch-up,
   consistency). Under rabia, kill-leader degrades to killing the first
   live node (a "coordinator kill") and membership/transfer events skip
   with a timeline note. *)
let chaos_outcome ~backend ~seed ?snapshots () =
  let p = Hnode.params ~mode:Hnode.Hover ~backend ~n:5 () in
  Chaos.run ~params:p ~rate_rps:40_000.
    ~duration:(Timebase.ms 700) ?snapshots ~workload:kv_workload ~seed ()

let assert_clean name (o : Chaos.outcome) =
  Alcotest.(check (list string))
    (name ^ ": no checker violations")
    [] o.Chaos.verdict.Chaos.violations;
  check (name ^ ": exactly once") true o.Chaos.verdict.Chaos.exactly_once_ok;
  check (name ^ ": committed preserved") true o.Chaos.verdict.Chaos.committed_preserved;
  check (name ^ ": caught up") true o.Chaos.verdict.Chaos.caught_up;
  check (name ^ ": consistent") true o.Chaos.verdict.Chaos.consistent;
  check (name ^ ": progress") true (o.Chaos.report.Loadgen.completed > 0)

let test_cross_backend_chaos () =
  List.iter
    (fun seed ->
      assert_clean
        (Printf.sprintf "raft/seed%d" seed)
        (chaos_outcome ~backend:Hnode.Raft ~seed ());
      assert_clean
        (Printf.sprintf "rabia/seed%d" seed)
        (chaos_outcome ~backend:Hnode.Rabia ~seed ()))
    [ 31; 57 ]

(* Compaction era: rabia must survive chaos with aggressive checkpointing,
   where restarted nodes come back through whole-image installs and the
   snapshot-aware checker runs. *)
let test_rabia_snapshot_chaos () =
  assert_clean "rabia/snapshots"
    (chaos_outcome ~backend:Hnode.Rabia ~seed:41 ~snapshots:400 ())

(* --- invalid combinations --------------------------------------------- *)

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_rabia_invalid_combos () =
  (* Backend-inapplicable knobs die at validation, with a message naming
     the conflict. *)
  expect_invalid "rabia+vanilla" (fun () ->
      Hnode.validate_params (Hnode.params ~mode:Hnode.Vanilla ~backend:Hnode.Rabia ()));
  expect_invalid "rabia+hover++" (fun () ->
      Hnode.validate_params (Hnode.params ~mode:Hnode.Hover_pp ~backend:Hnode.Rabia ()));
  expect_invalid "rabia+unreplicated" (fun () ->
      Hnode.validate_params
        (Hnode.params ~mode:Hnode.Unreplicated ~backend:Hnode.Rabia ()));
  expect_invalid "rabia+leases" (fun () ->
      let p = rabia_params () in
      Hnode.validate_params
        {
          p with
          Hnode.features =
            { p.Hnode.features with Hnode.read_mode = Hnode.Leader_leases };
        });
  (* Leader-shaped control surfaces are rejected, not silently ignored. *)
  let deploy = Deploy.create (Deploy.config (rabia_params ())) in
  expect_invalid "reconfig under rabia" (fun () ->
      Deploy.remove_node deploy 2);
  expect_invalid "add_node under rabia" (fun () -> Deploy.add_node deploy);
  expect_invalid "transfer under rabia" (fun () ->
      Hnode.transfer_leadership deploy.Deploy.nodes.(0) ~target:1);
  (* The error text names the offending combination (the CLI surfaces it
     verbatim). *)
  match
    Hnode.validate_params (Hnode.params ~mode:Hnode.Vanilla ~backend:Hnode.Rabia ())
  with
  | exception Invalid_argument msg ->
      check "message names the backend conflict" true
        (contains ~needle:"rabia" msg && contains ~needle:"hovercraft" msg)
  | _ -> Alcotest.fail "expected Invalid_argument"

let suite =
  [
    ("raft backend byte-identical to pre-refactor seeds", `Slow, test_fingerprints);
    ("rabia backend smoke (agreement + convergence)", `Quick, test_rabia_smoke);
    ("rabia backend deterministic replay", `Slow, test_rabia_deterministic);
    ("rabia state invariant across stages/threads", `Slow, test_rabia_stage_thread_invariance);
    ("backend-inapplicable knob combinations rejected", `Quick, test_rabia_invalid_combos);
    ("cross-backend chaos equivalence", `Slow, test_cross_backend_chaos);
    ("rabia chaos with snapshots", `Slow, test_rabia_snapshot_chaos);
  ]
