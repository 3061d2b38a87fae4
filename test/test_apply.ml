(* Tests for the dependency-aware parallel apply scheduler: the
   [Op.footprint] conflict relation, the apply_threads knob validation,
   determinism of replica state across K and across identical runs, a
   forced same-key conflict chain that must serialize onto one thread,
   a chaos run at K=4 with snapshots enabled, and the apply layer's
   execute-or-replay decisions as a function of the log alone. *)

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

(* --- the apply layer: same log, same decisions --------------------- *)

(* One generated log entry. Ids come from a small pool, so duplicates
   land both inside and beyond the retention window; stamps jitter below
   the running clock (another replica's stamp under a leaderless
   backend); Merges seed records, some of them already older than the
   window; internal entries carry no stamp. [runs_reads] is the caller's
   role, the same in both runs. *)
type log_entry = {
  e_rid : int;
  e_op : [ `Push of int | `Len of int | `Merge of (int * int) list | `Internal ];
  e_stamp : int;
  e_runs_reads : bool;
}

(* What a run does after applying an entry, besides applying the next. *)
type fault = Expire | Cut | Round_trip | Restart | Redispatch of int

let apply_window = 50
let pool = 6
let log_rid i = { Hovercraft_r2p2.R2p2.id = i; src_addr = Hovercraft_net.Addr.Client 0; src_port = 1 }

let merge_chunk =
  let kv = Kvstore.create () in
  ignore (Kvstore.execute kv (Kvstore.Put ("merged", "v")));
  Kvstore.snapshot kv

let log_gen =
  let open QCheck.Gen in
  let entry =
    let* e_rid = int_bound (pool - 1) and* e_runs_reads = bool in
    let* e_op =
      frequency
        [
          (5, map (fun k -> `Push k) (int_bound 2));
          (2, map (fun k -> `Len k) (int_bound 2));
          (1, map (fun l -> `Merge l)
               (list_size (int_range 1 3) (pair (int_bound (pool - 1)) (int_bound 90))));
          (1, return `Internal);
        ]
    in
    (* The stamp's step from the last one: mostly forward, sometimes far
       past the window, sometimes behind. *)
    let* step = frequency [ (6, int_range 0 12); (1, int_range 40 80); (2, int_range (-40) (-1)) ] in
    return (e_rid, e_op, step, e_runs_reads)
  in
  let* raw = list_size (int_range 1 120) entry in
  let _, log =
    List.fold_left
      (fun (base, acc) (e_rid, e_op, step, e_runs_reads) ->
        let base = Int.max 0 (base + step) in
        let e_stamp = if e_op = `Internal then 0 else base in
        (base, { e_rid; e_op; e_stamp; e_runs_reads } :: acc))
      (100, []) raw
  in
  let n = List.length log in
  let faults =
    list_size (int_range 0 12)
      (pair (int_bound (n - 1))
         (frequency
            [
              (2, return Expire);
              (1, return Cut);
              (1, return Round_trip);
              (1, return Restart);
              (2, map (fun k -> Redispatch k) (int_range 1 8));
            ]))
  in
  let* fa = faults and* fb = faults in
  return (Array.of_list (List.rev log), fa, fb)

let pp_entry i e =
  Printf.sprintf "%d:%s rid%d@%d%s" (i + 1)
    (match e.e_op with
    | `Push k -> Printf.sprintf "push%d" k
    | `Len k -> Printf.sprintf "len%d" k
    | `Merge l ->
        "merge[" ^ String.concat "," (List.map (fun (i, b) -> Printf.sprintf "%d-%d" i b) l) ^ "]"
    | `Internal -> "internal")
    e.e_rid e.e_stamp
    (if e.e_runs_reads then "" else " noreads")

let pp_faults l =
  String.concat ","
    (List.map
       (fun (i, f) ->
         Printf.sprintf "%s@%d"
           (match f with
           | Expire -> "expire"
           | Cut -> "cut"
           | Round_trip -> "round-trip"
           | Restart -> "restart"
           | Redispatch k -> Printf.sprintf "redispatch%d" k)
           (i + 1))
       l)

let log_arb =
  QCheck.make log_gen ~print:(fun (log, fa, fb) ->
      String.concat "; " (Array.to_list (Array.mapi pp_entry log))
      ^ "\nrun a: " ^ pp_faults fa ^ "\nrun b: " ^ pp_faults fb)

let apply_entry st i e =
  let op =
    match e.e_op with
    | `Push k -> Op.Kv (Kvstore.Rpush (Printf.sprintf "k%d" k, "x"))
    | `Len k -> Op.Kv (Kvstore.Llen (Printf.sprintf "k%d" k))
    | `Merge seeds ->
        Op.Merge
          {
            chunk = merge_chunk;
            completions =
              List.map
                (fun (i, back) ->
                  { Op.c_rid = log_rid i; c_result = Op.Done; c_at = e.e_stamp - back })
                seeds;
          }
    | `Internal -> Op.Nop
  in
  Option.map fst
    (Apply.apply st ~index:(i + 1) ~runs_reads:e.e_runs_reads
       ~internal:(e.e_op = `Internal) ~rid:(log_rid e.e_rid) ~read_only:(Op.read_only op)
       ~ordered_at:e.e_stamp op)

(* Apply the whole log, with [faults] falling after the entries they
   name: a physical expiry, a checkpoint cut, a cut installed straight
   back into the running state, a restart that rebuilds the state from
   the newest cut (empty when there is none) and re-applies the log from
   there, or a restart that keeps the state and dispatches its last [k]
   entries again (the consensus layer's applied index trails the
   state's). Returns the state and each entry's result, as its first
   dispatch on that state answered it. *)
let run log faults =
  let st = ref (Apply.create ~window:apply_window ()) in
  let results = Array.make (Array.length log) None in
  let cut = ref None in
  let replay lo hi = for i = lo to hi do results.(i) <- apply_entry !st i log.(i) done in
  Array.iteri
    (fun i e ->
      results.(i) <- apply_entry !st i e;
      List.iter
        (fun (at, f) ->
          if at = i then
            match (f, !cut) with
            | Expire, _ -> Apply.expire !st
            | Cut, _ -> cut := Some (i, Apply.image !st)
            | Round_trip, _ -> Apply.install !st (Apply.image !st)
            | Restart, None ->
                st := Apply.create ~window:apply_window ();
                replay 0 i
            | Restart, Some (c, image) ->
                st := Apply.create ~window:apply_window ();
                Apply.install !st image;
                replay (c + 1) i
            | Redispatch k, _ ->
                for j = Int.max 0 (i - k + 1) to i do
                  ignore (apply_entry !st j log.(j))
                done)
        faults)
    log;
  (!st, results)

(* Two faulty runs and the uninterrupted one agree on everything: a
   re-dispatched read never runs again, and a re-dispatched write never
   executes twice. *)
let prop_same_log_same_decisions =
  QCheck.Test.make ~name:"same log, same decisions, wherever expiry and checkpoints fall"
    ~count:500 log_arb (fun (log, fa, fb) ->
      let c, rc = run log [] in
      List.iter
        (fun (name, faults) ->
          let a, ra = run log faults in
          let same what x y =
            if x <> y then QCheck.Test.fail_reportf "run %s: %s differ" name what
          in
          Array.iteri (fun i r -> same (Printf.sprintf "results at %d" (i + 1)) r rc.(i)) ra;
          same "fingerprints" (Op.fingerprint (Apply.state a)) (Op.fingerprint (Apply.state c));
          same "executed counts" (Op.executed (Apply.state a)) (Op.executed (Apply.state c));
          same "live records" (Apply.records a) (Apply.records c);
          same "log clocks" (Apply.clock a) (Apply.clock c);
          same "applied indices" (Apply.index a) (Apply.index c))
        [ ("a", fa); ("b", fb) ];
      true)

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
    QCheck_alcotest.to_alcotest prop_same_log_same_decisions;
  ]
