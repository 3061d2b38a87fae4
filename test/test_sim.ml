(* Tests for the discrete-event substrate: heap, engine, rng, dist, stats,
   series. *)

open Hovercraft_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- heap ---------------------------------------------------------- *)

let test_heap_order () =
  let h = Heap.create () in
  List.iteri (fun i k -> Heap.push h ~key:k ~seq:i i) [ 5; 1; 4; 1; 3 ];
  let popped = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (k, _, _) ->
        popped := k :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 1; 3; 4; 5 ] (List.rev !popped)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~key:7 ~seq:i i
  done;
  for i = 0 to 9 do
    match Heap.pop h with
    | Some (_, _, v) -> check_int "FIFO at equal keys" i v
    | None -> Alcotest.fail "heap empty early"
  done

let test_heap_growth_and_clear () =
  let h = Heap.create ~capacity:4 () in
  for i = 0 to 999 do
    Heap.push h ~key:(999 - i) ~seq:i i
  done;
  check_int "length" 1000 (Heap.length h);
  Alcotest.(check (option int)) "peek" (Some 0) (Heap.peek_key h);
  Heap.clear h;
  check "empty after clear" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 200) small_int)
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:k ~seq:i k) keys;
      let rec drain last =
        match Heap.pop h with
        | None -> true
        | Some (k, _, _) -> k >= last && drain k
      in
      drain min_int)

(* Interleaved pushes (few distinct keys, so many ties) and pops against
   a sorted-list model: every pop, through [pop] or through
   [min_key]/[pop_min], yields the least (key, seq) pair. *)
let prop_heap_key_seq_order =
  QCheck.Test.make ~name:"heap pops in (key, seq) order via pop and pop_min"
    ~count:300
    QCheck.(pair bool (list_of_size (Gen.int_range 0 300) (option (int_bound 7))))
    (fun (via_pop_min, ops) ->
      let h = Heap.create ~capacity:4 () in
      let model = ref [] and seq = ref 0 in
      let pop_one () =
        if via_pop_min then begin
          let k = Heap.min_key h in
          let v = Heap.pop_min h in
          (k, v)
        end
        else
          match Heap.pop h with
          | Some (k, s, v) ->
              if s <> v then QCheck.Test.fail_reportf "seq %d carries value %d" s v;
              (k, v)
          | None -> QCheck.Test.fail_report "pop on a non-empty heap"
      in
      let check_pop () =
        match !model with
        | [] ->
            Heap.is_empty h && Heap.min_key h = max_int && Heap.pop h = None
        | (k, s) :: rest ->
            model := rest;
            Heap.peek_key h = Some k && pop_one () = (k, s)
      in
      List.for_all
        (function
          | Some k ->
              Heap.push h ~key:k ~seq:!seq !seq;
              model := List.merge compare !model [ (k, !seq) ];
              incr seq;
              Heap.length h = List.length !model
          | None -> check_pop ())
        ops
      && List.for_all (fun _ -> check_pop ()) !model
      && Heap.is_empty h)

(* --- engine -------------------------------------------------------- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let order = ref [] in
  Engine.at e 30 (fun () -> order := 3 :: !order);
  Engine.at e 10 (fun () -> order := 1 :: !order);
  Engine.at e 20 (fun () -> order := 2 :: !order);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !order);
  check_int "clock at last event" 30 (Engine.now e)

let test_engine_fifo_same_instant () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 0 to 4 do
    Engine.at e 5 (fun () -> order := i :: !order)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "insertion order" [ 0; 1; 2; 3; 4 ] (List.rev !order)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.at e 10 (fun () -> incr fired);
  Engine.at e 100 (fun () -> incr fired);
  Engine.run ~until:50 e;
  check_int "only first fired" 1 !fired;
  check_int "clock moved to horizon" 50 (Engine.now e);
  Engine.run e;
  check_int "rest fired" 2 !fired

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let timer = Engine.timer_after e 10 (fun () -> fired := true) in
  Engine.cancel timer;
  Engine.run e;
  check "cancelled timer silent" false !fired

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let hits = ref [] in
  Engine.at e 1 (fun () ->
      hits := Engine.now e :: !hits;
      Engine.after e 5 (fun () -> hits := Engine.now e :: !hits));
  Engine.run e;
  Alcotest.(check (list int)) "nested event at now+5" [ 1; 6 ] (List.rev !hits)

let test_engine_past_rejected () =
  let e = Engine.create () in
  Engine.at e 10 (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.at: time 5 is before now 10") (fun () ->
      Engine.at e 5 ignore)

let test_engine_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.at e i (fun () ->
        incr count;
        if !count = 3 then Engine.stop e)
  done;
  Engine.run e;
  check_int "stopped after third" 3 !count;
  Engine.run e;
  check_int "resumable" 10 !count

(* --- rng ------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check "same stream" true (Rng.int64 a = Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  check "split differs from parent continuation" true (Rng.int64 a <> Rng.int64 c)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_float_unit_interval () =
  let rng = Rng.create 13 in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    check "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_rng_uniformity_rough () =
  let rng = Rng.create 17 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter (fun c -> check "roughly uniform" true (c > 800 && c < 1200)) buckets

(* --- dist ----------------------------------------------------------- *)

let sample_mean dist seed n =
  let rng = Rng.create seed in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. float_of_int (Dist.sample dist rng)
  done;
  !sum /. float_of_int n

let test_dist_fixed () =
  let rng = Rng.create 1 in
  for _ = 1 to 10 do
    check_int "fixed is constant" 1000 (Dist.sample (Dist.Fixed 1000) rng)
  done

let test_dist_exponential_mean () =
  let m = sample_mean (Dist.Exponential 10_000) 3 50_000 in
  check "exp mean within 3%" true (abs_float (m -. 10_000.) < 300.)

let test_dist_bimodal_modes () =
  let short, long =
    Dist.bimodal_modes ~mean:10_000 ~long_fraction:0.1 ~ratio:10.
  in
  (* 0.9*s + 0.1*10*s = 10us -> s = 10/1.9 us *)
  check "short mode" true (abs_float (short -. 5263.16) < 1.);
  check "long = 10x short" true (abs_float (long -. (10. *. short)) < 0.001)

let test_dist_bimodal_mean () =
  let d = Dist.Bimodal { mean = 10_000; long_fraction = 0.1; ratio = 10. } in
  let m = sample_mean d 5 50_000 in
  check "bimodal empirical mean within 3%" true (abs_float (m -. 10_000.) < 300.)

let test_dist_uniform_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Dist.sample (Dist.Uniform (100, 200)) rng in
    check "uniform in range" true (v >= 100 && v <= 200)
  done

(* --- stats ---------------------------------------------------------- *)

let test_stats_percentiles_exact () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s i
  done;
  check_int "p50" 50 (Stats.percentile s 0.5);
  check_int "p99" 99 (Stats.percentile s 0.99);
  check_int "p100" 100 (Stats.percentile s 1.0);
  check_int "max" 100 (Stats.max_sample s);
  check "mean" true (abs_float (Stats.mean s -. 50.5) < 0.001)

(* Nearest-rank edge cases (the double-rounding regression): p=1.0 must
   select the last live sample — never index past the window — and p=0.0
   the first, including on single-sample recorders. *)
let test_stats_percentile_edges () =
  let s = Stats.create () in
  Stats.add s 42;
  check_int "size-1 p0" 42 (Stats.percentile s 0.0);
  check_int "size-1 p50" 42 (Stats.percentile s 0.5);
  check_int "size-1 p100" 42 (Stats.percentile s 1.0);
  (* Sizes where [p * size] lands just above/below an integer in float:
     a second rounding of the ceiled product can push the rank to
     [size + 1]. Every p in (0, 1] must stay in bounds and p=1 must be
     the maximum. *)
  for n = 1 to 64 do
    let s = Stats.create () in
    for i = 1 to n do
      Stats.add s i
    done;
    check_int (Printf.sprintf "p100 of %d" n) n (Stats.percentile s 1.0);
    check_int (Printf.sprintf "p0 of %d" n) 1 (Stats.percentile s 0.0);
    check_int
      (Printf.sprintf "p(1-eps) of %d" n)
      n
      (Stats.percentile s (1. -. epsilon_float))
  done

let test_stats_unsorted_input () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 9; 1; 5; 3; 7 ];
  check_int "p50 of odd set" 5 (Stats.percentile s 0.5)

let test_stats_empty_raises () =
  let s = Stats.create () in
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.percentile: empty recorder") (fun () ->
      ignore (Stats.percentile s 0.5))

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1; 2; 3 ];
  List.iter (Stats.add b) [ 4; 5; 6 ];
  let m = Stats.merge a b in
  check_int "merged count" 6 (Stats.count m);
  check_int "merged p100" 6 (Stats.percentile m 1.0)

let prop_stats_percentile_matches_sort =
  QCheck.Test.make ~name:"nearest-rank percentile equals sorted reference"
    ~count:300
    QCheck.(
      pair (list_of_size (Gen.int_range 1 300) (int_range 0 10_000)) (float_range 0.01 1.0))
    (fun (samples, p) ->
      let s = Stats.create () in
      List.iter (Stats.add s) samples;
      let sorted = List.sort compare samples |> Array.of_list in
      let n = Array.length sorted in
      let rank = int_of_float (ceil (p *. float_of_int n)) in
      let expected = sorted.(max 0 (min (n - 1) (rank - 1))) in
      Stats.percentile s p = expected)

(* Every rank of the sorted samples, over values the radix sort must get
   right: zeros, duplicates, keys using the top bits, and negatives,
   which take the comparison sort. Samples come in two batches, each
   followed by a full read, so the second sort starts from a sorted
   prefix. *)
let stats_sample_gen =
  let open QCheck.Gen in
  frequency
    [
      (2, return 0);
      (3, int_range 0 8);
      (3, int_range 0 1_000_000);
      (2, map (fun d -> max_int - d) (int_range 0 3));
      (2, map (fun k -> 1 lsl k) (int_range 0 61));
      (2, map (fun x -> x land max_int) int);
      (1, int_range (-1000) (-1));
      (1, return min_int);
    ]

let prop_stats_every_rank_matches_sort =
  QCheck.Test.make ~name:"every percentile rank equals List.sort compare" ~count:300
    QCheck.(
      make
        ~print:Print.(pair (list int) (list int))
        Gen.(pair (list_size (int_range 1 400) stats_sample_gen)
               (list_size (int_range 0 400) stats_sample_gen)))
    (fun (first, second) ->
      let s = Stats.create () in
      let agrees samples =
        let sorted = Array.of_list (List.sort compare samples) in
        let n = Array.length sorted in
        Array.for_all Fun.id
          (Array.init n (fun k ->
               Stats.percentile s ((float_of_int k +. 0.5) /. float_of_int n) = sorted.(k)))
      in
      List.iter (Stats.add s) first;
      let ok = agrees first in
      List.iter (Stats.add s) second;
      ok && agrees (first @ second))

let test_summary_welford () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check "mean" true (abs_float (Stats.Summary.mean s -. 5.) < 1e-9);
  check "stddev" true (abs_float (Stats.Summary.stddev s -. 2.13808993) < 1e-6)

(* --- series ---------------------------------------------------------- *)

let test_series_buckets () =
  let s = Series.create ~bucket:100 () in
  Series.add s ~at:10 5;
  Series.add s ~at:50 15;
  Series.add s ~at:150 25;
  Series.mark s ~at:160;
  let buckets = Series.buckets s in
  check_int "two buckets" 2 (List.length buckets);
  let b0 = List.nth buckets 0 and b1 = List.nth buckets 1 in
  check_int "bucket0 start" 0 b0.Series.start;
  check_int "bucket0 count" 2 b0.Series.count;
  check_int "bucket1 count includes marks" 2 b1.Series.count;
  Alcotest.(check (option int)) "bucket1 p99" (Some 25) b1.Series.p99

let test_series_empty () =
  let s = Series.create ~bucket:100 () in
  check_int "no buckets" 0 (List.length (Series.buckets s))

(* --- timebase -------------------------------------------------------- *)

let test_timebase_units () =
  check_int "us" 1_000 (Timebase.us 1);
  check_int "ms" 1_000_000 (Timebase.ms 1);
  check_int "s" 1_000_000_000 (Timebase.s 1);
  check_int "of_us_f rounds" 1_500 (Timebase.of_us_f 1.5);
  check "to_us_f" true (abs_float (Timebase.to_us_f 2_500 -. 2.5) < 1e-9)

(* Allocation regression: dispatching an event allocates nothing. The
   closures are preallocated and reschedule themselves, so a per-event
   wrapper record, a popped option/tuple or a peeked key option would
   each show up as words per event. *)
let test_engine_dispatch_allocation () =
  let e = Engine.create () in
  let events = 100_000 in
  let left = ref events in
  let rec tick () =
    decr left;
    if !left > 0 then Engine.after e 1 tick
  in
  for i = 1 to 64 do
    Engine.after e i tick
  done;
  (* Let the backing arrays reach their working size first. *)
  Engine.run ~until:64 e;
  let before = Gc.minor_words () in
  Engine.run e;
  let words = Gc.minor_words () -. before in
  check "every event ran" true (!left <= 0);
  if words >= float_of_int events then
    Alcotest.failf "engine dispatch allocates: %.0f minor words / %d events"
      words events

let suite =
  [
    Alcotest.test_case "heap pops in order" `Quick test_heap_order;
    Alcotest.test_case "heap FIFO on ties" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap grows and clears" `Quick test_heap_growth_and_clear;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_heap_key_seq_order;
    Alcotest.test_case "engine time ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine FIFO at same instant" `Quick
      test_engine_fifo_same_instant;
    Alcotest.test_case "engine run until" `Quick test_engine_until;
    Alcotest.test_case "engine timer cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine nested scheduling" `Quick test_engine_nested_scheduling;
    Alcotest.test_case "engine rejects past" `Quick test_engine_past_rejected;
    Alcotest.test_case "engine stop/resume" `Quick test_engine_stop;
    Alcotest.test_case "engine dispatch allocates nothing" `Quick
      test_engine_dispatch_allocation;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    QCheck_alcotest.to_alcotest prop_rng_int_bounds;
    Alcotest.test_case "rng float interval" `Quick test_rng_float_unit_interval;
    Alcotest.test_case "rng rough uniformity" `Quick test_rng_uniformity_rough;
    Alcotest.test_case "dist fixed" `Quick test_dist_fixed;
    Alcotest.test_case "dist exponential mean" `Quick test_dist_exponential_mean;
    Alcotest.test_case "dist bimodal modes" `Quick test_dist_bimodal_modes;
    Alcotest.test_case "dist bimodal mean" `Quick test_dist_bimodal_mean;
    Alcotest.test_case "dist uniform bounds" `Quick test_dist_uniform_bounds;
    Alcotest.test_case "stats exact percentiles" `Quick test_stats_percentiles_exact;
    Alcotest.test_case "stats percentile edges" `Quick test_stats_percentile_edges;
    Alcotest.test_case "stats unsorted input" `Quick test_stats_unsorted_input;
    Alcotest.test_case "stats empty raises" `Quick test_stats_empty_raises;
    Alcotest.test_case "stats merge" `Quick test_stats_merge;
    QCheck_alcotest.to_alcotest prop_stats_percentile_matches_sort;
    QCheck_alcotest.to_alcotest prop_stats_every_rank_matches_sort;
    Alcotest.test_case "summary welford" `Quick test_summary_welford;
    Alcotest.test_case "series buckets" `Quick test_series_buckets;
    Alcotest.test_case "series empty" `Quick test_series_empty;
    Alcotest.test_case "timebase units" `Quick test_timebase_units;
  ]
