(* Tests for the application layer: the Redis-like store, YCSB workloads,
   Zipf sampling, and the replicated operation wrapper. *)

open Hovercraft_sim
open Hovercraft_apps
module K = Kvstore

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- kvstore: strings ------------------------------------------------ *)

let test_kv_strings () =
  let s = K.create () in
  check "get missing" true (K.execute s (K.Get "a") = K.Value None);
  check "put" true (K.execute s (K.Put ("a", "1")) = K.Ok);
  check "get hit" true (K.execute s (K.Get "a") = K.Value (Some "1"));
  check "overwrite" true (K.execute s (K.Put ("a", "2")) = K.Ok);
  check "get new" true (K.execute s (K.Get "a") = K.Value (Some "2"));
  check "del" true (K.execute s (K.Del "a") = K.Count 1);
  check "del again" true (K.execute s (K.Del "a") = K.Count 0)

let test_kv_lists () =
  let s = K.create () in
  check "rpush" true (K.execute s (K.Rpush ("l", "a")) = K.Count 1);
  check "rpush 2" true (K.execute s (K.Rpush ("l", "b")) = K.Count 2);
  check "lpush" true (K.execute s (K.Lpush ("l", "z")) = K.Count 3);
  check "llen" true (K.execute s (K.Llen "l") = K.Count 3);
  check "lrange all" true
    (K.execute s (K.Lrange ("l", 0, -1)) = K.Values [ "z"; "a"; "b" ]);
  check "lrange clamp" true
    (K.execute s (K.Lrange ("l", 1, 100)) = K.Values [ "a"; "b" ]);
  check "lrange negative" true
    (K.execute s (K.Lrange ("l", -2, -1)) = K.Values [ "a"; "b" ]);
  check "lrange inverted empty" true (K.execute s (K.Lrange ("l", 2, 1)) = K.Values []);
  check "lrange missing key" true (K.execute s (K.Lrange ("nope", 0, -1)) = K.Values [])

let test_kv_hashes () =
  let s = K.create () in
  check "hset new" true (K.execute s (K.Hset ("h", "f1", "v1")) = K.Count 1);
  check "hset overwrite" true (K.execute s (K.Hset ("h", "f1", "v2")) = K.Count 0);
  check "hset second" true (K.execute s (K.Hset ("h", "f2", "x")) = K.Count 1);
  check "hget" true (K.execute s (K.Hget ("h", "f1")) = K.Value (Some "v2"));
  check "hget missing field" true (K.execute s (K.Hget ("h", "zz")) = K.Value None);
  check "hgetall sorted" true
    (K.execute s (K.Hgetall "h") = K.Values [ "f1"; "v2"; "f2"; "x" ])

let test_kv_sets () =
  let s = K.create () in
  check "sadd" true (K.execute s (K.Sadd ("s", "m1")) = K.Count 1);
  check "sadd dup" true (K.execute s (K.Sadd ("s", "m1")) = K.Count 0);
  check "sismember" true (K.execute s (K.Sismember ("s", "m1")) = K.Count 1);
  check "scard" true (K.execute s (K.Scard "s") = K.Count 1);
  check "srem" true (K.execute s (K.Srem ("s", "m1")) = K.Count 1);
  check "srem gone" true (K.execute s (K.Srem ("s", "m1")) = K.Count 0);
  check "scard empty" true (K.execute s (K.Scard "s") = K.Count 0)

let test_kv_wrong_type () =
  let s = K.create () in
  ignore (K.execute s (K.Put ("k", "v")));
  check "lpush on string" true (K.execute s (K.Lpush ("k", "x")) = K.Wrong_type);
  check "hget on string" true (K.execute s (K.Hget ("k", "f")) = K.Wrong_type);
  check "scan on string" true
    (K.execute s (K.Scan { thread = "k"; limit = 5 }) = K.Wrong_type);
  check "string survives" true (K.execute s (K.Get "k") = K.Value (Some "v"))

let record i = [ ("field0", Printf.sprintf "post-%d" i) ]

let test_kv_threads () =
  let s = K.create () in
  for i = 1 to 15 do
    check "insert ok" true
      (K.execute s (K.Insert { thread = "t"; record = record i }) = K.Ok)
  done;
  (match K.execute s (K.Scan { thread = "t"; limit = 10 }) with
  | K.Records rs ->
      check_int "scan capped at limit" 10 (List.length rs);
      (* Most recent first. *)
      check "newest first" true (List.hd rs = record 15)
  | _ -> Alcotest.fail "scan failed");
  (match K.execute s (K.Scan { thread = "t"; limit = 100 }) with
  | K.Records rs -> check_int "scan capped at size" 15 (List.length rs)
  | _ -> Alcotest.fail "scan failed");
  check "scan empty thread" true
    (K.execute s (K.Scan { thread = "none"; limit = 10 }) = K.Records [])

let test_kv_read_only_classification () =
  check "scan ro" true (K.is_read_only (K.Scan { thread = "t"; limit = 1 }));
  check "get ro" true (K.is_read_only (K.Get "k"));
  check "insert rw" false (K.is_read_only (K.Insert { thread = "t"; record = [] }));
  check "put rw" false (K.is_read_only (K.Put ("a", "b")));
  check "nop ro" true (K.is_read_only K.Nop)

let test_kv_fingerprint_determinism () =
  let run () =
    let s = K.create () in
    ignore (K.execute s (K.Put ("a", "1")));
    ignore (K.execute s (K.Rpush ("l", "x")));
    ignore (K.execute s (K.Insert { thread = "t"; record = record 1 }));
    K.fingerprint s
  in
  check "same ops same fingerprint" true (run () = run ())

let test_kv_fingerprint_sensitive () =
  let s1 = K.create () and s2 = K.create () in
  ignore (K.execute s1 (K.Put ("a", "1")));
  ignore (K.execute s2 (K.Put ("a", "2")));
  check "different values differ" false (K.fingerprint s1 = K.fingerprint s2)

(* Property: replaying the same random command sequence on two stores gives
   identical fingerprints (determinism, an SMR prerequisite), and read-only
   commands never change the fingerprint. *)
let gen_cmd =
  QCheck.Gen.(
    let key = map (Printf.sprintf "k%d") (int_range 0 5) in
    let value = map (Printf.sprintf "v%d") (int_range 0 20) in
    frequency
      [
        (3, map2 (fun k v -> K.Put (k, v)) key value);
        (2, map (fun k -> K.Get k) key);
        (1, map (fun k -> K.Del k) key);
        (2, map2 (fun k v -> K.Rpush (k, v)) key value);
        (1, map (fun k -> K.Lrange (k, 0, -1)) key);
        (2, map2 (fun k v -> K.Sadd (k, v)) key value);
        (1, map2 (fun k v -> K.Hset (k, v, v)) key value);
        ( 1,
          map2
            (fun k i -> K.Insert { thread = k; record = record i })
            key (int_range 0 100) );
        (1, map (fun k -> K.Scan { thread = k; limit = 5 }) key);
      ])

let prop_kv_deterministic =
  QCheck.Test.make ~name:"kvstore execution is deterministic" ~count:200
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 60) gen_cmd))
    (fun cmds ->
      let s1 = K.create () and s2 = K.create () in
      List.iter (fun c -> ignore (K.execute s1 c)) cmds;
      List.iter (fun c -> ignore (K.execute s2 c)) cmds;
      K.fingerprint s1 = K.fingerprint s2)

let prop_kv_ro_pure =
  QCheck.Test.make ~name:"read-only commands don't change the store" ~count:200
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 60) gen_cmd))
    (fun cmds ->
      let s = K.create () in
      List.iter (fun c -> ignore (K.execute s c)) cmds;
      let before = K.fingerprint s in
      List.iter
        (fun c -> if K.is_read_only c then ignore (K.execute s c))
        cmds;
      K.fingerprint s = before)

let test_kv_sizes_and_costs () =
  check "insert bytes ~record" true
    (K.cmd_bytes (K.Insert { thread = "t"; record = record 1 }) > 10);
  check "scan request small" true
    (K.cmd_bytes (K.Scan { thread = "t"; limit = 10 }) < 64);
  let reply = K.Records [ record 1; record 2 ] in
  check "records reply sized" true (K.reply_bytes reply > 20);
  check "scan cost grows with records" true
    (K.cost_ns (K.Scan { thread = "t"; limit = 10 }) reply
    > K.cost_ns (K.Scan { thread = "t"; limit = 10 }) (K.Records []))

(* --- zipf ------------------------------------------------------------- *)

let test_zipf_bounds () =
  let z = Zipf.create ~n:100 () in
  let rng = Rng.create 3 in
  for _ = 1 to 5000 do
    let v = Zipf.sample z rng in
    check "in range" true (v >= 0 && v < 100)
  done

let test_zipf_skew () =
  let z = Zipf.create ~theta:0.99 ~n:1000 () in
  let rng = Rng.create 4 in
  let zero = ref 0 and total = 20_000 in
  for _ = 1 to total do
    if Zipf.sample z rng = 0 then incr zero
  done;
  (* Item 0 of a zipf(0.99, 1000) carries ~13% of the mass; uniform would
     be 0.1%. *)
  check "head is hot" true (float_of_int !zero /. float_of_int total > 0.05)

(* The whole rank-frequency curve, not just the head: counts decay
   monotonically over the top ranks and the rank-1 / rank-10 ratio sits
   near the zipf prediction 10^theta (~9.8 at theta = 0.99). *)
let test_zipf_rank_frequency () =
  let n = 1000 and theta = 0.99 and total = 200_000 in
  let z = Zipf.create ~theta ~n () in
  let rng = Rng.create 9 in
  let counts = Array.make n 0 in
  for _ = 1 to total do
    let v = Zipf.sample z rng in
    counts.(v) <- counts.(v) + 1
  done;
  for r = 0 to 8 do
    if counts.(r) < counts.(r + 1) then
      Alcotest.failf "rank %d (%d draws) colder than rank %d (%d draws)" r
        counts.(r) (r + 1)
        counts.(r + 1)
  done;
  let ratio = float_of_int counts.(0) /. float_of_int counts.(9) in
  check "rank-1/rank-10 ratio near 10^theta" true (ratio > 6. && ratio < 16.)

(* Gray et al.'s method needs theta < 1: at theta = 1 the exponent
   1 / (1 - theta) is infinite and the draws pile onto the coldest key. *)
let test_zipf_domain () =
  let rejects theta =
    Alcotest.check_raises
      (Printf.sprintf "theta %g rejected" theta)
      (Invalid_argument "Zipf.create: theta outside [0, 1)")
      (fun () -> ignore (Zipf.create ~theta ~n:1000 ()))
  in
  List.iter rejects [ 1.0; 1.5; -0.1; Float.nan ];
  List.iter
    (fun theta ->
      let z = Zipf.create ~theta ~n:1000 () in
      let rng = Rng.create 1 in
      for _ = 1 to 1000 do
        let v = Zipf.sample z rng in
        check "in range" true (v >= 0 && v < 1000)
      done)
    [ 0.; 0.5; 0.99 ]

(* --- ycsb ------------------------------------------------------------- *)

let test_ycsb_keys () =
  List.iter
    (fun i ->
      Alcotest.(check string)
        (Printf.sprintf "user_key %d" i)
        (Printf.sprintf "user%08d" i) (Ycsb.user_key i);
      Alcotest.(check string)
        (Printf.sprintf "thread_key %d" i)
        (Printf.sprintf "thread%05d" i) (Ycsb.thread_key i))
    [ 0; 7; 99_999; 100_000; 99_999_999; 100_000_000; -1 ]

let test_ycsb_rotations () =
  List.iter
    (fun len ->
      let rot = Ycsb.rotations len in
      check_int "26 rotations" 26 (Array.length rot);
      Array.iteri
        (fun r v ->
          Alcotest.(check string)
            (Printf.sprintf "rotation %d of length %d" r len)
            (String.init len (fun j -> Char.chr (97 + ((r + j) mod 26))))
            v)
        rot)
    [ 0; 1; 100; 128; 1000 ]

(* Values are handed out shared, not rebuilt: sequence numbers 26 apart
   give the same physical string. *)
let test_ycsb_values_shared () =
  let kv_values =
    List.map
      (function Op.Kv (K.Put (_, v)) -> v | _ -> Alcotest.fail "preload is puts")
      (Ycsb.Kv.preload_ops
         (Ycsb.Kv.create ~read_fraction:1.0 ~records:60 ~seed:1 ()))
  in
  let nth = List.nth kv_values in
  check "kv: seq and seq + 26 share" true (nth 3 == nth 29);
  check "kv: seq and seq + 1 differ" false (nth 3 = nth 4);
  let records =
    List.map
      (function
        | Op.Kv (K.Insert { record; _ }) -> List.map snd record
        | _ -> Alcotest.fail "preload is inserts")
      (Ycsb.preload_ops (Ycsb.create ~seed:1 ()) 30)
  in
  let field r i = List.nth (List.nth records r) i in
  check "e: record r and r + 26 share" true (field 2 5 == field 28 5);
  check "e: field i of r is field i-1 of r+1" true (field 2 5 == field 3 4)

(* The generator streams pinned by content: the digest of each op list,
   marshalled without sharing so that interning payloads cannot move it.
   Captured before payloads were interned; any change to what the
   generators draw shows up here. *)
let stream_digest (ops : Op.t list) =
  Digest.to_hex (Digest.string (Marshal.to_string ops [ Marshal.No_sharing ]))

let draws n next = List.init n (fun _ -> next ())

let test_ycsb_streams_pinned () =
  let pin name want ops = Alcotest.(check string) name want (stream_digest ops) in
  let a = Ycsb.Kv.workload_a ~seed:11 in
  pin "A seed 11: 100k next" "f905154a00411155615819f52200e1ff"
    (draws 100_000 (fun () -> Ycsb.Kv.next a));
  pin "A seed 11: then preload" "0e9bbea93fea1fc447a602e573697c7d"
    (Ycsb.Kv.preload_ops a);
  let repair =
    Ycsb.Kv.create ~read_fraction:0.95 ~records:1_000_000 ~theta:0.9 ~seed:11 ()
  in
  pin "1M records, theta 0.9, 95% reads: 100k next"
    "6ba3f79e3093bad135dd65b21871b56b"
    (draws 100_000 (fun () -> Ycsb.Kv.next repair));
  let e = Ycsb.create ~seed:99 () in
  pin "E seed 99: preload 20k" "71295aabf9501d0af4ca96ec3174cfbc"
    (Ycsb.preload_ops e 20_000);
  pin "E seed 99: then 50k next" "b57ce2e0f8ac718f4e76ea655828bbd5"
    (draws 50_000 (fun () -> Ycsb.next e))

let test_ycsb_mix () =
  let g = Ycsb.create ~seed:5 () in
  let scans = ref 0 and inserts = ref 0 in
  for _ = 1 to 10_000 do
    match Ycsb.next g with
    | Op.Kv (K.Scan _) -> incr scans
    | Op.Kv (K.Insert _) -> incr inserts
    | _ -> Alcotest.fail "unexpected op"
  done;
  let frac = float_of_int !scans /. 10_000. in
  check "95:5 mix" true (frac > 0.93 && frac < 0.97)

let test_ycsb_record_shape () =
  let g = Ycsb.create ~seed:6 () in
  match List.hd (Ycsb.preload_ops g 1) with
  | Op.Kv (K.Insert { record; _ }) ->
      check_int "10 fields" 10 (List.length record);
      List.iter
        (fun (_, v) -> check_int "100-byte values" 100 (String.length v))
        record
  | _ -> Alcotest.fail "preload must be inserts"

let test_ycsb_deterministic () =
  let ops seed =
    let g = Ycsb.create ~seed () in
    List.init 50 (fun _ -> Ycsb.next g)
  in
  check "same seed same stream" true (ops 7 = ops 7);
  check "different seed differs" false (ops 7 = ops 8)

(* --- op ---------------------------------------------------------------- *)

let test_op_synth () =
  let st = Op.create_state () in
  let op = Op.Synth { cost = 1000; read_only = false; req_bytes = 24; rep_bytes = 8 } in
  let result, cost = Op.apply st op in
  check "done" true (result = Op.Done);
  check_int "cost passthrough" 1000 cost;
  check_int "req bytes" 24 (Op.request_bytes op);
  check_int "rep bytes" 8 (Op.reply_bytes op result)

let test_op_fingerprint_excludes_ro () =
  (* Replica A executes reads; replica B doesn't: fingerprints agree. *)
  let a = Op.create_state () and b = Op.create_state () in
  let w = Op.Kv (K.Put ("x", "1")) in
  let r = Op.Kv (K.Get "x") in
  ignore (Op.apply a w);
  ignore (Op.apply a r);
  ignore (Op.apply a r);
  ignore (Op.apply b w);
  check "ro execution doesn't diverge replicas" true
    (Op.fingerprint a = Op.fingerprint b);
  check "executed counts differ" false (Op.executed a = Op.executed b)

let test_op_rw_digest_diverges () =
  let a = Op.create_state () and b = Op.create_state () in
  let w v = Op.Kv (K.Put ("x", v)) in
  ignore (Op.apply a (w "1"));
  ignore (Op.apply b (w "2"));
  check "different writes diverge" false (Op.fingerprint a = Op.fingerprint b)

let test_op_nop () =
  let st = Op.create_state () in
  let before = Op.fingerprint st in
  ignore (Op.apply st Op.Nop);
  check "nop leaves state" true (Op.fingerprint st = before);
  check "nop read-only" true (Op.read_only Op.Nop)

(* --- service ------------------------------------------------------------ *)

let test_service_spec_sampling () =
  let spec =
    Service.spec ~service:(Dist.Fixed 2000) ~req_bytes:64 ~rep_bytes:128
      ~read_fraction:1.0 ()
  in
  let rng = Rng.create 9 in
  for _ = 1 to 20 do
    match Service.sample spec rng with
    | Op.Synth { cost; read_only; req_bytes; rep_bytes } ->
        check_int "cost" 2000 cost;
        check "all reads" true read_only;
        check_int "req" 64 req_bytes;
        check_int "rep" 128 rep_bytes
    | _ -> Alcotest.fail "expected synth"
  done

let test_service_read_fraction () =
  let spec = Service.spec ~read_fraction:0.75 () in
  let rng = Rng.create 10 in
  let ro = ref 0 in
  for _ = 1 to 10_000 do
    if Op.read_only (Service.sample spec rng) then incr ro
  done;
  let f = float_of_int !ro /. 10_000. in
  check "~75% read-only" true (f > 0.72 && f < 0.78)

let test_service_invalid_fraction () =
  Alcotest.check_raises "fraction range"
    (Invalid_argument "Service.spec: read_fraction outside [0,1]") (fun () ->
      ignore (Service.spec ~read_fraction:1.5 ()))


let test_ycsb_kv_mixes () =
  let count_reads gen n =
    let reads = ref 0 in
    for _ = 1 to n do
      match Ycsb.Kv.next gen with
      | Op.Kv (K.Get _) -> incr reads
      | Op.Kv (K.Put _) -> ()
      | _ -> Alcotest.fail "unexpected op"
    done;
    float_of_int !reads /. float_of_int n
  in
  let a = count_reads (Ycsb.Kv.workload_a ~seed:1) 5_000 in
  check "A ~50% reads" true (a > 0.46 && a < 0.54);
  let b = count_reads (Ycsb.Kv.workload_b ~seed:2) 5_000 in
  check "B ~95% reads" true (b > 0.93 && b < 0.97);
  let c = count_reads (Ycsb.Kv.workload_c ~seed:3) 1_000 in
  check "C all reads" true (c = 1.0)

let test_ycsb_kv_preload_covers_keys () =
  let gen = Ycsb.Kv.create ~read_fraction:1.0 ~records:50 ~seed:4 () in
  let store = K.create () in
  List.iter
    (fun op -> match op with Op.Kv c -> ignore (K.execute store c) | _ -> ())
    (Ycsb.Kv.preload_ops gen);
  check_int "one record per key" 50 (K.keys store);
  (* Every subsequent read hits. *)
  for _ = 1 to 200 do
    match Ycsb.Kv.next gen with
    | Op.Kv (K.Get k) ->
        check "read hits preloaded key" true (K.execute store (K.Get k) <> K.Value None)
    | _ -> ()
  done

let suite =
  [
    Alcotest.test_case "kv strings" `Quick test_kv_strings;
    Alcotest.test_case "kv lists (redis semantics)" `Quick test_kv_lists;
    Alcotest.test_case "kv hashes" `Quick test_kv_hashes;
    Alcotest.test_case "kv sets" `Quick test_kv_sets;
    Alcotest.test_case "kv wrong type" `Quick test_kv_wrong_type;
    Alcotest.test_case "kv conversation threads" `Quick test_kv_threads;
    Alcotest.test_case "kv read-only classification" `Quick
      test_kv_read_only_classification;
    Alcotest.test_case "kv fingerprint determinism" `Quick
      test_kv_fingerprint_determinism;
    Alcotest.test_case "kv fingerprint sensitivity" `Quick
      test_kv_fingerprint_sensitive;
    QCheck_alcotest.to_alcotest prop_kv_deterministic;
    QCheck_alcotest.to_alcotest prop_kv_ro_pure;
    Alcotest.test_case "kv sizes and costs" `Quick test_kv_sizes_and_costs;
    Alcotest.test_case "zipf bounds" `Quick test_zipf_bounds;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf rank-frequency shape" `Quick
      test_zipf_rank_frequency;
    Alcotest.test_case "zipf skew domain" `Quick test_zipf_domain;
    Alcotest.test_case "ycsb keys match printf" `Quick test_ycsb_keys;
    Alcotest.test_case "ycsb value rotations" `Quick test_ycsb_rotations;
    Alcotest.test_case "ycsb values shared" `Quick test_ycsb_values_shared;
    Alcotest.test_case "ycsb streams pinned" `Quick test_ycsb_streams_pinned;
    Alcotest.test_case "ycsb 95:5 mix" `Quick test_ycsb_mix;
    Alcotest.test_case "ycsb record shape" `Quick test_ycsb_record_shape;
    Alcotest.test_case "ycsb determinism" `Quick test_ycsb_deterministic;
    Alcotest.test_case "op synth" `Quick test_op_synth;
    Alcotest.test_case "op fingerprint excludes RO" `Quick
      test_op_fingerprint_excludes_ro;
    Alcotest.test_case "op rw digest diverges" `Quick test_op_rw_digest_diverges;
    Alcotest.test_case "op nop" `Quick test_op_nop;
    Alcotest.test_case "service spec sampling" `Quick test_service_spec_sampling;
    Alcotest.test_case "service read fraction" `Quick test_service_read_fraction;
    Alcotest.test_case "service invalid fraction" `Quick test_service_invalid_fraction;
    Alcotest.test_case "ycsb kv A/B/C mixes" `Quick test_ycsb_kv_mixes;
    Alcotest.test_case "ycsb kv preload" `Quick test_ycsb_kv_preload_covers_keys;
  ]
