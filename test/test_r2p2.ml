(* Tests for the R2P2 transport types and the JBSQ selector. *)

open Hovercraft_sim
open Hovercraft_r2p2
module Addr = Hovercraft_net.Addr

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rid ?(id = 0) ?(port = 1000) ?(node = 0) () =
  { R2p2.id; src_addr = Addr.Client node; src_port = port }

let test_policy_read_only () =
  check "r policy" true (R2p2.policy_read_only R2p2.Replicated_req_r);
  check "rw policy" false (R2p2.policy_read_only R2p2.Replicated_req);
  check "unrestricted" false (R2p2.policy_read_only R2p2.Unrestricted)

let test_req_id_identity () =
  check "equal" true (R2p2.req_id_equal (rid ()) (rid ()));
  check "id differs" false (R2p2.req_id_equal (rid ~id:1 ()) (rid ~id:2 ()));
  check "port differs" false (R2p2.req_id_equal (rid ~port:1 ()) (rid ~port:2 ()));
  check "addr differs" false (R2p2.req_id_equal (rid ~node:1 ()) (rid ~node:2 ()));
  check "hash agrees with equal" true
    (R2p2.req_id_hash (rid ()) = R2p2.req_id_hash (rid ()));
  check_int "compare reflexive" 0 (R2p2.req_id_compare (rid ()) (rid ()))

let test_id_source_unique () =
  let src = R2p2.Id_source.create ~src_addr:(Addr.Client 0) ~src_port:1000 in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 1000 do
    let r = R2p2.Id_source.next src in
    check "fresh id" false (Hashtbl.mem seen r.R2p2.id);
    Hashtbl.replace seen r.R2p2.id ()
  done

(* --- jbsq ------------------------------------------------------------ *)

let mk ?(policy = Jbsq.Jbsq) ?(bound = 4) ?(n = 3) ?(seed = 1) () =
  Jbsq.create policy ~bound ~n ~rng:(Rng.create seed)

let test_jbsq_initial_all_eligible () =
  let q = mk () in
  for i = 0 to 2 do
    check "eligible at depth 0" true (Jbsq.eligible q i)
  done;
  check "pick succeeds" true (Jbsq.pick q <> None)

let test_jbsq_bound_enforced () =
  let q = mk ~n:1 ~bound:2 () in
  Jbsq.assign q 0;
  Jbsq.assign q 0;
  check "full server ineligible" false (Jbsq.eligible q 0);
  Alcotest.(check (option int)) "pick exhausted" None (Jbsq.pick q);
  Alcotest.check_raises "assign over bound"
    (Invalid_argument "Jbsq.assign: server not eligible") (fun () ->
      Jbsq.assign q 0);
  Jbsq.complete q 0;
  check "eligible again" true (Jbsq.eligible q 0)

let test_jbsq_picks_shortest () =
  let q = mk ~n:3 ~bound:10 () in
  Jbsq.assign q 0;
  Jbsq.assign q 0;
  Jbsq.assign q 1;
  (* Server 2 has depth 0: JBSQ must pick it. *)
  for _ = 1 to 20 do
    Alcotest.(check (option int)) "shortest queue" (Some 2) (Jbsq.pick q)
  done

let test_random_picks_only_eligible () =
  let q = mk ~policy:Jbsq.Random_choice ~n:4 ~bound:1 () in
  Jbsq.assign q 1;
  Jbsq.assign q 3;
  for _ = 1 to 50 do
    match Jbsq.pick q with
    | Some (0 | 2) -> ()
    | Some i -> Alcotest.failf "picked ineligible %d" i
    | None -> Alcotest.fail "pick failed with eligible servers"
  done

(* Invariant under random operations: depths never exceed the bound and
   never go negative; picks always return eligible servers. *)
let prop_jbsq_invariants =
  QCheck.Test.make ~name:"jbsq depth invariants under random ops" ~count:300
    QCheck.(pair (int_range 1 10_000) (list_of_size (Gen.int_range 1 200) (int_range 0 9)))
    (fun (seed, ops) ->
      let n = 3 and bound = 5 in
      let q = Jbsq.create Jbsq.Jbsq ~bound ~n ~rng:(Rng.create seed) in
      List.for_all
        (fun op ->
          (if op mod 2 = 0 then
             match Jbsq.pick q with
             | Some i ->
                 assert (Jbsq.eligible q i);
                 Jbsq.assign q i
             | None -> ()
           else
             let i = op mod n in
             if Jbsq.depth q i > 0 then Jbsq.complete q i);
          let ok = ref true in
          for i = 0 to n - 1 do
            if Jbsq.depth q i < 0 || Jbsq.depth q i > bound then ok := false
          done;
          !ok)
        ops)

let suite =
  [
    Alcotest.test_case "policy read-only flag" `Quick test_policy_read_only;
    Alcotest.test_case "req_id identity triple" `Quick test_req_id_identity;
    Alcotest.test_case "id source uniqueness" `Quick test_id_source_unique;
    Alcotest.test_case "jbsq initial eligibility" `Quick test_jbsq_initial_all_eligible;
    Alcotest.test_case "jbsq bound enforced" `Quick test_jbsq_bound_enforced;
    Alcotest.test_case "jbsq picks shortest" `Quick test_jbsq_picks_shortest;
    Alcotest.test_case "random picks eligible only" `Quick
      test_random_picks_only_eligible;
    QCheck_alcotest.to_alcotest prop_jbsq_invariants;
  ]
