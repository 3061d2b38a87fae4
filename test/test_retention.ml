(* Oracle tests for the retention tables: the time-ordered [Unordered]
   store and the FIFO [Completions] table are driven by random operation
   sequences on a monotone clock, side by side with straightforward
   reference implementations (a full-scan hash table and a hash table
   plus a FIFO queue), and must agree after every step. *)

open Hovercraft_r2p2
open Hovercraft_core
module Addr = Hovercraft_net.Addr
module Op = Hovercraft_apps.Op
module K = Hovercraft_apps.Kvstore

let rid_space = 12
let rid i = { R2p2.id = i; src_addr = Addr.Client (i mod 3); src_port = 1000 }
let op k = Op.Synth { cost = k; read_only = false; req_bytes = 0; rep_bytes = 0 }

module Rtbl = Hashtbl.Make (struct
  type t = R2p2.req_id

  let equal = R2p2.req_id_equal
  let hash = R2p2.req_id_hash
end)

(* --- reference: the full-scan body store ------------------------------ *)

module Ref_unordered = struct
  type slot = {
    op : Op.t;
    mutable added : int;
    mutable ordered : bool;
    seq : int;
  }

  type t = {
    now : unit -> int;
    gc_unordered : int;
    gc_ordered : int;
    table : slot Rtbl.t;
    mutable seq : int;
  }

  let create ~now ~gc_unordered ~gc_ordered =
    { now; gc_unordered; gc_ordered; table = Rtbl.create 16; seq = 0 }

  let add t rid op =
    match Rtbl.find_opt t.table rid with
    | Some slot -> slot.added <- t.now ()
    | None ->
        t.seq <- t.seq + 1;
        Rtbl.replace t.table rid
          { op; added = t.now (); ordered = false; seq = t.seq }

  let find t rid = Option.map (fun s -> s.op) (Rtbl.find_opt t.table rid)

  let status t rid =
    match Rtbl.find_opt t.table rid with
    | None -> `Absent
    | Some s -> if s.ordered then `Ordered else `Unordered

  let mark_ordered t rid =
    match Rtbl.find_opt t.table rid with
    | None -> false
    | Some s ->
        s.ordered <- true;
        s.added <- t.now ();
        true

  let remove t rid = Rtbl.remove t.table rid

  let unordered_bindings t =
    Rtbl.fold (fun rid s acc -> if s.ordered then acc else (rid, s) :: acc) t.table []
    |> List.sort (fun (_, (a : slot)) (_, (b : slot)) -> compare a.seq b.seq)
    |> List.map (fun (rid, s) -> (rid, s.op))

  let gc ~keep t =
    let now = t.now () in
    let dead = ref [] in
    Rtbl.iter
      (fun rid s ->
        let limit = if s.ordered then t.gc_ordered else t.gc_unordered in
        if now - s.added > limit && not ((not s.ordered) && keep rid) then
          dead := rid :: !dead)
      t.table;
    List.iter (Rtbl.remove t.table) !dead;
    List.length !dead

  let size t = Rtbl.length t.table

  let unordered_count t =
    Rtbl.fold (fun _ s acc -> if s.ordered then acc else acc + 1) t.table 0
end

type store_op =
  | Add of int
  | Mark of int
  | Remove of int
  | Gc of int option  (* bitmask of rid ids [keep] pins *)
  | Tick of int

let pp_store_op = function
  | Add i -> Printf.sprintf "add %d" i
  | Mark i -> Printf.sprintf "mark %d" i
  | Remove i -> Printf.sprintf "remove %d" i
  | Gc None -> "gc"
  | Gc (Some m) -> Printf.sprintf "gc keep=%#x" m
  | Tick d -> Printf.sprintf "tick %d" d

let store_op_gen =
  let open QCheck.Gen in
  let id = int_bound (rid_space - 1) in
  frequency
    [
      (4, map (fun i -> Add i) id);
      (3, map (fun i -> Mark i) id);
      (1, map (fun i -> Remove i) id);
      (2, map (fun m -> Gc m) (opt (int_bound ((1 lsl rid_space) - 1))));
      (3, map (fun d -> Tick d) (int_bound 30));
    ]

let store_ops =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map pp_store_op l))
    QCheck.Gen.(list_size (int_range 0 300) store_op_gen)

let prop_unordered_matches_full_scan =
  QCheck.Test.make ~name:"unordered store matches the full-scan oracle" ~count:300
    store_ops (fun ops ->
      let clock = ref 0 in
      let now () = !clock in
      let gc_unordered = 20 and gc_ordered = 50 in
      let s = Unordered.create ~now ~gc_unordered ~gc_ordered () in
      let r = Ref_unordered.create ~now ~gc_unordered ~gc_ordered in
      let same what a b =
        if a <> b then QCheck.Test.fail_reportf "%s differs at t=%d" what !clock
      in
      let agree () =
        for i = 0 to rid_space - 1 do
          same "status" (Unordered.status s (rid i)) (Ref_unordered.status r (rid i));
          same "find" (Unordered.find s (rid i)) (Ref_unordered.find r (rid i))
        done;
        same "size" (Unordered.size s) (Ref_unordered.size r);
        same "unordered_count" (Unordered.unordered_count s)
          (Ref_unordered.unordered_count r);
        same "unordered_bindings" (Unordered.unordered_bindings s)
          (Ref_unordered.unordered_bindings r)
      in
      List.iteri
        (fun step o ->
          (match o with
          | Add i ->
              Unordered.add s (rid i) (op step);
              Ref_unordered.add r (rid i) (op step)
          | Mark i ->
              same "mark_ordered"
                (Unordered.mark_ordered s (rid i))
                (Ref_unordered.mark_ordered r (rid i))
          | Remove i ->
              Unordered.remove s (rid i);
              Ref_unordered.remove r (rid i)
          | Gc None ->
              same "gc" (Unordered.gc s)
                (Ref_unordered.gc ~keep:(fun _ -> false) r)
          | Gc (Some mask) ->
              let keep (x : R2p2.req_id) = mask land (1 lsl x.id) <> 0 in
              same "gc ~keep" (Unordered.gc ~keep s) (Ref_unordered.gc ~keep r)
          | Tick d -> clock := !clock + d);
          agree ())
        ops;
      true)

(* --- reference: completion records as a hash table plus a FIFO -------- *)

module Ref_completions = struct
  type t = { tbl : (Op.result * int) Rtbl.t; fifo : (R2p2.req_id * int) Queue.t }

  let create () = { tbl = Rtbl.create 16; fifo = Queue.create () }

  let record t rid result ~at =
    if not (Rtbl.mem t.tbl rid) then begin
      Rtbl.replace t.tbl rid (result, at);
      Queue.push (rid, at) t.fifo
    end

  let find t rid = Option.map fst (Rtbl.find_opt t.tbl rid)

  let expire t ~now ~retain =
    while
      (not (Queue.is_empty t.fifo)) && now - snd (Queue.peek t.fifo) > retain
    do
      Rtbl.remove t.tbl (fst (Queue.pop t.fifo))
    done

  let records t =
    List.rev
      (Queue.fold
         (fun acc (rid, _) ->
           match Rtbl.find_opt t.tbl rid with
           | Some (result, at) -> (rid, result, at) :: acc
           | None -> acc)
         [] t.fifo)

  let install t records =
    Rtbl.reset t.tbl;
    Queue.clear t.fifo;
    List.iter
      (fun (rid, result, at) ->
        Rtbl.replace t.tbl rid (result, at);
        Queue.push (rid, at) t.fifo)
      records
end

type completion_op =
  | Record of int * int  (* rid id, how far before now it is stamped *)
  | Expire
  | Round_trip  (* export, then install into the same table *)
  | Advance of int

let pp_completion_op = function
  | Record (i, back) -> Printf.sprintf "record %d at now-%d" i back
  | Expire -> "expire"
  | Round_trip -> "round-trip"
  | Advance d -> Printf.sprintf "tick %d" d

let completion_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (* Mostly applied now; some seeded from a Merge with older stamps. *)
      (4, map (fun i -> Record (i, 0)) (int_bound (rid_space - 1)));
      (2, map2 (fun i b -> Record (i, b)) (int_bound (rid_space - 1)) (int_bound 80));
      (2, return Expire);
      (1, return Round_trip);
      (3, map (fun d -> Advance d) (int_bound 30));
    ]

let completion_ops =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map pp_completion_op l))
    QCheck.Gen.(list_size (int_range 0 300) completion_op_gen)

let prop_completions_match_fifo =
  QCheck.Test.make ~name:"completion records match the table+FIFO oracle"
    ~count:300 completion_ops (fun ops ->
      let retain = 50 in
      let now = ref 100 in
      let c = Completions.create () and r = Ref_completions.create () in
      let same what a b =
        if a <> b then QCheck.Test.fail_reportf "%s differs at t=%d" what !now
      in
      List.iteri
        (fun step o ->
          (match o with
          | Record (i, back) ->
              let result = Op.Kv_reply (K.Count step) in
              Completions.record c (rid i) result ~at:(!now - back);
              Ref_completions.record r (rid i) result ~at:(!now - back)
          | Expire ->
              Completions.expire c ~now:!now ~retain;
              Ref_completions.expire r ~now:!now ~retain
          | Round_trip ->
              let exported = Completions.records c in
              let fresh = Completions.create () in
              Completions.install fresh exported;
              same "fresh install" (Completions.records fresh) exported;
              Completions.install c exported;
              Ref_completions.install r (Ref_completions.records r)
          | Advance d -> now := !now + d);
          for i = 0 to rid_space - 1 do
            same "mem" (Completions.mem c (rid i)) (Ref_completions.find r (rid i) <> None);
            same "find" (Completions.find c (rid i)) (Ref_completions.find r (rid i))
          done;
          same "records" (Completions.records c) (Ref_completions.records r))
        ops;
      true)

(* --- the intrusive table itself --------------------------------------- *)

(* Enough entries to force several bucket doublings past the initial
   capacity, then remove every other one: lookups, counts and list order
   survive the rehashing. *)
let test_rid_table_growth () =
  let t = Rid_table.create ~capacity:4 ~lists:2 () in
  let n = 1000 in
  let big i = { R2p2.id = i; src_addr = Addr.Client (i mod 7); src_port = 9 } in
  for i = 0 to n - 1 do
    ignore (Rid_table.add t (big i) i ~stamp:i ~list:(i mod 2))
  done;
  for i = 0 to n - 1 do
    if i mod 4 = 0 then Rid_table.remove t (big i)
  done;
  Alcotest.(check int) "length" (n - (n / 4)) (Rid_table.length t);
  Alcotest.(check int) "list 0" (n / 4) (Rid_table.count t 0);
  for i = 0 to n - 1 do
    Alcotest.(check bool) "mem" (i mod 4 <> 0) (Rid_table.mem t (big i))
  done;
  let seen = ref [] in
  Rid_table.iter_list t 1 (fun node -> seen := Rid_table.stamp node :: !seen);
  Alcotest.(check (list int)) "list 1 in append order"
    (List.init (n / 2) (fun k -> (2 * k) + 1))
    (List.rev !seen)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_unordered_matches_full_scan;
    QCheck_alcotest.to_alcotest prop_completions_match_fifo;
    Alcotest.test_case "rid table growth and removal" `Quick test_rid_table_growth;
  ]
