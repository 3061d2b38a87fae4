(* Oracle tests for the retention tables: the time-ordered [Unordered]
   store and the apply layer's FIFO of completion records are driven by
   random operation sequences, side by side with straightforward
   reference implementations (a full-scan hash table and a hash table
   plus a FIFO queue), and must agree after every step. The flat
   [Rid_table] under both is checked against a model too, with ids chosen
   to reach both its client windows and its overflow index; its hot
   cycles must allocate nothing, and the load generator's send/reply
   cycle must stay under a per-request allocation bound. In every mode a
   deployment's live heap must not grow with run length. *)

open Hovercraft_r2p2
open Hovercraft_core
module Addr = Hovercraft_net.Addr
module Op = Hovercraft_apps.Op
module K = Hovercraft_apps.Kvstore

(* Three clients with four ids each: two plain ones, a negative one
   (always in the table's overflow) and one [window_cap] past the client's
   first, which spills whenever that one is live. *)
let rid_space = 12

let rid i =
  let id =
    match i mod 4 with 2 -> -i | 3 -> i - 3 + Rid_table.window_cap | _ -> i
  in
  { R2p2.id; src_addr = Addr.Client (i / 4); src_port = 1000 }

let rid_index (x : R2p2.req_id) =
  let rec go i = if R2p2.req_id_equal (rid i) x then i else go (i + 1) in
  go 0
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
              let keep x = mask land (1 lsl rid_index x) <> 0 in
              same "gc ~keep" (Unordered.gc ~keep s) (Ref_unordered.gc ~keep r)
          | Tick d -> clock := !clock + d);
          agree ())
        ops;
      true)

(* --- reference: completion records as a hash table plus a FIFO -------- *)

(* The apply layer's records under the log-clock rule: the clock is the
   running maximum of the applied stamps, a record stamped [at] is live
   while [clock - at <= retain], a lookup ignores one that is not and a
   new record replaces it at the tail. Every client entry is an [Rpush]
   on one key, so a fresh execution answers with the push count. *)
module Ref_completions = struct
  type t = {
    retain : int;
    tbl : (Op.result * int) Rtbl.t;
    fifo : (R2p2.req_id * int) Queue.t;
        (* Insertion order; an id replaced after expiry leaves its old
           position behind, told apart by its stamp. *)
    mutable clock : int;
    mutable pushes : int;
  }

  let create ~retain =
    { retain; tbl = Rtbl.create 16; fifo = Queue.create (); clock = 0; pushes = 0 }

  let find t rid ~ordered_at =
    match Rtbl.find_opt t.tbl rid with
    | Some (result, at) when Int.max t.clock ordered_at - at <= t.retain -> Some result
    | Some _ | None -> None

  let record t rid result ~at =
    if t.clock - at <= t.retain && find t rid ~ordered_at:0 = None then begin
      Rtbl.replace t.tbl rid (result, at);
      Queue.push (rid, at) t.fifo
    end

  let advance t ordered_at = t.clock <- Int.max t.clock ordered_at

  let apply t rid ~ordered_at =
    advance t ordered_at;
    match find t rid ~ordered_at with
    | Some result -> result
    | None ->
        t.pushes <- t.pushes + 1;
        let result = Op.Kv_reply (K.Count t.pushes) in
        record t rid result ~at:t.clock;
        result

  let merge t rid ~ordered_at seeds =
    advance t ordered_at;
    let result = Option.value ~default:Op.Done (find t rid ~ordered_at) in
    List.iter (fun (seed, at) -> record t seed Op.Done ~at) seeds;
    record t rid Op.Done ~at:t.clock;
    result

  let current t (rid, at) =
    match Rtbl.find_opt t.tbl rid with Some (_, at') -> at = at' | None -> false

  let expire t =
    while
      (not (Queue.is_empty t.fifo)) && t.clock - snd (Queue.peek t.fifo) > t.retain
    do
      let head = Queue.pop t.fifo in
      if current t head then Rtbl.remove t.tbl (fst head)
    done

  let records t =
    List.rev
      (Queue.fold
         (fun acc (rid, at) ->
           match Rtbl.find_opt t.tbl rid with
           | Some (c_result, at') when at = at' && t.clock - at <= t.retain ->
               { Op.c_rid = rid; c_result; c_at = at } :: acc
           | Some _ | None -> acc)
         [] t.fifo)
end

type completion_op =
  | Apply of int * int  (* rid id, how far before now the entry is stamped *)
  | Seed of int * int  (* a Merge seeding a record that far before now *)
  | Expire
  | Round_trip  (* cut an image, install it into a fresh state and back *)
  | Advance of int

let pp_completion_op = function
  | Apply (i, back) -> Printf.sprintf "apply %d at now-%d" i back
  | Seed (i, back) -> Printf.sprintf "seed %d at now-%d" i back
  | Expire -> "expire"
  | Round_trip -> "round-trip"
  | Advance d -> Printf.sprintf "tick %d" d

let completion_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (* Mostly stamped now; some stamped earlier than the clock (another
         replica's stamp) or seeded from a Merge with older stamps. *)
      (4, map (fun i -> Apply (i, 0)) (int_bound (rid_space - 1)));
      (1, map2 (fun i b -> Apply (i, b)) (int_bound (rid_space - 1)) (int_bound 80));
      (2, map2 (fun i b -> Seed (i, b)) (int_bound (rid_space - 1)) (int_bound 80));
      (2, return Expire);
      (1, return Round_trip);
      (3, map (fun d -> Advance d) (int_bound 30));
    ]

let completion_ops =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map pp_completion_op l))
    QCheck.Gen.(list_size (int_range 0 300) completion_op_gen)

let push = Op.Kv (K.Rpush ("log", "x"))
let empty_chunk = K.snapshot (K.create ())

(* A Merge's own id: one client apart from the ids it seeds. *)
let merge_rid step = { R2p2.id = step; src_addr = Addr.Client 99; src_port = 1 }

let prop_completions_match_fifo =
  QCheck.Test.make ~name:"completion records match the table+FIFO oracle"
    ~count:300 completion_ops (fun ops ->
      let retain = 50 in
      let now = ref 100 in
      let a = Apply.create ~window:retain () and r = Ref_completions.create ~retain in
      let same what x y =
        if x <> y then QCheck.Test.fail_reportf "%s differs at t=%d" what !now
      in
      let index = ref 0 in
      let apply rid ~ordered_at op =
        incr index;
        fst
          (Option.get
             (Apply.apply a ~index:!index ~runs_reads:true ~internal:false ~rid
                ~read_only:false ~ordered_at op))
      in
      List.iteri
        (fun step o ->
          (match o with
          | Apply (i, back) ->
              let ordered_at = !now - back in
              same "result"
                (apply (rid i) ~ordered_at push)
                (Ref_completions.apply r (rid i) ~ordered_at)
          | Seed (i, back) ->
              let completions =
                [ { Op.c_rid = rid i; c_result = Op.Done; c_at = !now - back } ]
              in
              same "merge result"
                (apply (merge_rid step) ~ordered_at:!now
                   (Op.Merge { chunk = empty_chunk; completions }))
                (Ref_completions.merge r (merge_rid step) ~ordered_at:!now
                   [ (rid i, !now - back) ])
          | Expire ->
              Apply.expire a;
              Ref_completions.expire r
          | Round_trip ->
              let image = Apply.image a in
              let fresh = Apply.create ~window:retain () in
              Apply.install fresh image;
              same "fresh install" (Apply.records fresh) image.Apply.s_completions;
              same "installed clock" (Apply.clock fresh) (Apply.clock a);
              Apply.install a image
          | Advance d -> now := !now + d);
          same "clock" (Apply.clock a) r.Ref_completions.clock;
          for i = 0 to rid_space - 1 do
            same "find"
              (Apply.find a (rid i) ~ordered_at:!now)
              (Ref_completions.find r (rid i) ~ordered_at:!now)
          done;
          same "records" (Apply.records a) (Ref_completions.records r))
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
  Rid_table.iter_list t 1 (fun node -> seen := Rid_table.stamp t node :: !seen);
  Alcotest.(check (list int)) "list 1 in append order"
    (List.init (n / 2) (fun k -> (2 * k) + 1))
    (List.rev !seen)

(* --- the flat table against a model ----------------------------------- *)

(* Ids whose 31-bit hashes collide outright, in groups of eight, so
   overflow probes compare fingerprints that match and must fall back to
   the id. The ids are negative, so no window takes them. Half the groups
   home to the last index slot at every index size the test reaches, so
   their probe runs wrap round to slot 0; the rest home to slot 0.
   [req_id_hash] is [(id * a) lxor (port * b) lxor addr_hash] and [b] is
   odd, so a port giving any wanted low 31 bits is [wanted * b^-1] mod
   2^31. *)
let m31 = 0x7FFF_FFFF

let inverse_mod_2_31 b =
  let x = ref b in
  for _ = 1 to 5 do
    x := !x * (2 - (b * !x)) land m31
  done;
  !x

let colliding_rid ~group ~member =
  let addr = Addr.Client 1 in
  let base = { R2p2.id = -1 - member; src_addr = addr; src_port = 0 } in
  let target = (group lsl 20) lor if group mod 2 = 0 then 0xF_FFFF else 0 in
  let want = target lxor R2p2.req_id_hash base land m31 in
  let port = want * inverse_mod_2_31 0x85EBCA77 land m31 in
  { base with src_port = port }

let pool_size = 600
let colliding = 32

(* After the colliding ids, blocks of eight: six plain ids of one of
   five clients (its window grows as they fill in), one id of a client
   of its own — seventy-odd of them, more than the direct table holds —
   and one id a multiple of [window_cap] past a plain id of the block,
   which spills while that id is live. *)
let pool =
  Array.init pool_size (fun i ->
      if i < colliding then colliding_rid ~group:(i / 8) ~member:i
      else
        let src_addr = Addr.Client (i / 8 mod 5) in
        match i mod 8 with
        | 6 -> { R2p2.id = i; src_addr = Addr.Client 9; src_port = 100 + (i / 8) }
        | 7 ->
            let far = (1 + (i / 8 mod 3)) * Rid_table.window_cap in
            { R2p2.id = i - 2 + far; src_addr; src_port = 7 }
        | _ -> { R2p2.id = i; src_addr; src_port = 7 })

let test_forced_collisions () =
  let h i = R2p2.req_id_hash pool.(i) land m31 in
  for i = 0 to colliding - 1 do
    Alcotest.(check int) "same 31-bit hash as its group" (h (i / 8 * 8)) (h i)
  done;
  (* All of them in the overflow of a one-slot index: drop every third
     and the rest are still found, across the wrapped probe runs the
     backward shift closes. *)
  let t = Rid_table.create ~capacity:1 ~lists:1 () in
  for i = 0 to colliding - 1 do
    ignore (Rid_table.add t pool.(i) i ~stamp:0 ~list:0)
  done;
  Alcotest.(check int) "all spilled" colliding (Rid_table.spilled t);
  for i = 0 to colliding - 1 do
    if i mod 3 = 0 then Rid_table.remove t pool.(i)
  done;
  for i = 0 to colliding - 1 do
    let h = Rid_table.find t pool.(i) in
    if i mod 3 = 0 then Alcotest.(check bool) "removed" true (Rid_table.is_nil h)
    else Alcotest.(check int) "found" i (Rid_table.value t h)
  done;
  Alcotest.(check int) "spilled after removal" (Rid_table.length t) (Rid_table.spilled t)

module Ref_table = struct
  type entry = { value : int; mutable stamp : int; mutable list : int; order : int }

  type t = {
    tbl : entry Rtbl.t;
    lists : R2p2.req_id list array;  (* each in append order *)
    mutable order : int;
  }

  let create lists = { tbl = Rtbl.create 16; lists = Array.make lists []; order = 0 }

  let unlink t rid =
    let e = Rtbl.find t.tbl rid in
    t.lists.(e.list) <- List.filter (fun r -> not (R2p2.req_id_equal r rid)) t.lists.(e.list)

  let append t rid l = t.lists.(l) <- t.lists.(l) @ [ rid ]

  let add t rid value ~stamp ~list =
    t.order <- t.order + 1;
    Rtbl.replace t.tbl rid { value; stamp; list; order = t.order };
    append t rid list

  let move t rid ~list ~stamp =
    unlink t rid;
    let e = Rtbl.find t.tbl rid in
    e.stamp <- stamp;
    e.list <- list;
    append t rid list

  let remove t rid =
    if Rtbl.mem t.tbl rid then begin
      unlink t rid;
      Rtbl.remove t.tbl rid
    end

  let reset t =
    Rtbl.reset t.tbl;
    Array.fill t.lists 0 (Array.length t.lists) []
end

type table_op =
  | T_add of int * int  (* first pool id, how many ids on from it *)
  | T_move of int * int
  | T_remove of int * int  (* first pool id, how many ids on from it *)
  | T_expire of int * int  (* list, age limit *)
  | T_sweep of int * int  (* list, remove values divisible by this *)
  | T_trim
  | T_reset
  | T_tick of int

let pp_table_op = function
  | T_add (i, k) -> Printf.sprintf "add %d+%d" i k
  | T_move (i, l) -> Printf.sprintf "move %d to %d" i l
  | T_remove (i, k) -> Printf.sprintf "remove %d+%d" i k
  | T_expire (l, limit) -> Printf.sprintf "expire %d > %d" l limit
  | T_sweep (l, m) -> Printf.sprintf "sweep %d mod %d" l m
  | T_trim -> "trim"
  | T_reset -> "reset"
  | T_tick d -> Printf.sprintf "tick %d" d

let table_lists = 3

let table_op_gen =
  let open QCheck.Gen in
  let id = int_bound (pool_size - 1) and l = int_bound (table_lists - 1) in
  frequency
    [
      (4, map (fun i -> T_add (i, 1)) (int_bound (colliding - 1)));
      (3, map (fun i -> T_add (i, 1)) id);
      (2, map2 (fun i k -> T_add (i, k)) id (int_range 20 320));
      (3, map2 (fun i l -> T_move (i, l)) id l);
      (2, map (fun i -> T_remove (i, 1)) (int_bound (colliding - 1)));
      (2, map (fun i -> T_remove (i, 1)) id);
      (2, map2 (fun i k -> T_remove (i, k)) id (int_range 20 320));
      (2, map2 (fun l limit -> T_expire (l, limit)) l (int_bound 40));
      (1, map2 (fun l m -> T_sweep (l, m)) l (int_range 1 4));
      (2, return T_trim);
      (1, return T_reset);
      (3, map (fun d -> T_tick d) (int_bound 20));
    ]

let table_ops =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map pp_table_op l))
    QCheck.Gen.(list_size (int_range 0 60) table_op_gen)

(* From an index of one slot, so it grows many times; big runs of adds
   cross entry-chunk boundaries; removals, expiry and sweeps free slots
   that later adds reuse and shift colliding runs back across the wrap,
   and that trims pack entries out of. *)
let prop_rid_table_matches_model =
  QCheck.Test.make ~name:"flat rid table matches the table+lists model" ~count:300
    table_ops (fun ops ->
      let t = Rid_table.create ~capacity:1 ~lists:table_lists () in
      let m = Ref_table.create table_lists in
      let now = ref 0 in
      let same what a b =
        if a <> b then QCheck.Test.fail_reportf "%s differs at t=%d" what !now
      in
      let agree () =
        same "length" (Rid_table.length t) (Rtbl.length m.tbl);
        for l = 0 to table_lists - 1 do
          same "count" (Rid_table.count t l) (List.length m.lists.(l));
          let seen = ref [] in
          Rid_table.iter_list t l (fun h -> seen := Rid_table.rid t h :: !seen);
          same "list order" (List.rev !seen) m.lists.(l)
        done;
        Array.iter
          (fun rid ->
            let h = Rid_table.find t rid in
            match Rtbl.find_opt m.tbl rid with
            | None -> same "absent" (Rid_table.is_nil h) true
            | Some e ->
                same "present" (Rid_table.is_nil h) false;
                same "rid" (Rid_table.rid t h) rid;
                same "value" (Rid_table.value t h) e.value;
                same "stamp" (Rid_table.stamp t h) e.stamp;
                same "list" (Rid_table.list t h) e.list;
                same "order" (Rid_table.order t h) e.order)
          pool
      in
      List.iteri
        (fun step o ->
          (match o with
          | T_add (i, k) ->
              for j = i to Int.min (pool_size - 1) (i + k - 1) do
                let rid = pool.(j) in
                if not (Rtbl.mem m.tbl rid) then begin
                  let list = (step + j) mod table_lists in
                  ignore (Rid_table.add t rid (step * 1000 + j) ~stamp:!now ~list);
                  Ref_table.add m rid (step * 1000 + j) ~stamp:!now ~list
                end
              done
          | T_move (i, list) ->
              let h = Rid_table.find t pool.(i) in
              if not (Rid_table.is_nil h) then begin
                Rid_table.move t h ~list ~stamp:!now;
                Ref_table.move m pool.(i) ~list ~stamp:!now
              end
          | T_remove (i, k) ->
              for j = i to Int.min (pool_size - 1) (i + k - 1) do
                Rid_table.remove t pool.(j);
                Ref_table.remove m pool.(j)
              done
          | T_expire (l, limit) ->
              (* Even values are dropped, odd ones move to the next list. *)
              let next = (l + 1) mod table_lists in
              Rid_table.expire t l ~now:!now ~limit (fun h ->
                  if Rid_table.value t h mod 2 = 0 then Rid_table.remove_node t h
                  else Rid_table.move t h ~list:next ~stamp:!now);
              let rec expire_model () =
                match m.lists.(l) with
                | rid :: _ when !now - (Rtbl.find m.tbl rid).stamp > limit ->
                    if (Rtbl.find m.tbl rid).value mod 2 = 0 then Ref_table.remove m rid
                    else Ref_table.move m rid ~list:next ~stamp:!now;
                    expire_model ()
                | _ -> ()
              in
              expire_model ()
          | T_sweep (l, d) ->
              Rid_table.iter_list t l (fun h ->
                  if Rid_table.value t h mod d = 0 then Rid_table.remove_node t h);
              List.iter
                (fun rid ->
                  if (Rtbl.find m.tbl rid).value mod d = 0 then Ref_table.remove m rid)
                m.lists.(l)
          | T_trim -> Rid_table.trim t
          | T_reset ->
              Rid_table.reset t;
              Ref_table.reset m
          | T_tick d -> now := !now + d);
          agree ())
        ops;
      true)

(* A table that shrank gives its spare chunks back: entries above the
   packed size move down, keeping their lists' order, their index slots
   and their fields, and the table keeps working after it. *)
let test_rid_table_trim () =
  let t = Rid_table.create ~capacity:4 ~lists:2 () in
  let r i = pool.(i) in
  for i = 0 to pool_size - 1 do
    ignore (Rid_table.add t (r i) i ~stamp:i ~list:(i mod 2))
  done;
  (* Keep every seventh id below 500 and all of those above. *)
  for i = 0 to 499 do
    if i mod 7 <> 0 then Rid_table.remove t (r i)
  done;
  let kept = List.filter (fun i -> i >= 500 || i mod 7 = 0) (List.init pool_size Fun.id) in
  let check_all what =
    Alcotest.(check int) (what ^ ": length") (List.length kept) (Rid_table.length t);
    List.iter
      (fun i ->
        let h = Rid_table.find t (r i) in
        Alcotest.(check bool) (what ^ ": found") false (Rid_table.is_nil h);
        Alcotest.(check int) (what ^ ": value") i (Rid_table.value t h);
        Alcotest.(check int) (what ^ ": stamp") i (Rid_table.stamp t h);
        Alcotest.(check int) (what ^ ": list") (i mod 2) (Rid_table.list t h);
        Alcotest.(check int) (what ^ ": order") (i + 1) (Rid_table.order t h))
      kept;
    for l = 0 to 1 do
      let seen = ref [] in
      Rid_table.iter_list t l (fun h -> seen := Rid_table.value t h :: !seen);
      Alcotest.(check (list int)) (what ^ ": list order")
        (List.filter (fun i -> i mod 2 = l) kept)
        (List.rev !seen)
    done
  in
  check_all "before";
  Rid_table.trim t;
  check_all "after trim";
  (* Removing and re-adding after the trim reuses the packed storage. *)
  Rid_table.remove t (r 0);
  ignore (Rid_table.add t (r 0) 0 ~stamp:0 ~list:0);
  Alcotest.(check int) "re-added goes last" 0
    (let last = ref (-1) in
     Rid_table.iter_list t 0 (fun h -> last := Rid_table.value t h);
     !last);
  Alcotest.(check bool) "colliding ids still found" true
    (List.for_all (fun i -> Rid_table.mem t (r i)) (List.filter (fun i -> i < colliding) kept))

(* --- windows and the overflow ------------------------------------------ *)

let client_rid ?(addr = Addr.Client 0) ?(port = 1) id =
  { R2p2.id; src_addr = addr; src_port = port }

(* Each id is found with its value, and the table gives the id back
   structurally equal, from its window or its overflow slot. *)
let check_values what t ids =
  List.iter
    (fun (rid, v) ->
      let h = Rid_table.find t rid in
      if Rid_table.is_nil h then Alcotest.failf "%s: %a missing" what R2p2.pp_req_id rid;
      Alcotest.(check int) (what ^ ": value") v (Rid_table.value t h);
      if Rid_table.rid t h <> rid then
        Alcotest.failf "%s: %a came back as %a" what R2p2.pp_req_id rid R2p2.pp_req_id
          (Rid_table.rid t h))
    ids

(* Each way an entry reaches the overflow, and what it takes to leave
   it: a window grows right up to the cap, an id that would need more
   spills, negative ids always do, and clients past the direct table's
   spill for good. *)
let test_window_spills () =
  let cap = Rid_table.window_cap in
  let t = Rid_table.create ~capacity:1 ~lists:1 () in
  let add rid v = ignore (Rid_table.add t rid v ~stamp:0 ~list:0) in
  add (client_rid 0) 0;
  add (client_rid (cap / 2)) 1;
  add (client_rid (cap - 1)) 7;
  Alcotest.(check int) "the window grows to the cap" 0 (Rid_table.spilled t);
  add (client_rid cap) 2;
  Alcotest.(check int) "the cap apart spills" 1 (Rid_table.spilled t);
  add (client_rid (-5)) 3;
  add (client_rid min_int) 4;
  add (client_rid max_int) 5;
  Alcotest.(check int) "negative and huge ids spill" 4 (Rid_table.spilled t);
  check_values "mixed" t
    [
      (client_rid 0, 0);
      (client_rid (cap / 2), 1);
      (client_rid (cap - 1), 7);
      (client_rid cap, 2);
      (client_rid (-5), 3);
      (client_rid min_int, 4);
      (client_rid max_int, 5);
    ];
  Alcotest.(check bool) "absent id on a held slot" false
    (Rid_table.mem t (client_rid (2 * cap)));
  (* With 0 gone, [cap] stays in the overflow and a re-added 0 goes back
     to the window. *)
  Rid_table.remove t (client_rid 0);
  Alcotest.(check bool) "removed" false (Rid_table.mem t (client_rid 0));
  check_values "after removal" t [ (client_rid cap, 2) ];
  add (client_rid 0) 6;
  Alcotest.(check int) "re-added into the window" 4 (Rid_table.spilled t);
  check_values "re-added" t [ (client_rid 0, 6); (client_rid cap, 2) ];
  (* More clients than the direct table holds: the rest spill. *)
  let u = Rid_table.create ~capacity:1 ~lists:1 () in
  let extra = 8 and per = 3 in
  let crowd =
    List.init ((Rid_table.clients + extra) * per) (fun k ->
        (client_rid ~addr:(Addr.Client 7) ~port:(k / per) (k mod per), k))
  in
  List.iter (fun (rid, v) -> ignore (Rid_table.add u rid v ~stamp:0 ~list:0)) crowd;
  Alcotest.(check int) "clients past the table spill" (extra * per) (Rid_table.spilled u);
  check_values "crowd" u crowd;
  List.iteri (fun k (rid, _) -> if k mod 2 = 0 then Rid_table.remove u rid) crowd;
  check_values "crowd, half removed" u (List.filteri (fun k _ -> k mod 2 = 1) crowd);
  Rid_table.reset u;
  Alcotest.(check int) "reset empties the overflow" 0 (Rid_table.spilled u);
  let last, _ = List.nth crowd (List.length crowd - 1) in
  ignore (Rid_table.add u last 0 ~stamp:0 ~list:0);
  Alcotest.(check int) "reset frees the client slots" 0 (Rid_table.spilled u)

(* An id removed while its window is small comes back after the window
   has doubled several times, into the grown window. *)
let test_readd_across_growth () =
  let t = Rid_table.create ~capacity:1 ~lists:2 () in
  let add i = ignore (Rid_table.add t (client_rid i) i ~stamp:i ~list:(i mod 2)) in
  for i = 0 to 9 do
    add i
  done;
  Rid_table.remove t (client_rid 5);
  for i = 10 to 4999 do
    add i
  done;
  Alcotest.(check bool) "still absent" false (Rid_table.mem t (client_rid 5));
  add 5;
  Alcotest.(check int) "nothing spilled" 0 (Rid_table.spilled t);
  check_values "all" t (List.init 5000 (fun i -> (client_rid i, i)));
  let last = ref (-1) in
  Rid_table.iter_list t 1 (fun h -> last := Rid_table.value t h);
  Alcotest.(check int) "re-added goes last" 5 !last

(* Trim moves entries held in windows and in the overflow alike; each
   stays found under its new handle, and removing it afterwards clears
   the slot it moved to. *)
let test_trim_windows_and_overflow () =
  let t = Rid_table.create ~capacity:1 ~lists:1 () in
  let n = 3000 in
  let rid_of k =
    match k mod 3 with
    | 0 -> client_rid ~addr:(Addr.Client (k mod 4)) k
    | 1 -> client_rid ~addr:(Addr.Client (k mod 4)) (-k)
    | _ -> client_rid ~addr:(Addr.Client (k mod 4)) (k + (2 * Rid_table.window_cap))
  in
  for k = 0 to n - 1 do
    ignore (Rid_table.add t (rid_of k) k ~stamp:k ~list:0)
  done;
  let spilled = Rid_table.spilled t in
  Alcotest.(check bool) "some spilled" true (spilled > 0 && spilled < n);
  for k = 0 to n - 1 do
    if k < 2700 && k mod 10 <> 0 then Rid_table.remove t (rid_of k)
  done;
  let kept = List.filter (fun k -> k >= 2700 || k mod 10 = 0) (List.init n Fun.id) in
  let spilled = Rid_table.spilled t in
  Rid_table.trim t;
  Alcotest.(check int) "trim keeps every entry where it was" spilled (Rid_table.spilled t);
  check_values "after trim" t (List.map (fun k -> (rid_of k, k)) kept);
  List.iter (fun k -> if k mod 20 = 0 then Rid_table.remove t (rid_of k)) kept;
  check_values "after removal" t
    (List.filter_map (fun k -> if k mod 20 = 0 then None else Some (rid_of k, k)) kept);
  List.iter
    (fun k ->
      if k mod 20 = 0 then
        Alcotest.(check bool) "removed after trim" false (Rid_table.mem t (rid_of k)))
    kept

(* What a retained entry costs: three int words and a value slot, plus
   its share of its client's window. The id is not kept — its window
   slot and its client's direct-table slot give it back — so an id the
   caller drops is garbage even while its entry lives. *)
let test_entry_words () =
  let n = 4096 in
  let t = Rid_table.create ~capacity:16 ~lists:1 () in
  let weak = Weak.create 1 in
  let add i =
    let rid = client_rid (Sys.opaque_identity i) in
    if i = 7 then Weak.set weak 0 (Some rid);
    ignore (Rid_table.add t rid () ~stamp:i ~list:0)
  in
  for i = 0 to n - 1 do
    add i
  done;
  Gc.full_major ();
  Alcotest.(check bool) "the added id is garbage" true (Weak.get weak 0 = None);
  List.iter
    (fun i ->
      let h = Rid_table.find t (client_rid i) in
      Alcotest.(check bool) "found" false (Rid_table.is_nil h);
      Alcotest.(check bool) "given back" true (Rid_table.rid t h = client_rid i))
    [ 0; 7; n - 1 ];
  (* One client's live ids 0 .. n-1 need a window of [n] slots; what is
     left over is the table's fixed cost and one header per array. *)
  let window = n + 1 and fixed = 256 in
  let words = Obj.reachable_words (Obj.repr t) in
  if words > (4 * n) + window + fixed then
    Alcotest.failf "%d entries take %d words: %.2f an entry past the window" n words
      (float_of_int (words - window) /. float_of_int n)

(* Ids the table files each way — in a window, negative or huge, one
   [window_cap] apart from a live one, and of clients past the direct
   table's — come back structurally equal and in order through the two
   stores that export them. *)
let test_rids_round_trip_through_stores () =
  let cap = Rid_table.window_cap in
  let rids =
    List.init (2 * (Rid_table.clients + 4)) (fun k ->
        client_rid ~port:(k mod (Rid_table.clients + 4)) (k / (Rid_table.clients + 4)))
    @ [ client_rid (-3); client_rid min_int; client_rid max_int ]
    @ [ client_rid 5; client_rid (5 + cap); client_rid (5 + (2 * cap)) ]
  in
  let a = Apply.create ~window:1000 () in
  List.iteri
    (fun i rid ->
      ignore
        (Apply.apply a ~index:(i + 1) ~runs_reads:true ~internal:false ~rid
           ~read_only:false ~ordered_at:i push))
    rids;
  Alcotest.(check bool) "completion records" true
    (Apply.records a
    = List.mapi
        (fun i rid -> { Op.c_rid = rid; c_result = Op.Kv_reply (K.Count (i + 1)); c_at = i })
        rids);
  let fresh = Apply.create ~window:1000 () in
  Apply.install fresh (Apply.image a);
  Alcotest.(check bool) "installed records" true (Apply.records fresh = Apply.records a);
  let s = Unordered.create ~now:(fun () -> 0) ~gc_unordered:10 ~gc_ordered:10 () in
  List.iteri (fun i rid -> Unordered.add s rid (op i)) rids;
  Alcotest.(check bool) "unordered bindings" true
    (Unordered.unordered_bindings s = List.mapi (fun i rid -> (rid, op i)) rids)

(* Once the table has reached its working size, the hot cycle of a
   retention table — add a new id, look one up, restamp it onto another
   list, drop the oldest — allocates nothing. *)
let test_rid_table_steady_state_allocation () =
  let n = 4096 and live = 2000 and ops = 20_000 in
  let rids =
    Array.init n (fun i -> { R2p2.id = i; src_addr = Addr.Client (i mod 3); src_port = 1 })
  in
  let t = Rid_table.create ~capacity:16 ~lists:2 () in
  for i = 0 to live - 1 do
    ignore (Rid_table.add t rids.(i) i ~stamp:i ~list:0)
  done;
  let step k =
    ignore (Rid_table.add t rids.((k + live) mod n) k ~stamp:k ~list:0);
    let h = Rid_table.find t rids.((k + (live / 2)) mod n) in
    Rid_table.move t h ~list:1 ~stamp:k;
    Rid_table.remove_node t (Rid_table.find t rids.(k mod n))
  in
  (* One full lap of the id space first: chunks and index at full size. *)
  for k = 0 to n - 1 do
    step k
  done;
  let before = Gc.minor_words () in
  for k = n to n + ops - 1 do
    step k
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "steady size" live (Rid_table.length t);
  (* Any allocation in the cycle is at least two words per cycle. *)
  if words >= float_of_int ops /. 100. then
    Alcotest.failf "rid table cycle allocates: %.0f minor words / %d cycles" words ops

(* One client's window sliding forward at a steady size — add the
   newest id, drop the oldest, as a retention table or the load
   generator's in-flight set does — allocates nothing once warm. *)
let test_window_slide_allocation () =
  let live = 1000 and ops = 50_000 in
  let rids = Array.init (live + ops + 2048) (fun i -> client_rid i) in
  let t = Rid_table.create ~capacity:16 ~lists:1 () in
  for i = 0 to live - 1 do
    ignore (Rid_table.add t rids.(i) i ~stamp:i ~list:0)
  done;
  let step k =
    ignore (Rid_table.add t rids.(k + live) k ~stamp:k ~list:0);
    Rid_table.remove_node t (Rid_table.find t rids.(k))
  in
  (* Warm: the window reaches its working size. *)
  for k = 0 to 2047 do
    step k
  done;
  let before = Gc.minor_words () in
  for k = 2048 to 2048 + ops - 1 do
    step k
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "steady size" live (Rid_table.length t);
  Alcotest.(check int) "all in the window" 0 (Rid_table.spilled t);
  if words >= float_of_int ops /. 100. then
    Alcotest.failf "window slide allocates: %.0f minor words / %d cycles" words ops

(* The whole send, execute and reply cycle, in minor words per request
   sent (deterministic for a given cell). Unreplicated: keeping the
   in-flight requests in a [Rid_table] (stamp = send time, value =
   operation) measured 139.1 words; a hash table of (sent_at, op,
   endpoint) tuples cost a 4-word tuple and a 4-word bucket per request,
   plus its resizes: 151.6. Replicated (Hover, N=3): 873.3 words, so a
   request-path decision that allocates per request, on any of the three
   nodes, fails the bound. *)
let test_loadgen_cycle_allocation () =
  let module Deploy = Hovercraft_cluster.Deploy in
  let module Loadgen = Hovercraft_cluster.Loadgen in
  let cycle mode ~n ~bound =
    let d = Deploy.create (Deploy.config (Hnode.params ~mode ~n ())) in
    let spec = Hovercraft_apps.Service.spec () in
    let g =
      Loadgen.create d ~clients:8 ~rate_rps:200_000.
        ~workload:(Hovercraft_apps.Service.sample spec) ~seed:3 ()
    in
    let before = Gc.minor_words () in
    let r =
      Loadgen.run g ~warmup:(Hovercraft_sim.Timebase.ms 2)
        ~duration:(Hovercraft_sim.Timebase.ms 40) ()
    in
    let per_req = (Gc.minor_words () -. before) /. float_of_int r.Loadgen.sent in
    Alcotest.(check bool) "requests answered" true (r.Loadgen.completed > 7000);
    if per_req > bound then
      Alcotest.failf "%a send/reply cycle allocates %.1f minor words per request"
        Hnode.pp_mode mode per_req
  in
  cycle Hnode.Unreplicated ~n:1 ~bound:145.;
  cycle Hnode.Hover ~n:3 ~bound:900.

(* --- retained memory is bounded by the retention windows -------------- *)

(* What a deployment keeps after a run must be set by its retention
   windows (completion records and bodies for [gc_ordered] /
   [gc_unordered], [log_retain] log entries), not by how long it ran. Each
   cell runs a short and a long fault-free load with the windows shrunk
   so both runs are past the point where they fill; live words after a
   full collection may grow by at most [words_per_request] per extra
   request. The load generator's latency samples (one word each, in an
   array that doubles) are what is left. Before the Hover++ leader
   compacted from the aggregator's completed registers it kept every
   entry it appended (~25 words a request here: the aggregator counts the
   quorum, so the leader saw no follower's progress), and Rabia kept
   every decision (~51). *)
let words_per_request = 3.

let sweep_params ?(backend = Hnode.Raft) ?(apply_threads = 1) ?(net_stages = 1)
    ?(read_mode = Hnode.Replicated_reads) mode =
  let p = Hnode.params ~mode ~backend ~n:(if mode = Hnode.Unreplicated then 1 else 3) () in
  let ms = Hovercraft_sim.Timebase.ms in
  {
    p with
    Hnode.timing = { p.Hnode.timing with gc_unordered = ms 5; gc_ordered = ms 5 };
    features =
      { p.Hnode.features with log_retain = 64; apply_threads; net_stages; read_mode };
  }

(* Live words after a full collection while the system that ran, [sys],
   is still reachable; and the requests sent. *)
let live_after_run sys run =
  let sent = run () in
  Gc.full_major ();
  let live = (Gc.quick_stat ()).Gc.live_words in
  ignore (Sys.opaque_identity sys);
  (live, sent)

let one_group ?flow_cap ?router_bound ?(read_fraction = 0.) params ~duration =
  let module Deploy = Hovercraft_cluster.Deploy in
  let module Loadgen = Hovercraft_cluster.Loadgen in
  let d = Deploy.create (Deploy.config ?flow_cap ?router_bound params) in
  let spec = Hovercraft_apps.Service.spec ~read_fraction () in
  live_after_run d (fun () ->
      let g =
        Loadgen.create d ~clients:8 ~rate_rps:50_000.
          ~workload:(Hovercraft_apps.Service.sample spec)
          ~unrestricted_reads:(router_bound <> None) ~seed:5 ()
      in
      (Loadgen.run g ~warmup:0 ~duration ()).Loadgen.sent)

let two_groups params ~duration =
  let module Sd = Hovercraft_shard.Shard_deploy in
  let module Sl = Hovercraft_shard.Shard_loadgen in
  let sd = Sd.create (Sd.config ~shards:2 params) in
  let spec = Hovercraft_apps.Service.spec () in
  live_after_run sd (fun () ->
      let g =
        Sl.create sd ~clients:8 ~rate_rps:50_000.
          ~workload:(Hovercraft_apps.Service.sample spec) ~seed:5 ()
      in
      (Sl.run g ~warmup:0 ~duration ()).Hovercraft_cluster.Loadgen.sent)

let retention_cells =
  [
    ("unrep", one_group (sweep_params Hnode.Unreplicated));
    ("vanilla", one_group (sweep_params Hnode.Vanilla));
    ("hover", one_group (sweep_params Hnode.Hover));
    ("hoverpp, flow cap", one_group ~flow_cap:64 (sweep_params Hnode.Hover_pp));
    ( "hoverpp, 4 stages, 4 apply threads",
      one_group (sweep_params ~net_stages:4 ~apply_threads:4 Hnode.Hover_pp) );
    ( "hoverpp, router",
      one_group ~router_bound:16 ~read_fraction:0.5 (sweep_params Hnode.Hover_pp) );
    ( "hover, leases",
      one_group ~read_fraction:0.5
        (sweep_params ~read_mode:Hnode.Leader_leases Hnode.Hover) );
    ("hover/rabia", one_group (sweep_params ~backend:Hnode.Rabia Hnode.Hover));
    ("two-group hoverpp", two_groups (sweep_params Hnode.Hover_pp));
  ]

(* The synth-hover cell (Hover, three nodes, the default service and
   retention windows) retains every request of a 75 ms run: nothing is
   older than [gc_ordered]'s 100 ms. Each node keeps a body-store entry
   and a completion record per request. With ids kept only in the client
   windows, three-int entries and shared bodies the run adds 35.2 live
   words a request; with an id slot, a boxed id and four ints per entry
   and a body per request it added 55.8. *)
let synth_hover_words = 45.

let test_synth_hover_words_per_request () =
  let module Deploy = Hovercraft_cluster.Deploy in
  let module Loadgen = Hovercraft_cluster.Loadgen in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.live_words in
  let d = Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Hover ~n:3 ())) in
  let spec = Hovercraft_apps.Service.spec () in
  let live, sent =
    live_after_run d (fun () ->
        let g =
          Loadgen.create d ~clients:8 ~rate_rps:800_000.
            ~workload:(Hovercraft_apps.Service.sample spec) ~seed:7 ()
        in
        (Loadgen.run g ~warmup:0 ~duration:(Hovercraft_sim.Timebase.ms 75) ()).Loadgen.sent)
  in
  let per_req = float_of_int (live - before) /. float_of_int sent in
  Alcotest.(check bool) "about 60 k requests" true (sent > 55_000);
  if per_req > synth_hover_words then
    Alcotest.failf "synth-hover retains %.1f live words per request (bound %.0f)" per_req
      synth_hover_words

let test_retained_memory_bounded () =
  let ms = Hovercraft_sim.Timebase.ms in
  let over =
    List.filter_map
      (fun (name, cell) ->
        let live_short, sent_short = cell ~duration:(ms 60) in
        let live_long, sent_long = cell ~duration:(ms 300) in
        let per_req =
          float_of_int (live_long - live_short)
          /. float_of_int (sent_long - sent_short)
        in
        if per_req > words_per_request then
          Some (Printf.sprintf "%s: %.1f" name per_req)
        else None)
      retention_cells
  in
  if over <> [] then
    Alcotest.failf "live words per extra request above %.0f: %s"
      words_per_request (String.concat "; " over)

(* Reads are idempotent and keep no completion record: an all-read load
   leaves every replica's completion table empty, in every mode that
   orders reads. Before, each read filed a record on every replica (an
   empty [Done] one where the read did not run), and a retry answered
   from one got an empty reply. *)
let test_reads_keep_no_records () =
  let module Deploy = Hovercraft_cluster.Deploy in
  let module Loadgen = Hovercraft_cluster.Loadgen in
  let module Sd = Hovercraft_shard.Shard_deploy in
  let module Sl = Hovercraft_shard.Shard_loadgen in
  let ms = Hovercraft_sim.Timebase.ms in
  let spec = Hovercraft_apps.Service.spec ~read_fraction:1. () in
  let workload = Hovercraft_apps.Service.sample spec in
  let run_one ?flow_cap params =
    let d = Deploy.create (Deploy.config ?flow_cap params) in
    let g = Loadgen.create d ~clients:8 ~rate_rps:50_000. ~workload ~seed:5 () in
    let r = Loadgen.run g ~warmup:0 ~duration:(ms 40) () in
    (r.Loadgen.completed, Array.to_list d.Deploy.nodes)
  in
  let run_two params =
    let sd = Sd.create (Sd.config ~shards:2 params) in
    let g = Sl.create sd ~clients:8 ~rate_rps:50_000. ~workload ~seed:5 () in
    let r = Sl.run g ~warmup:0 ~duration:(ms 40) () in
    ( r.Loadgen.completed,
      List.concat_map (fun d -> Array.to_list d.Deploy.nodes) (Array.to_list (Sd.groups sd)) )
  in
  List.iter
    (fun (name, cell) ->
      let completed, nodes = cell () in
      if completed < 1_000 then Alcotest.failf "%s: only %d reads answered" name completed;
      List.iter
        (fun n ->
          let records = List.length (Hnode.completion_records n) in
          if records > 0 then
            Alcotest.failf "%s: node%d holds %d completion records after %d reads" name
              (Hnode.id n) records completed)
        nodes)
    [
      ("vanilla", fun () -> run_one (sweep_params Hnode.Vanilla));
      ("hover", fun () -> run_one (sweep_params Hnode.Hover));
      ("hoverpp, flow cap", fun () -> run_one ~flow_cap:64 (sweep_params Hnode.Hover_pp));
      ( "hoverpp, 4 stages, 4 apply threads",
        fun () -> run_one (sweep_params ~net_stages:4 ~apply_threads:4 Hnode.Hover_pp) );
      ("hover/rabia", fun () -> run_one (sweep_params ~backend:Hnode.Rabia Hnode.Hover));
      ("two-group hoverpp", fun () -> run_two (sweep_params Hnode.Hover_pp));
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_unordered_matches_full_scan;
    QCheck_alcotest.to_alcotest prop_completions_match_fifo;
    Alcotest.test_case "rid table growth and removal" `Quick test_rid_table_growth;
    Alcotest.test_case "forced hash collisions" `Quick test_forced_collisions;
    QCheck_alcotest.to_alcotest prop_rid_table_matches_model;
    Alcotest.test_case "rid table trim packs a shrunken table" `Quick test_rid_table_trim;
    Alcotest.test_case "rid table steady cycle allocates nothing" `Quick
      test_rid_table_steady_state_allocation;
    Alcotest.test_case "window slide allocates nothing" `Quick
      test_window_slide_allocation;
    Alcotest.test_case "loadgen cycle keeps no per-request table" `Quick
      test_loadgen_cycle_allocation;
    Alcotest.test_case "windows spill to the overflow" `Quick test_window_spills;
    Alcotest.test_case "re-add across window growth" `Quick test_readd_across_growth;
    Alcotest.test_case "trim moves window and overflow entries" `Quick
      test_trim_windows_and_overflow;
    Alcotest.test_case "an entry is three ints and a value slot" `Quick test_entry_words;
    Alcotest.test_case "ids round-trip through the stores" `Quick
      test_rids_round_trip_through_stores;
    Alcotest.test_case "synth-hover words per request" `Quick
      test_synth_hover_words_per_request;
    Alcotest.test_case "retained memory bounded in every mode" `Quick
      test_retained_memory_bounded;
    Alcotest.test_case "reads keep no completion records" `Quick
      test_reads_keep_no_records;
  ]
