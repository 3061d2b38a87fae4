open Hovercraft_sim

(* The store's expiry lists. A body is on exactly one: [unordered] and
   [ordered] are sorted by last refresh, and [pinned] holds unordered
   bodies past their timeout that [gc]'s [keep] still protects. *)
let unordered = 0
let ordered = 1
let pinned = 2

type t = {
  now : unit -> Timebase.t;
  gc_unordered : Timebase.t;
  gc_ordered : Timebase.t;
  table : Hovercraft_apps.Op.t Rid_table.t;
}

let create ~now ~gc_unordered ~gc_ordered () =
  {
    now;
    gc_unordered;
    gc_ordered;
    table = Rid_table.create ~capacity:4096 ~lists:3 ();
  }

let add t rid op =
  let node = Rid_table.find t.table rid in
  if Rid_table.is_nil node then
    ignore (Rid_table.add t.table rid op ~stamp:(t.now ()) ~list:unordered)
  else
    let list = if Rid_table.list node = ordered then ordered else unordered in
    Rid_table.move t.table node ~list ~stamp:(t.now ())

let find t rid =
  let node = Rid_table.find t.table rid in
  if Rid_table.is_nil node then None else Some (Rid_table.value node)

let status t rid =
  let node = Rid_table.find t.table rid in
  if Rid_table.is_nil node then `Absent
  else if Rid_table.list node = ordered then `Ordered
  else `Unordered

let mark_ordered t rid =
  let node = Rid_table.find t.table rid in
  if Rid_table.is_nil node then false
  else begin
    Rid_table.move t.table node ~list:ordered ~stamp:(t.now ());
    true
  end

let remove t rid = Rid_table.remove t.table rid

let unordered_bindings t =
  let acc = ref [] in
  let collect node =
    acc := (Rid_table.order node, Rid_table.rid node, Rid_table.value node) :: !acc
  in
  Rid_table.iter_list t.table unordered collect;
  Rid_table.iter_list t.table pinned collect;
  List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !acc
  |> List.map (fun (_, rid, op) -> (rid, op))

let gc ?(keep = fun _ -> false) t =
  let now = t.now () in
  let dropped = ref 0 in
  let drop node =
    Rid_table.remove_node t.table node;
    incr dropped
  in
  (* A pinned body is already past its timeout: it goes as soon as [keep]
     lets go of it. Bodies pinned below are first re-checked next tick. *)
  Rid_table.iter_list t.table pinned (fun node ->
      if not (keep (Rid_table.rid node)) then drop node);
  Rid_table.expire t.table unordered ~now ~limit:t.gc_unordered (fun node ->
      if keep (Rid_table.rid node) then
        Rid_table.move t.table node ~list:pinned ~stamp:(Rid_table.stamp node)
      else drop node);
  Rid_table.expire t.table ordered ~now ~limit:t.gc_ordered drop;
  !dropped

let size t = Rid_table.length t.table

let unordered_count t =
  Rid_table.count t.table unordered + Rid_table.count t.table pinned
