open Hovercraft_apps

(* One expiry list, in insertion order: a record's stamp is the time it
   was recorded at, so expiry stops at the first live head even when a
   seeded record behind it is older. *)
type t = Op.result Rid_table.t

let fifo = 0
let create () = Rid_table.create ~capacity:1024 ~lists:1 ()
let mem = Rid_table.mem

let find t rid =
  let node = Rid_table.find t rid in
  if Rid_table.is_nil node then None else Some (Rid_table.value node)

let record t rid result ~at =
  if not (Rid_table.mem t rid) then
    ignore (Rid_table.add t rid result ~stamp:at ~list:fifo)

let expire t ~now ~retain =
  Rid_table.expire t fifo ~now ~limit:retain (Rid_table.remove_node t)

let records t =
  let acc = ref [] in
  Rid_table.iter_list t fifo (fun node ->
      acc := (Rid_table.rid node, Rid_table.value node, Rid_table.stamp node) :: !acc);
  List.rev !acc

let install t records =
  Rid_table.reset t;
  List.iter (fun (rid, result, at) -> record t rid result ~at) records
