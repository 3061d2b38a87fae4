type t = Node of int | Client of int | Netagg | Middlebox | Router | Group of int

let equal a b =
  match (a, b) with
  | Node x, Node y | Client x, Client y | Group x, Group y -> x = y
  | Netagg, Netagg | Middlebox, Middlebox | Router, Router -> true
  | (Node _ | Client _ | Netagg | Middlebox | Router | Group _), _ -> false

let kind = function
  | Node _ -> 0
  | Client _ -> 1
  | Netagg -> 2
  | Middlebox -> 3
  | Router -> 4
  | Group _ -> 5

let kinds = 6

let index = function
  | Node i | Client i | Group i -> i
  | Netagg | Middlebox | Router -> 0

let compare a b =
  let c = compare (kind a) (kind b) in
  if c <> 0 then c else compare (index a) (index b)

let hash t = (kind t * 1_000_003) + index t

let to_string = function
  | Node i -> Printf.sprintf "node%d" i
  | Client i -> Printf.sprintf "client%d" i
  | Netagg -> "netagg"
  | Middlebox -> "middlebox"
  | Router -> "router"
  | Group i -> Printf.sprintf "mcast%d" i

let pp fmt t = Format.pp_print_string fmt (to_string t)
let cluster_group = 0
