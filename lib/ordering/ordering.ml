type kind = Raft | Rabia

let kind_of_string = function
  | "raft" -> Ok Raft
  | "rabia" -> Ok Rabia
  | s -> Error (Printf.sprintf "unknown backend %S (expected raft|rabia)" s)

let kind_name = function Raft -> "raft" | Rabia -> "rabia"
let pp_kind fmt k = Format.pp_print_string fmt (kind_name k)
