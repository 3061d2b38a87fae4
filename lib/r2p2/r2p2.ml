type policy = Unrestricted | Replicated_req | Replicated_req_r

let policy_read_only = function
  | Replicated_req_r -> true
  | Unrestricted | Replicated_req -> false

type msg_type =
  | Request
  | Response
  | Raft_request
  | Raft_response
  | Recovery_request
  | Recovery_response
  | Agg_commit
  | Feedback
  | Nack

type req_id = { id : int; src_addr : Hovercraft_net.Addr.t; src_port : int }

let req_id_equal a b =
  a.id = b.id && a.src_port = b.src_port
  && Hovercraft_net.Addr.equal a.src_addr b.src_addr

let req_id_compare a b =
  let c = compare a.id b.id in
  if c <> 0 then c
  else
    let c = compare a.src_port b.src_port in
    if c <> 0 then c else Hovercraft_net.Addr.compare a.src_addr b.src_addr

let req_id_hash r =
  (r.id * 0x9E3779B1) lxor (r.src_port * 0x85EBCA77)
  lxor Hovercraft_net.Addr.hash r.src_addr

let pp_req_id fmt r =
  Format.fprintf fmt "%a:%d#%d" Hovercraft_net.Addr.pp r.src_addr r.src_port r.id

module Rid_tbl = Hashtbl.Make (struct
  type t = req_id

  let equal = req_id_equal
  let hash = req_id_hash
end)

let header_bytes = 16

module Id_source = struct
  type t = {
    src_addr : Hovercraft_net.Addr.t;
    src_port : int;
    mutable next_id : int;
  }

  let create ~src_addr ~src_port = { src_addr; src_port; next_id = 0 }

  let next t =
    let id = t.next_id in
    t.next_id <- id + 1;
    { id; src_addr = t.src_addr; src_port = t.src_port }
end
