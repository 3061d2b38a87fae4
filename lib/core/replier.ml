open Hovercraft_sim
open Hovercraft_r2p2

(* Per-node assignment state. Nodes join and leave with the cluster
   configuration, so state lives in a table keyed by node id. *)
type node_state = {
  mutable applied : int;
  assigned : int Queue.t;  (* assigned entry indices, ascending *)
  mutable last_assigned : int;
  mutable excluded : bool;
}

type t = {
  policy : Jbsq.policy;
  bound : int;
  tbl : (int, node_state) Hashtbl.t;
  mutable nodes : int array;  (* current members, sorted (deterministic picks) *)
  rng : Rng.t;
}

let fresh_state () =
  { applied = 0; assigned = Queue.create (); last_assigned = 0; excluded = false }

let create policy ~bound ~nodes ~rng =
  if bound <= 0 then invalid_arg "Replier.create: bound must be positive";
  if nodes = [] then invalid_arg "Replier.create: need at least one node";
  let nodes = Array.of_list (List.sort_uniq Int.compare nodes) in
  let tbl = Hashtbl.create (Array.length nodes) in
  Array.iter (fun i -> Hashtbl.replace tbl i (fresh_state ())) nodes;
  { policy; bound; tbl; nodes; rng }

let bound t = t.bound
let nodes t = Array.to_list t.nodes
let state_opt t i = Hashtbl.find_opt t.tbl i

(* Membership change: retained nodes keep their queues (their in-flight
   assignments are still outstanding), leavers are dropped — at most
   [bound] replies are lost per removed node, the same guarantee as for a
   crashed one — and joiners start fresh. *)
let set_nodes t nodes =
  if nodes = [] then invalid_arg "Replier.set_nodes: need at least one node";
  let nodes = Array.of_list (List.sort_uniq Int.compare nodes) in
  let keep = Array.to_list nodes in
  let stale =
    Hashtbl.fold (fun i _ acc -> if List.mem i keep then acc else i :: acc) t.tbl []
  in
  List.iter (Hashtbl.remove t.tbl) stale;
  Array.iter
    (fun i -> if not (Hashtbl.mem t.tbl i) then Hashtbl.replace t.tbl i (fresh_state ()))
    nodes;
  t.nodes <- nodes

let prune st =
  while (not (Queue.is_empty st.assigned)) && Queue.peek st.assigned <= st.applied do
    ignore (Queue.pop st.assigned)
  done

(* Stale acks from departed nodes may still arrive; they are no-ops. *)
let note_applied t ~node ~applied =
  match state_opt t node with
  | Some st when applied > st.applied ->
      st.applied <- applied;
      prune st
  | Some _ | None -> ()

let applied_of t i =
  match state_opt t i with Some st -> st.applied | None -> 0

let depth t i =
  match state_opt t i with Some st -> Queue.length st.assigned | None -> 0

let eligible_st t st = (not st.excluded) && Queue.length st.assigned < t.bound

let eligible t i =
  match state_opt t i with Some st -> eligible_st t st | None -> false

let any_eligible t = Array.exists (fun i -> eligible t i) t.nodes

let pick t () =
  let scratch = Array.make (Array.length t.nodes) 0 in
  match t.policy with
  | Jbsq.Random_choice ->
      let count = ref 0 in
      Array.iter
        (fun i ->
          if eligible t i then begin
            scratch.(!count) <- i;
            incr count
          end)
        t.nodes;
      if !count = 0 then None else Some scratch.(Rng.int t.rng !count)
  | Jbsq.Jbsq ->
      let best = ref max_int and count = ref 0 in
      Array.iter
        (fun i ->
          if eligible t i then begin
            let d = depth t i in
            if d < !best then begin
              best := d;
              scratch.(0) <- i;
              count := 1
            end
            else if d = !best then begin
              scratch.(!count) <- i;
              incr count
            end
          end)
        t.nodes;
      if !count = 0 then None else Some scratch.(Rng.int t.rng !count)

let assign t ~node ~index =
  match state_opt t node with
  | None -> invalid_arg "Replier.assign: unknown node"
  | Some st ->
      if index <= st.last_assigned then
        invalid_arg "Replier.assign: indices must be increasing per node";
      st.last_assigned <- index;
      if index > st.applied then Queue.push index st.assigned

let set_excluded t i flag =
  match state_opt t i with Some st -> st.excluded <- flag | None -> ()

let reset t =
  Hashtbl.iter
    (fun _ st ->
      st.applied <- 0;
      st.last_assigned <- 0;
      st.excluded <- false;
      Queue.clear st.assigned)
    t.tbl
