open Hovercraft_sim
open Hovercraft_r2p2

(* Per-node assignment state. Nodes join and leave with the cluster
   configuration; state lives in an array indexed by node id that grows
   when a higher id joins. *)
type node_state = {
  mutable applied : int;
  assigned : int Queue.t;  (* assigned entry indices, ascending *)
  mutable last_assigned : int;
}

type t = {
  policy : Jbsq.policy;
  bound : int;
  mutable states : node_state option array;  (* by node id *)
  mutable nodes : int array;  (* current members, sorted (deterministic picks) *)
  mutable scratch : int array;  (* [pick]'s candidates, one slot per member *)
  rng : Rng.t;
}

let fresh_state () =
  { applied = 0; assigned = Queue.create (); last_assigned = 0 }

let state_opt t i = if i >= 0 && i < Array.length t.states then t.states.(i) else None

(* Membership change: retained nodes keep their queues (their in-flight
   assignments are still outstanding), leavers are dropped — at most
   [bound] replies are lost per removed node, the same guarantee as for a
   crashed one — and joiners start fresh. *)
let set_nodes t nodes =
  if nodes = [] then invalid_arg "Replier.set_nodes: need at least one node";
  let nodes = Array.of_list (List.sort_uniq Int.compare nodes) in
  if nodes.(0) < 0 then invalid_arg "Replier.set_nodes: negative node id";
  let top = nodes.(Array.length nodes - 1) in
  let states = Array.make (Int.max (top + 1) (Array.length t.states)) None in
  Array.iter
    (fun i ->
      states.(i) <-
        (match state_opt t i with Some _ as st -> st | None -> Some (fresh_state ())))
    nodes;
  t.states <- states;
  t.nodes <- nodes;
  t.scratch <- Array.make (Array.length nodes) 0

let create policy ~bound ~nodes ~rng =
  if bound <= 0 then invalid_arg "Replier.create: bound must be positive";
  if nodes = [] then invalid_arg "Replier.create: need at least one node";
  let t = { policy; bound; states = [||]; nodes = [||]; scratch = [||]; rng } in
  set_nodes t nodes;
  t

let bound t = t.bound
let nodes t = Array.to_list t.nodes

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

let eligible t i =
  match state_opt t i with
  | Some st -> Queue.length st.assigned < t.bound
  | None -> false

let any_eligible t = Array.exists (fun i -> eligible t i) t.nodes

let pick t () =
  let scratch = t.scratch and count = ref 0 in
  (match t.policy with
  | Jbsq.Random_choice ->
      Array.iter
        (fun i ->
          if eligible t i then begin
            scratch.(!count) <- i;
            incr count
          end)
        t.nodes
  | Jbsq.Jbsq ->
      let best = ref max_int in
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
        t.nodes);
  if !count = 0 then None else Some scratch.(Rng.int t.rng !count)

let assign t ~node ~index =
  match state_opt t node with
  | None -> invalid_arg "Replier.assign: unknown node"
  | Some st ->
      if index <= st.last_assigned then
        invalid_arg "Replier.assign: indices must be increasing per node";
      st.last_assigned <- index;
      if index > st.applied then Queue.push index st.assigned

let reset t =
  Array.iter
    (function
      | Some st ->
          st.applied <- 0;
          st.last_assigned <- 0;
          Queue.clear st.assigned
      | None -> ())
    t.states
