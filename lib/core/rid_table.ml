open Hovercraft_sim
open Hovercraft_r2p2

type 'a node =
  | Nil
  | Node of {
      rid : R2p2.req_id;
      value : 'a;
      hash : int;
      mutable stamp : Timebase.t;
      mutable tag : int;
      mutable chain : 'a node;
      mutable prev : 'a node;
      mutable next : 'a node;
    }

type 'a t = {
  initial : int;
  mutable buckets : 'a node array;
  mutable size : int;
  heads : 'a node array;
  tails : 'a node array;
  counts : int array;
  mutable order : int;
}

(* A node's [tag] packs its insertion order above the number of the list
   it is on: one word instead of two, in a table that holds hundreds of
   thousands of nodes. *)
let list_bits = 2
let list_mask = (1 lsl list_bits) - 1

let rec pow2_at_least n x = if x >= n then x else pow2_at_least n (x * 2)

let create ~capacity ~lists () =
  if lists < 1 || lists > list_mask + 1 then
    invalid_arg "Rid_table.create: lists must be in 1..4";
  let initial = pow2_at_least (Int.max capacity 1) 1 in
  {
    initial;
    buckets = Array.make initial Nil;
    size = 0;
    heads = Array.make lists Nil;
    tails = Array.make lists Nil;
    counts = Array.make lists 0;
    order = 0;
  }

let is_nil node = node == Nil
let nil () = invalid_arg "Rid_table: Nil has no fields"
let rid = function Nil -> nil () | Node n -> n.rid
let value = function Nil -> nil () | Node n -> n.value
let stamp = function Nil -> nil () | Node n -> n.stamp
let list = function Nil -> nil () | Node n -> n.tag land list_mask
let order = function Nil -> nil () | Node n -> n.tag lsr list_bits
let length t = t.size
let count t l = t.counts.(l)

(* Bucket counts are powers of two, so masking the hash picks a bucket.
   Nodes keep their hash: a chain walk compares it before touching the
   key record, and rehashing or removing a node never recomputes it. *)
let index buckets hash = hash land (Array.length buckets - 1)

let rec find_chain rid hash = function
  | Nil -> Nil
  | Node n as node ->
      if n.hash = hash && R2p2.req_id_equal n.rid rid then node
      else find_chain rid hash n.chain

let find t rid =
  let hash = R2p2.req_id_hash rid in
  find_chain rid hash (Array.unsafe_get t.buckets (index t.buckets hash))

let mem t rid = not (is_nil (find t rid))

(* --- expiry lists ---------------------------------------------------- *)

let append t node l =
  match node with
  | Nil -> ()
  | Node n ->
      let tail = t.tails.(l) in
      n.tag <- n.tag land lnot list_mask lor l;
      n.prev <- tail;
      n.next <- Nil;
      (match tail with Nil -> t.heads.(l) <- node | Node p -> p.next <- node);
      t.tails.(l) <- node;
      t.counts.(l) <- t.counts.(l) + 1

let unlink t = function
  | Nil -> ()
  | Node n ->
      let l = n.tag land list_mask in
      (match n.prev with Nil -> t.heads.(l) <- n.next | Node p -> p.next <- n.next);
      (match n.next with Nil -> t.tails.(l) <- n.prev | Node q -> q.prev <- n.prev);
      n.prev <- Nil;
      n.next <- Nil;
      t.counts.(l) <- t.counts.(l) - 1

let move t node ~list ~stamp =
  match node with
  | Nil -> invalid_arg "Rid_table.move: Nil"
  | Node n ->
      unlink t node;
      n.stamp <- stamp;
      append t node list

let rec iter_from f = function
  | Nil -> ()
  | Node n as node ->
      (* Read the successor first: [f] may take its node off the list. *)
      let next = n.next in
      f node;
      iter_from f next

let iter_list t l f = iter_from f t.heads.(l)

let rec expire t l ~now ~limit f =
  match t.heads.(l) with
  | Node n as node when now - n.stamp > limit ->
      f node;
      if t.heads.(l) == node then
        invalid_arg "Rid_table.expire: callback left its node on the list";
      expire t l ~now ~limit f
  | Nil | Node _ -> ()

(* --- hash chains ------------------------------------------------------ *)

let rec rechain buckets = function
  | Nil -> ()
  | Node n as node ->
      let next = n.chain in
      let i = index buckets n.hash in
      n.chain <- buckets.(i);
      buckets.(i) <- node;
      rechain buckets next

(* Double once the load passes one. Most lookups are misses (a new id
   checked against both tables), and a miss walks its whole chain of
   long-untouched nodes, a cache miss each: half [Hashtbl]'s load of
   two costs one pointer per entry and buys back about a tenth of the
   simulator's time at 800 kRPS. *)
let resize t =
  let buckets = Array.make (2 * Array.length t.buckets) Nil in
  Array.iter (rechain buckets) t.buckets;
  t.buckets <- buckets

let add t rid value ~stamp ~list =
  if t.size > Array.length t.buckets then resize t;
  t.order <- t.order + 1;
  let hash = R2p2.req_id_hash rid in
  let i = index t.buckets hash in
  let node =
    Node
      {
        rid;
        value;
        hash;
        stamp;
        tag = t.order lsl list_bits;
        chain = t.buckets.(i);
        prev = Nil;
        next = Nil;
      }
  in
  t.buckets.(i) <- node;
  t.size <- t.size + 1;
  append t node list;
  node

(* Unhook [target] from bucket [i], found by identity. *)
let rec unchain t i target prev = function
  | Nil -> ()
  | Node n as node ->
      if node == target then
        match prev with
        | Nil -> t.buckets.(i) <- n.chain
        | Node p -> p.chain <- n.chain
      else unchain t i target node n.chain

let remove_node t = function
  | Nil -> ()
  | Node n as node ->
      let i = index t.buckets n.hash in
      unchain t i node Nil t.buckets.(i);
      n.chain <- Nil;
      t.size <- t.size - 1;
      unlink t node

let remove t rid = remove_node t (find t rid)

let reset t =
  t.buckets <- Array.make t.initial Nil;
  t.size <- 0;
  Array.fill t.heads 0 (Array.length t.heads) Nil;
  Array.fill t.tails 0 (Array.length t.tails) Nil;
  Array.fill t.counts 0 (Array.length t.counts) 0
